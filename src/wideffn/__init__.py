"""Toy-scale Transformer laboratory for FFN sharing, dropping, and widening.

Modules:
    errors      the exception types and their exit codes
    tensor      float32 autodiff core (Tensor, ComputeTape, ops, grad_check)
    config      sharing strategies and layer assignment, ModelConfig / SharingSpec,
                the key, type and minimum checks, presets
    store       physical/logical parameter storage
    transformer blocks, builder, masks, forward passes, decode rows
    counting    exact parameter arithmetic
    checkpoint  binary save/load with tie-preserving alias table
    vocab       token conventions, toy tasks, parallel corpora
    training    schedule, Adam, train loop, width sweep
    similarity  linear CKA, local neighborhood similarity, reports
    bench       batched greedy/beam search, throughput, corpus BLEU
    cli         command line front end
"""

from .config import (FFNStrategy, ModelConfig, SharingSpec, apply_preset, one_wide_dff,
                     resolve_ffn_assignment)
from .counting import count_params
from .errors import ConfigError, DataError, NumericError, ShapeError, WideFFNError
from .store import ParamStore
from .tensor import ComputeTape, Tensor, grad_check, recording
from .transformer import TransformerModel, build_model

__all__ = [
    "ComputeTape",
    "ConfigError",
    "DataError",
    "FFNStrategy",
    "ModelConfig",
    "NumericError",
    "ParamStore",
    "ShapeError",
    "SharingSpec",
    "Tensor",
    "TransformerModel",
    "WideFFNError",
    "apply_preset",
    "build_model",
    "count_params",
    "grad_check",
    "one_wide_dff",
    "recording",
    "resolve_ffn_assignment",
]

__version__ = "0.1.0"
