"""Exact parameter arithmetic, summed from the census build_model materializes.

`count_params` reads `param_layout`, which lists every physical tensor's
shape without allocating it, so table-scale models (hundreds of millions
of parameters) cost no memory and always agree with the built model.

Breakdown convention: the named buckets (embedding, *_attn, *_ffn) hold
matrix entries only; every layer-norm gain/bias pair lands in
'layer_norms' and every projection/FFN bias in 'biases'. A tied
encoder-decoder FFN is attributed to 'enc_ffn'.
"""

from __future__ import annotations

import dataclasses
import math

from .config import ModelConfig, SharingSpec
from .transformer import param_layout

# Matrix bucket of each block kind, keyed by canonical name less its block index.
_MATRIX_BUCKETS = {
    "embedding": "embedding",
    "enc.sa": "enc_attn",
    "enc.ffn": "enc_ffn",
    "encdec.ffn": "enc_ffn",
    "dec.sa": "dec_self_attn",
    "dec.ca": "dec_cross_attn",
    "dec.ffn": "dec_ffn",
}

BREAKDOWN_KEYS = (*dict.fromkeys(_MATRIX_BUCKETS.values()), "layer_norms", "biases")


def count_params(config: ModelConfig) -> tuple[int, dict[str, int]]:
    """Total parameter count and its breakdown for one configuration."""
    out = dict.fromkeys(BREAKDOWN_KEYS, 0)
    for name, shape in param_layout(config)[0]:
        block, _, part = name.rpartition(".")
        if part.startswith("ln_"):
            key = "layer_norms"
        elif len(shape) == 1:
            key = "biases"
        else:
            key = _MATRIX_BUCKETS[block.rstrip("0123456789") or part]
        out[key] += math.prod(shape)
    return sum(out.values()), out


def baseline_of(config: ModelConfig) -> ModelConfig:
    """Same shape with Individual FFNs/attention everywhere, no shared width."""
    return dataclasses.replace(config, sharing=SharingSpec(), d_ff_shared=None)
