"""Sharing strategies: which layers reuse which physical FFN.

A strategy names a mapping from layer index to physical FFN index on one
side of the model. Attention sharing is simpler (Individual or SharedAll
per attention kind) and handled where models are built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ConfigError

SIMPLE_KINDS = ("Individual", "SharedAll", "NoOp")
GROUPED_KINDS = ("Sequence", "Cycle", "CycleRev")

_GROUPED_RE = re.compile(r"^(Sequence|Cycle|CycleRev)\((\d+)\)$")


@dataclass(frozen=True)
class FFNStrategy:
    """One side's FFN sharing rule; m is the group count for grouped kinds."""

    kind: str
    m: int | None = None

    def __post_init__(self):
        if self.kind in SIMPLE_KINDS:
            if self.m is not None:
                raise ConfigError(f"{self.kind} takes no group count")
        elif self.kind in GROUPED_KINDS:
            if self.m is None or self.m < 1:
                raise ConfigError(f"{self.kind} needs a positive group count")
        else:
            raise ConfigError(f"unknown FFN strategy {self.kind!r}")

    @staticmethod
    def parse(text) -> "FFNStrategy":
        if isinstance(text, FFNStrategy):
            return text
        text = str(text).strip()
        if text in SIMPLE_KINDS:
            return FFNStrategy(text)
        match = _GROUPED_RE.match(text)
        if match:
            return FFNStrategy(match.group(1), int(match.group(2)))
        raise ConfigError(
            f"cannot parse FFN strategy {text!r}; expected one of "
            f"{SIMPLE_KINDS + tuple(k + '(M)' for k in GROUPED_KINDS)}"
        )

    def __str__(self):
        if self.m is None:
            return self.kind
        return f"{self.kind}({self.m})"

    @property
    def is_shared(self) -> bool:
        """True when at least two layers can map to the same physical FFN."""
        return self.kind in ("SharedAll",) + GROUPED_KINDS


def resolve_ffn_assignment(strategy, n_layers: int) -> list[int]:
    """Map each of n_layers layers (0-based) to a physical FFN index.

    Sequence(M) splits the stack into M contiguous blocks, Cycle(M) rotates
    through the M FFNs, CycleRev(M) walks them forward then backward (a
    palindrome), which pins M to n_layers // 2 with n_layers even.
    """
    strategy = FFNStrategy.parse(strategy)
    if n_layers < 0:
        raise ConfigError(f"negative layer count {n_layers}")
    if strategy.kind == "NoOp":
        return []
    if strategy.kind == "Individual":
        return list(range(n_layers))
    if strategy.kind == "SharedAll":
        return [0] * n_layers
    m = strategy.m
    if strategy.kind in ("Sequence", "Cycle"):
        if n_layers % m != 0:
            raise ConfigError(f"{strategy} needs group count dividing {n_layers} layers")
        if strategy.kind == "Sequence":
            span = n_layers // m
            return [i // span for i in range(n_layers)]
        return [i % m for i in range(n_layers)]
    # CycleRev
    if n_layers % 2 != 0 or m != n_layers // 2:
        raise ConfigError(
            f"CycleRev({m}) only defined for an even stack with group count "
            f"n_layers/2, got {n_layers} layers"
        )
    forward = list(range(m))
    return forward + forward[::-1]
