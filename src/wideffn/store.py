"""Parameter storage: one flat float32 buffer with a physical/logical split.

A store is built whole from `param_layout`-style (name, shape) and (site,
canonical) lists. Physical tensors, keyed by canonical name, are views into
`flat` in that order, the checkpoint's payload order. Logical sites (one per
place a tensor is used in the network) are aliases onto canonical names, so
a shared tensor is stored and counted once however many layers use it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .tensor import Tensor


class ParamStore:
    def __init__(self, tensors, aliases=(), flat: np.ndarray | None = None):
        sizes = [math.prod(shape) for _, shape in tensors]
        self.flat = np.zeros(sum(sizes), dtype=np.float32) if flat is None else flat
        self.physical: dict[str, Tensor] = {}
        self.aliases: dict[str, str] = {}
        at = 0
        for (canonical, shape), size in zip(tensors, sizes):
            if canonical in self.physical:
                raise ConfigError(f"duplicate physical tensor {canonical!r}")
            self.physical[canonical] = Tensor(self.flat[at : at + size].reshape(shape))
            at += size
        for logical, canonical in aliases:
            if canonical not in self.physical:
                raise ConfigError(f"alias target {canonical!r} does not exist")
            if logical in self.aliases:
                raise ConfigError(f"duplicate logical site {logical!r}")
            self.aliases[logical] = canonical

    def resolve(self, name: str) -> Tensor:
        """Look up by logical site or canonical name."""
        return self.physical[self.aliases.get(name, name)]

    def zero_grad(self):
        for t in self.physical.values():
            t.zero_grad()
