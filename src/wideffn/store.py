"""Parameter storage with an explicit physical/logical split.

Physical tensors are the real storage, keyed by canonical name in creation
order. Logical sites (one per place a tensor is used in the network) are
aliases onto canonical names, so a shared tensor is stored and counted
exactly once no matter how many layers use it.
"""

from __future__ import annotations

from .errors import ConfigError
from .tensor import Tensor


class ParamStore:
    def __init__(self):
        self.physical: dict[str, Tensor] = {}
        self.aliases: dict[str, str] = {}

    def add(self, canonical: str, tensor: Tensor) -> Tensor:
        if canonical in self.physical:
            raise ConfigError(f"duplicate physical tensor {canonical!r}")
        self.physical[canonical] = tensor
        return tensor

    def bind(self, logical: str, canonical: str):
        """Register a usage site for an existing physical tensor."""
        if canonical not in self.physical:
            raise ConfigError(f"alias target {canonical!r} does not exist")
        if logical in self.aliases:
            raise ConfigError(f"duplicate logical site {logical!r}")
        self.aliases[logical] = canonical

    def resolve(self, name: str) -> Tensor:
        """Look up by logical site or canonical name."""
        if name in self.aliases:
            return self.physical[self.aliases[name]]
        if name in self.physical:
            return self.physical[name]
        raise KeyError(name)

    def total_params(self) -> int:
        """Scalar count over physical tensors only; aliases add nothing."""
        return sum(t.data.size for t in self.physical.values())

    def zero_grad(self):
        for t in self.physical.values():
            t.zero_grad()
