"""Model configuration: the sharing strategies and their layer assignment,
ModelConfig / SharingSpec, the named experiment presets, and the two rules each
setting is checked by wherever it is read: its type (`typed`) and `MINIMUMS`."""

from __future__ import annotations

import dataclasses
import numbers
import re
from dataclasses import dataclass, field

from .errors import ConfigError

ARCHITECTURES = ("encoder-decoder", "decoder-only")
ATTN_KINDS = ("Individual", "SharedAll")
SIMPLE_KINDS = ("Individual", "SharedAll", "NoOp")
GROUPED_KINDS = ("Sequence", "Cycle", "CycleRev")

_GROUPED_RE = re.compile(r"^(Sequence|Cycle|CycleRev)\((\d+)\)$")

# The least value of each integer setting, under the name it has wherever it occurs: a
# ModelConfig field, a run-file key, an argument or a grouped strategy's group count m. A
# vocabulary holds the 4 reserved ids and one content id; only a shared FFN may be 0 wide,
# which makes it NoOp; a sample std of timed runs takes 2.
MINIMUMS = {"n_enc": 0, "n_dec": 1, "d_model": 1, "d_ff": 1, "heads": 1, "vocab_size": 5,
            "max_len": 1, "d_ff_shared": 0, "d_ff_enc": 1, "d_ff_dec": 1, "seed": 0,
            "steps": 0, "batch_size": 1, "warmup_steps": 1, "count": 1, "beam": 1, "limit": 1,
            "runs": 2, "k": 1, "m": 1}


def typed(kind, value, name: str, what: str | None = None):
    """`value` as a `kind` (int, float, str, bool or tuple), or a ConfigError
    calling it `what` (default `name`). A number is no bool and comes back as
    a Python int (an Integral, at least `MINIMUMS[name]`) or float (a Real);
    a tuple is a pair of ints."""
    what = what or name
    if kind is tuple and isinstance(value, (list, tuple)) and len(value) == 2:
        return tuple(typed(int, v, name, what) for v in value)
    if kind in (str, bool) and isinstance(value, kind):
        return value
    if kind in (int, float) and not isinstance(value, bool) and isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        value = kind(value)
        if value < MINIMUMS.get(name, value):
            raise ConfigError(f"{what} must not be negative, got {value}" if MINIMUMS[name] == 0
                              else f"{what} must be at least {MINIMUMS[name]}, got {value}")
        return value
    raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}")


def check_keys(what: str, d, allowed) -> dict:
    """`d`, which must be a mapping with no key outside `allowed`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a mapping, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}; allowed: {sorted(allowed)}")
    return d


def _field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


@dataclass(frozen=True)
class FFNStrategy:
    """One stack's sharing rule; m is the group count for grouped kinds."""

    kind: str
    m: int | None = None

    def __post_init__(self):
        if self.kind in SIMPLE_KINDS:
            if self.m is not None:
                raise ConfigError(f"{self.kind} takes no group count")
        elif self.kind in GROUPED_KINDS:
            m = typed(int, self.m, "m", f"{self.kind}'s group count")
            object.__setattr__(self, "m", m)  # the dataclass is frozen
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
    """Map each of n_layers layers (0-based) to a physical block index.

    Sequence(M) splits the stack into M contiguous blocks, Cycle(M) rotates
    through the M blocks, CycleRev(M) walks them forward then backward (a
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


STRATEGY_FIELDS = ("enc_ffn", "dec_ffn", "enc_self_attn", "dec_self_attn", "dec_cross_attn")


@dataclass(frozen=True)
class SharingSpec:
    """Per-stack FFN and attention strategies, each an FFNStrategy or its
    text, plus the tie switch; parsed and checked when made. Attention takes
    the kinds in ATTN_KINDS."""

    enc_ffn: FFNStrategy = FFNStrategy("Individual")
    dec_ffn: FFNStrategy = FFNStrategy("Individual")
    tie_enc_dec_ffn: bool = False
    enc_self_attn: FFNStrategy = FFNStrategy("Individual")
    dec_self_attn: FFNStrategy = FFNStrategy("Individual")
    dec_cross_attn: FFNStrategy = FFNStrategy("Individual")

    def __post_init__(self):
        for name in STRATEGY_FIELDS:
            strategy = FFNStrategy.parse(getattr(self, name))
            if name.endswith("_attn") and strategy.kind not in ATTN_KINDS:
                raise ConfigError(f"{name} must be one of {ATTN_KINDS}, got {strategy}")
            object.__setattr__(self, name, strategy)  # the dataclass is frozen
        if typed(bool, self.tie_enc_dec_ffn, "tie_enc_dec_ffn"):
            if self.enc_ffn.kind != "SharedAll" or self.dec_ffn.kind != "SharedAll":
                raise ConfigError("tie_enc_dec_ffn requires SharedAll on both sides")

    @staticmethod
    def from_dict(d: dict) -> "SharingSpec":
        return SharingSpec(**check_keys("sharing", d, _field_names(SharingSpec)))

    def to_dict(self) -> dict:
        """The fields by name, each strategy as its text."""
        return {name: getattr(self, name) for name in _field_names(self)} | {
            name: str(getattr(self, name)) for name in STRATEGY_FIELDS}


@dataclass(frozen=True)
class ModelConfig:
    """Shape and sharing description of one model, checked and normalised
    whenever one is made (`dataclasses.replace` included).

    d_ff is the default FFN width. Layers governed by a shared strategy use
    d_ff_shared instead (None means same as d_ff); Individual layers on one
    side can be rewidthed through d_ff_enc / d_ff_dec, which exists so width
    sweeps can touch a single side.
    """

    n_enc: int = 6
    n_dec: int = 6
    d_model: int = 512
    d_ff: int = 2048
    heads: int = 8
    vocab_size: int = 32000
    max_len: int = 512
    dropout: float = 0.1
    architecture: str = "encoder-decoder"
    sharing: SharingSpec = field(default_factory=SharingSpec)
    d_ff_shared: int | None = None
    d_ff_enc: int | None = None
    d_ff_dec: int | None = None

    def __post_init__(self):
        """Check invariants, store numbers as `typed` returns them and a sharing
        mapping as its SharingSpec, make a 0 shared width NoOp."""
        if not isinstance(self.sharing, SharingSpec):
            object.__setattr__(self, "sharing", SharingSpec.from_dict(self.sharing))
        for name in ("n_enc", "n_dec", "d_model", "d_ff", "heads", "vocab_size", "max_len",
                     "d_ff_shared", "d_ff_enc", "d_ff_dec", "dropout"):
            v = getattr(self, name)
            if v is not None or not name.startswith("d_ff_"):  # the dataclass is frozen
                object.__setattr__(self, name, typed(float if name == "dropout" else int, v, name))
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"architecture must be one of {ARCHITECTURES}")
        if (self.n_enc == 0) != (self.architecture == "decoder-only"):
            need = "== 0" if self.n_enc else ">= 1"
            raise ConfigError(f"{self.architecture} models need n_enc {need}")
        if self.architecture == "decoder-only" and self.sharing.tie_enc_dec_ffn:
            raise ConfigError("tie_enc_dec_ffn needs an encoder")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        # A shared width of exactly 0 means the shared FFN degenerates to NoOp.
        sharing = self.sharing
        if self.d_ff_shared == 0 and (sharing.enc_ffn.is_shared or sharing.dec_ffn.is_shared):
            sharing = dataclasses.replace(
                sharing,
                enc_ffn="NoOp" if sharing.enc_ffn.is_shared else sharing.enc_ffn,
                dec_ffn="NoOp" if sharing.dec_ffn.is_shared else sharing.dec_ffn,
                tie_enc_dec_ffn=False,
            )
            object.__setattr__(self, "sharing", sharing)  # the dataclass is frozen
        # Surface group-count errors now rather than at build time.
        if self.n_enc > 0:
            resolve_ffn_assignment(sharing.enc_ffn, self.n_enc)
        resolve_ffn_assignment(sharing.dec_ffn, self.n_dec)

    def ffn_width(self, side: str) -> int:
        """Effective FFN width for the given side ('enc' or 'dec')."""
        if side not in ("enc", "dec"):
            raise ConfigError(f"side must be 'enc' or 'dec', got {side!r}")
        strategy = self.sharing.enc_ffn if side == "enc" else self.sharing.dec_ffn
        if strategy.kind == "NoOp":
            return 0
        if strategy.is_shared:
            return self.d_ff if self.d_ff_shared is None else self.d_ff_shared
        override = self.d_ff_enc if side == "enc" else self.d_ff_dec
        return self.d_ff if override is None else override

    def to_dict(self) -> dict:
        return dataclasses.asdict(self) | {"sharing": self.sharing.to_dict()}

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        return ModelConfig(**check_keys("model", d, _field_names(ModelConfig)))


def transformer_big(vocab_size: int = 32000) -> ModelConfig:
    return ModelConfig(n_enc=6, n_dec=6, d_model=1024, d_ff=4096, heads=16, vocab_size=vocab_size)


def transformer_base(vocab_size: int = 32000) -> ModelConfig:
    return ModelConfig(n_enc=6, n_dec=6, d_model=512, d_ff=2048, heads=8, vocab_size=vocab_size)


def deep_enc_shallow_dec(vocab_size: int = 32000) -> ModelConfig:
    return ModelConfig(n_enc=12, n_dec=2, d_model=1024, d_ff=4096, heads=16, vocab_size=vocab_size)


def decoder_only_big(vocab_size: int = 32000) -> ModelConfig:
    return ModelConfig(
        n_enc=0, n_dec=12, d_model=1024, d_ff=4096, heads=16,
        vocab_size=vocab_size, architecture="decoder-only",
    )


# Named sharing presets. Each maps to (enc strategy, dec strategy, tie flag);
# OneWideFFN additionally sets the shared width to `one_wide_dff`.
PRESETS = {
    "baseline": ("Individual", "Individual", False),
    "SharedEnc": ("SharedAll", "Individual", False),
    "SharedDec": ("Individual", "SharedAll", False),
    "SharedEncSharedDec": ("SharedAll", "SharedAll", False),
    "SharedEncDec": ("SharedAll", "SharedAll", True),
    "NoEnc": ("NoOp", "Individual", False),
    "NoDec": ("Individual", "NoOp", False),
    "NoEncNoDec": ("NoOp", "NoOp", False),
    "SharedEncNoDec": ("SharedAll", "NoOp", False),
    "NoEncSharedDec": ("NoOp", "SharedAll", False),
    "OneWideFFN": ("SharedAll", "NoOp", False),
}

# Presets that only touch the decoder side (Individual encoder FFNs, untied)
# are the ones a decoder-only model can express.
DECODER_ONLY_PRESETS = tuple(name for name, (enc, _, tie) in PRESETS.items()
                             if enc == "Individual" and not tie)


def one_wide_dff(config: ModelConfig) -> int:
    """Width that spends one side's whole shared-FFN budget in a single FFN:
    (n_enc + n_dec) * d_ff."""
    if config.architecture != "encoder-decoder":
        raise ConfigError("the widened single-FFN width is defined for encoder-decoder models")
    return (config.n_enc + config.n_dec) * config.d_ff


def apply_preset(config: ModelConfig, name: str) -> ModelConfig:
    """Return a copy of `config` with the named sharing preset applied."""
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; valid: {sorted(PRESETS)}")
    if config.architecture == "decoder-only" and name not in DECODER_ONLY_PRESETS:
        raise ConfigError(
            f"preset {name!r} touches the encoder side; decoder-only models "
            f"support {DECODER_ONLY_PRESETS}"
        )
    enc, dec, tie = PRESETS[name]
    sharing = dataclasses.replace(config.sharing, enc_ffn=enc, dec_ffn=dec, tie_enc_dec_ffn=tie)
    d_ff_shared = one_wide_dff(config) if name == "OneWideFFN" else config.d_ff_shared
    return dataclasses.replace(config, sharing=sharing, d_ff_shared=d_ff_shared)
