"""Model configuration, the named experiment presets, and the two rules each
setting is checked by wherever it is read: its type (`typed`) and `MINIMUMS`."""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field

from .errors import ConfigError
from .sharing import FFNStrategy, resolve_ffn_assignment

ARCHITECTURES = ("encoder-decoder", "decoder-only")
ATTN_KINDS = ("Individual", "SharedAll")

# The least value of each integer setting, under the name it has wherever it occurs: a
# ModelConfig field, a run-file key or an argument. A vocabulary holds the 4 reserved ids
# and one content id; only a shared FFN may be 0 wide, which makes it NoOp; a sample std
# of timed runs takes 2.
MINIMUMS = {"n_enc": 0, "n_dec": 1, "d_model": 1, "d_ff": 1, "heads": 1, "vocab_size": 5,
            "max_len": 1, "d_ff_shared": 0, "d_ff_enc": 1, "d_ff_dec": 1, "seed": 0,
            "steps": 0, "batch_size": 1, "warmup_steps": 1, "count": 1, "beam": 1, "limit": 1,
            "runs": 2, "k": 1}


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
class SharingSpec:
    """Per-side FFN strategies plus attention sharing switches, checked when made."""

    enc_ffn: FFNStrategy = FFNStrategy("Individual")
    dec_ffn: FFNStrategy = FFNStrategy("Individual")
    tie_enc_dec_ffn: bool = False
    enc_self_attn: str = "Individual"
    dec_self_attn: str = "Individual"
    dec_cross_attn: str = "Individual"

    def __post_init__(self):
        for kind_name in ("enc_self_attn", "dec_self_attn", "dec_cross_attn"):
            if getattr(self, kind_name) not in ATTN_KINDS:
                raise ConfigError(f"{kind_name} must be one of {ATTN_KINDS}")
        if typed(bool, self.tie_enc_dec_ffn, "tie_enc_dec_ffn"):
            if self.enc_ffn.kind != "SharedAll" or self.dec_ffn.kind != "SharedAll":
                raise ConfigError("tie_enc_dec_ffn requires SharedAll on both sides")

    @staticmethod
    def from_dict(d: dict) -> "SharingSpec":
        d = dict(check_keys("sharing", d, _field_names(SharingSpec)))
        for side in ("enc_ffn", "dec_ffn"):
            if side in d:
                d[side] = FFNStrategy.parse(d[side])
        return SharingSpec(**d)

    def to_dict(self) -> dict:
        """The fields by name, each FFN strategy as its text."""
        return {name: getattr(self, name) for name in _field_names(self)} | {
            "enc_ffn": str(self.enc_ffn), "dec_ffn": str(self.dec_ffn)}


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
        """Check invariants, store numbers as `typed` returns them, make a 0 shared width NoOp."""
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
            noop = FFNStrategy("NoOp")
            sharing = dataclasses.replace(
                sharing,
                enc_ffn=noop if sharing.enc_ffn.is_shared else sharing.enc_ffn,
                dec_ffn=noop if sharing.dec_ffn.is_shared else sharing.dec_ffn,
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
        d = dict(check_keys("model", d, _field_names(ModelConfig)))
        if "sharing" in d and not isinstance(d["sharing"], SharingSpec):
            d["sharing"] = SharingSpec.from_dict(d["sharing"])
        return ModelConfig(**d)


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
    sharing = dataclasses.replace(
        config.sharing,
        enc_ffn=FFNStrategy.parse(enc),
        dec_ffn=FFNStrategy.parse(dec),
        tie_enc_dec_ffn=tie,
    )
    d_ff_shared = one_wide_dff(config) if name == "OneWideFFN" else config.d_ff_shared
    return dataclasses.replace(config, sharing=sharing, d_ff_shared=d_ff_shared)
