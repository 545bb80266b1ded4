import dataclasses

import pytest

from wideffn.config import (
    ModelConfig,
    PRESETS,
    SharingSpec,
    apply_preset,
    decoder_only_big,
    transformer_base,
    transformer_big,
)
from wideffn.errors import ConfigError
from wideffn.sharing import FFNStrategy


def test_validation_catches_bad_shapes():
    with pytest.raises(ConfigError):
        ModelConfig(d_model=10, heads=3)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=4)
    with pytest.raises(ConfigError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(n_enc=0)  # encoder-decoder needs an encoder
    with pytest.raises(ConfigError):
        ModelConfig(architecture="decoder-only", n_enc=2)
    with pytest.raises(ConfigError):
        ModelConfig(d_ff=0)


def test_tie_requires_shared_all_on_both_sides():
    with pytest.raises(ConfigError):
        sharing = SharingSpec(enc_ffn=FFNStrategy("SharedAll"), tie_enc_dec_ffn=True)
        ModelConfig(sharing=sharing)
    ok = SharingSpec(enc_ffn=FFNStrategy("SharedAll"), dec_ffn=FFNStrategy("SharedAll"),
                     tie_enc_dec_ffn=True)
    ModelConfig(sharing=ok)


def test_tie_flag_must_be_a_bool():
    both = {"enc_ffn": "SharedAll", "dec_ffn": "SharedAll"}
    for flag in ("false", 1, None):
        with pytest.raises(ConfigError):
            SharingSpec.from_dict({**both, "tie_enc_dec_ffn": flag})
        with pytest.raises(ConfigError):
            sharing = SharingSpec(enc_ffn=FFNStrategy("SharedAll"),
                                  dec_ffn=FFNStrategy("SharedAll"), tie_enc_dec_ffn=flag)
            ModelConfig(sharing=sharing)
    assert SharingSpec.from_dict({**both, "tie_enc_dec_ffn": False}).tie_enc_dec_ffn is False


def test_zero_shared_width_normalizes_to_noop():
    sharing = SharingSpec(enc_ffn=FFNStrategy("SharedAll"))
    cfg = ModelConfig(sharing=sharing, d_ff_shared=0)
    assert cfg.sharing.enc_ffn.kind == "NoOp"
    assert cfg.sharing.dec_ffn.kind == "Individual"  # untouched
    assert cfg.ffn_width("enc") == 0
    assert cfg.ffn_width("dec") == cfg.d_ff


def test_a_config_is_checked_and_normalised_when_made():
    cfg = ModelConfig(d_model=16, heads=2)
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, heads=3)
    shared_cfg = apply_preset(cfg, "SharedEncDec")
    noop = dataclasses.replace(shared_cfg, d_ff_shared=0)
    assert (noop.sharing.enc_ffn.kind, noop.sharing.dec_ffn.kind) == ("NoOp", "NoOp")
    assert noop.sharing.tie_enc_dec_ffn is False
    with pytest.raises(ConfigError):
        SharingSpec(enc_self_attn="Bogus")


def test_ffn_width_resolution():
    cfg = ModelConfig(d_ff=64, d_ff_enc=128)
    assert cfg.ffn_width("enc") == 128
    assert cfg.ffn_width("dec") == 64
    shared = ModelConfig(
        d_ff=64, d_ff_shared=256,
        sharing=SharingSpec(enc_ffn=FFNStrategy("SharedAll")),
    )
    assert shared.ffn_width("enc") == 256
    default_shared = ModelConfig(
        d_ff=64, sharing=SharingSpec(enc_ffn=FFNStrategy("SharedAll"))
    )
    assert default_shared.ffn_width("enc") == 64


# The nomenclature table: preset -> (encoder FFNs, decoder FFNs, tied).
GOLDEN = {
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


def test_preset_expansion_golden_table():
    assert set(PRESETS) == set(GOLDEN)
    base = transformer_base()
    for name, (enc, dec, tie) in GOLDEN.items():
        cfg = apply_preset(base, name)
        assert cfg.sharing.enc_ffn.kind == enc, name
        assert cfg.sharing.dec_ffn.kind == dec, name
        assert cfg.sharing.tie_enc_dec_ffn == tie, name


def test_one_wide_preset_sets_combined_width():
    big = apply_preset(transformer_big(), "OneWideFFN")
    assert big.d_ff_shared == (6 + 6) * 4096
    assert big.ffn_width("enc") == 49152
    assert big.sharing.dec_ffn.kind == "NoOp"


def test_unknown_preset_lists_valid_names():
    with pytest.raises(ConfigError) as e:
        apply_preset(transformer_base(), "ShardEnc")
    assert "baseline" in str(e.value)


def test_decoder_only_preset_restrictions():
    cfg = decoder_only_big()
    shared = apply_preset(cfg, "SharedDec")
    assert shared.sharing.dec_ffn.kind == "SharedAll"
    nodec = apply_preset(cfg, "NoDec")
    assert nodec.sharing.dec_ffn.kind == "NoOp"
    with pytest.raises(ConfigError):
        apply_preset(cfg, "SharedEnc")


def test_dict_round_trip_and_unknown_keys():
    cfg = apply_preset(transformer_base(), "SharedEncDec")
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"d_modle": 64})
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"sharing": {"enc_fnn": "SharedAll"}})


def test_canonical_shapes():
    assert dataclasses.astuple(transformer_big())[:5] != ()
    big = transformer_big()
    assert (big.n_enc, big.n_dec, big.d_model, big.d_ff, big.heads) == (6, 6, 1024, 4096, 16)
    base = transformer_base()
    assert (base.d_model, base.d_ff, base.heads) == (512, 2048, 8)
