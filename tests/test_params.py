import dataclasses

import pytest

import wideffn as w
from wideffn.config import PRESETS, FFNStrategy, SharingSpec, one_wide_dff, transformer_big
from wideffn.counting import BREAKDOWN_KEYS, baseline_of
from wideffn.errors import ConfigError

from conftest import tiny_config


def percent_of_baseline(config) -> float:
    """Parameter count as a percentage of the unshared same-shape model."""
    return 100.0 * w.count_params(config)[0] / w.count_params(baseline_of(config))[0]


def shared_side_savings(n_layers: int, d_model: int, width: int) -> dict[str, int]:
    """Parameters removed when one side's N individual FFNs collapse to one.

    'matrices' is the widely quoted (N-1)(2*d*w + w + d) term split into its
    matrix and bias parts; collapsing also removes N-1 layer-norm pairs, so
    the exact total includes a (N-1)*2*d term.
    """
    folds = n_layers - 1
    matrices = folds * 2 * d_model * width
    biases = folds * (width + d_model)
    layer_norms = folds * 2 * d_model
    return {
        "matrices": matrices,
        "biases": biases,
        "layer_norms": layer_norms,
        "total": matrices + biases + layer_norms,
    }


def big(vocab=50_000, **over):
    cfg = transformer_big(vocab_size=vocab)
    return dataclasses.replace(cfg, **over) if over else cfg


def test_breakdown_keys_are_stable():
    _, breakdown = w.count_params(tiny_config())
    assert tuple(breakdown) == BREAKDOWN_KEYS


def test_baseline_breakdown_by_hand():
    # d=4, ff=8, 1+1 layers, vocab 8: small enough to count by hand
    cfg = tiny_config(n_enc=1, n_dec=1, d_model=4, d_ff=8, heads=1, vocab_size=8)
    total, b = w.count_params(cfg)
    assert b["embedding"] == 8 * 4
    assert b["enc_attn"] == 4 * (4 * 4)          # wq wk wv wo
    assert b["enc_ffn"] == 2 * (4 * 8)           # w1 w2
    assert b["dec_self_attn"] == 4 * 16
    assert b["dec_cross_attn"] == 4 * 16
    assert b["dec_ffn"] == 2 * 32
    # ln pairs: enc(sa+ffn) + dec(sa+ca+ffn) = 5 blocks, 2*d each
    assert b["layer_norms"] == 5 * 2 * 4
    # biases: 3 attn blocks at 4d each, 2 ffn blocks at (ff + d) each
    assert b["biases"] == 3 * 4 * 4 + 2 * (8 + 4)
    assert total == sum(b.values())


def test_shared_and_dropped_breakdowns_by_hand():
    # d=4, ff=8, vocab 8: an attention block holds 4*16 matrix entries, 4*4
    # biases and 2*4 layer-norm entries; an FFN block 2*32, 8+4 and 2*4.
    def cfg(preset=None, **over):
        c = tiny_config(d_model=4, d_ff=8, heads=1, vocab_size=8, **over)
        return w.apply_preset(c, preset) if preset else c

    cycle = SharingSpec(enc_ffn=FFNStrategy.parse("Cycle(2)"),
                        dec_ffn=FFNStrategy.parse("Cycle(2)"))
    cases = {
        # one FFN tied across both sides, counted once, under the encoder
        "SharedEncDec": (cfg("SharedEncDec"), dict(
            enc_attn=2 * 64, enc_ffn=64, dec_self_attn=2 * 64, dec_cross_attn=2 * 64,
            dec_ffn=0, layer_norms=(6 + 1) * 8, biases=6 * 16 + 12)),
        "NoDec": (cfg("NoDec"), dict(
            enc_attn=2 * 64, enc_ffn=2 * 64, dec_self_attn=2 * 64, dec_cross_attn=2 * 64,
            dec_ffn=0, layer_norms=(6 + 2) * 8, biases=6 * 16 + 2 * 12)),
        # 4 layers per side cycling through 2 FFNs
        "Cycle(2)": (cfg(n_enc=4, n_dec=4, sharing=cycle), dict(
            enc_attn=4 * 64, enc_ffn=2 * 64, dec_self_attn=4 * 64, dec_cross_attn=4 * 64,
            dec_ffn=2 * 64, layer_norms=(12 + 4) * 8, biases=12 * 16 + 4 * 12)),
        "decoder-only SharedDec": (cfg("SharedDec", n_enc=0, architecture="decoder-only"), dict(
            enc_attn=0, enc_ffn=0, dec_self_attn=2 * 64, dec_cross_attn=0,
            dec_ffn=64, layer_norms=(2 + 1) * 8, biases=2 * 16 + 12)),
    }
    for label, (config, expect) in cases.items():
        total, b = w.count_params(config)
        assert b == {"embedding": 8 * 4, **expect}, label
        assert total == sum(b.values()), label


def test_percent_of_baseline_is_100_for_baseline():
    cfg = big()
    assert percent_of_baseline(cfg) == pytest.approx(100.0)
    assert baseline_of(cfg).sharing == SharingSpec()


def test_sharing_reduces_and_widening_increases():
    cfg = big()
    base_total, _ = w.count_params(cfg)
    shared = w.apply_preset(cfg, "SharedEncDec")
    assert w.count_params(shared)[0] < base_total
    wide = w.apply_preset(cfg, "OneWideFFN")
    assert w.count_params(wide)[0] < base_total
    assert w.count_params(wide)[0] > w.count_params(shared)[0]


def test_one_wide_dff_values():
    assert one_wide_dff(big()) == 12 * 4096
    assert one_wide_dff(big(n_enc=12, n_dec=2)) == 14 * 4096
    cfg = tiny_config(n_enc=0, architecture="decoder-only")
    with pytest.raises(ConfigError):
        one_wide_dff(cfg)


def test_shared_side_savings_closed_form_matches_count_delta():
    cfg = big()
    shared = w.apply_preset(cfg, "SharedEnc")
    delta = w.count_params(cfg)[0] - w.count_params(shared)[0]
    s = shared_side_savings(cfg.n_enc, cfg.d_model, cfg.d_ff)
    assert s["total"] == delta
    assert s["matrices"] == (cfg.n_enc - 1) * 2 * cfg.d_model * cfg.d_ff
    assert s["total"] == s["matrices"] + s["biases"] + s["layer_norms"]


def test_count_is_analytic_not_materialized():
    import time
    cfg = big(vocab=250_000, d_model=4096, d_ff=16384)
    t0 = time.perf_counter()
    total, _ = w.count_params(cfg)
    assert time.perf_counter() - t0 < 0.05
    assert total > 2_000_000_000


def test_tied_ffn_attributed_to_encoder_bucket():
    cfg = w.apply_preset(tiny_config(), "SharedEncDec")
    _, b = w.count_params(cfg)
    assert b["enc_ffn"] > 0
    assert b["dec_ffn"] == 0


def test_noop_side_has_no_ffn_params():
    cfg = w.apply_preset(tiny_config(), "NoEncNoDec")
    _, b = w.count_params(cfg)
    assert b["enc_ffn"] == 0 and b["dec_ffn"] == 0
    m = w.build_model(cfg, seed=0)
    assert m.store.flat.size == sum(b.values())


def test_grouped_strategy_counts():
    cfg = tiny_config(
        n_enc=6, n_dec=6,
        sharing=SharingSpec(enc_ffn=FFNStrategy.parse("Cycle(3)")),
    )
    _, b = w.count_params(cfg)
    ind = w.count_params(tiny_config(n_enc=6, n_dec=6))[1]
    assert b["enc_ffn"] == ind["enc_ffn"] // 2  # 3 physical instead of 6


def test_widened_shared_ffn_width_enters_count():
    narrow = w.apply_preset(big(), "SharedEncNoDec")
    wide = dataclasses.replace(narrow, d_ff_shared=4096 * 4)
    assert w.count_params(wide)[0] > w.count_params(narrow)[0]


def test_decoder_only_buckets():
    cfg = tiny_config(n_enc=0, n_dec=4, architecture="decoder-only")
    _, b = w.count_params(cfg)
    assert b["enc_attn"] == 0 and b["enc_ffn"] == 0 and b["dec_cross_attn"] == 0
    assert b["dec_self_attn"] > 0 and b["dec_ffn"] > 0


def test_census_equals_count_across_preset_grid():
    for name in PRESETS:
        cfg = w.apply_preset(tiny_config(n_enc=2, n_dec=2), name)
        m = w.build_model(cfg, seed=0)
        assert m.store.flat.size == w.count_params(cfg)[0], name
