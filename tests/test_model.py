import hashlib

import numpy as np
import pytest

import wideffn as w
from wideffn import transformer
from wideffn.bench import decode_beam, decode_greedy
from wideffn.checkpoint import checkpoint_bytes
from wideffn.config import DECODER_ONLY_PRESETS, PRESETS, SharingSpec
from wideffn.errors import ConfigError, DataError
from wideffn.sharing import FFNStrategy
from wideffn.similarity import collect_activations
from wideffn.tensor import ComputeTape, Tensor, cross_entropy, grad_check, recording
from wideffn.training import token_accuracy
from wideffn.transformer import (
    ATTN_PARTS,
    EVAL_CHUNK,
    AttentionBlock,
    DecodeRows,
    attention_forward,
    attention_mask,
    decoder_forward,
    encoder_forward,
    ffn_forward,
    sinusoidal_positions,
)
from wideffn.vocab import BOS, EOS, Corpus, generate_toy_task

from conftest import tiny_config


def test_causal_mask_shape_and_content():
    T, F = True, False
    assert attention_mask([3], [0], 3, 3, heads=1)[0].tolist() == [
        [T, F, F],
        [T, T, F],
        [T, T, T],
    ]
    # a sequence of 2 padded to 3 also hides the pad key from the pad query
    assert attention_mask([2], [0], 3, 3, heads=1)[0].tolist() == [
        [T, F, F],
        [T, T, F],
        [T, T, F],
    ]


def test_prefix_mask_bidirectional_prefix_causal_suffix():
    T, F = True, False
    assert attention_mask([4], [2], 4, 4, heads=1)[0].tolist() == [
        [T, T, F, F],
        [T, T, F, F],
        [T, T, T, F],
        [T, T, T, T],
    ]
    with pytest.raises(ConfigError):
        attention_mask([3], [-1], 3, 3, heads=1)
    m = w.build_model(tiny_config(n_enc=0, architecture="decoder-only"), seed=0)
    with pytest.raises(ConfigError):
        decoder_forward(m, None, [4, 5, 6], prefix_len=-1)


def test_attention_mask_covers_every_visibility_rule():
    T, F = True, False
    # encoder and cross attention: prefix = key length, so pad keys only are hidden
    enc = attention_mask([2, 3], [2, 3], 4, 3, heads=1)
    assert enc[0].tolist() == [[T, T, F]] * 4
    assert enc[1].all()
    # decode steps at an offset are the last rows of the full prefix-LM mask
    full = attention_mask([4], [2], 4, 4, heads=1)[0]
    for t_q in (1, 2):
        step = attention_mask([4], [2], t_q, 4, heads=1, offset=4 - t_q)
        assert np.array_equal(step[0], full[4 - t_q:]), t_q
    # each sequence's mask repeats for its heads, sequence-major
    stack = attention_mask([2, 3], [0, 3], 3, 3, heads=2)
    assert stack.shape == (4, 3, 3)
    assert np.array_equal(stack[0], stack[1]) and np.array_equal(stack[2], stack[3])
    assert not np.array_equal(stack[1], stack[2])


def test_sinusoidal_positions_structure():
    pe = sinusoidal_positions(10, 8)
    assert pe.shape == (10, 8)
    assert pe.dtype == np.float32
    assert np.allclose(pe[0, 0::2], 0.0)  # sin(0)
    assert np.allclose(pe[0, 1::2], 1.0)  # cos(0)
    assert np.allclose(pe[3, 0], np.sin(3.0), atol=1e-6)
    table = sinusoidal_positions(64, 8)  # what _embed slices
    assert table[:10].tobytes() == pe.tobytes()
    assert not table.flags.writeable


def test_build_is_deterministic_per_seed():
    cfg = tiny_config()
    m1 = w.build_model(cfg, seed=5)
    m2 = w.build_model(cfg, seed=5)
    m3 = w.build_model(cfg, seed=6)
    for name, t in m1.store.physical.items():
        assert np.array_equal(t.data, m2.store.physical[name].data)
    assert any(
        not np.array_equal(t.data, m3.store.physical[name].data)
        for name, t in m1.store.physical.items()
    )


def test_embedding_used_three_ways():
    m = w.build_model(tiny_config(), seed=0)
    assert m.store.resolve("src_embed") is m.store.resolve("tgt_embed")
    assert m.store.resolve("out_proj") is m.store.resolve("embedding")


def test_every_logical_site_is_registered():
    cfg = tiny_config()
    m = w.build_model(cfg, seed=0)
    sites = set(m.store.aliases)
    for i in range(cfg.n_enc):
        assert f"enc.layer{i}.sa.wq" in sites
        assert f"enc.layer{i}.ffn.w1" in sites
    for i in range(cfg.n_dec):
        assert f"dec.layer{i}.sa.wq" in sites
        assert f"dec.layer{i}.ca.wk" in sites
        assert f"dec.layer{i}.ffn.w2" in sites


def test_shared_ffn_layers_hold_the_same_tensor():
    cfg = w.apply_preset(tiny_config(), "SharedEnc")
    m = w.build_model(cfg, seed=0)
    assert m.store.resolve("enc.layer0.ffn.w1") is m.store.resolve("enc.layer1.ffn.w1")
    assert m.enc_ffn[0] is m.enc_ffn[1]
    # decoder side stays individual
    assert m.store.resolve("dec.layer0.ffn.w1") is not m.store.resolve("dec.layer1.ffn.w1")


def test_tied_enc_dec_ffn_spans_both_sides():
    cfg = w.apply_preset(tiny_config(), "SharedEncDec")
    m = w.build_model(cfg, seed=0)
    assert m.store.resolve("enc.layer0.ffn.w1") is m.store.resolve("dec.layer1.ffn.w1")
    assert "encdec.ffn0.w1" in m.store.physical


def test_noop_ffn_is_exact_identity():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 16)).astype(np.float32))
    assert ffn_forward(x, None) is x
    cfg = w.apply_preset(tiny_config(), "NoEnc")
    m = w.build_model(cfg, seed=0)
    out, taps = encoder_forward(m, [4, 5, 6])
    assert set(taps) == {"0.sa", "1.sa"}
    assert out is taps["1.sa"]  # layer output IS the attention output


def test_encoder_tap_names_follow_convention():
    m = w.build_model(tiny_config(), seed=0)
    _, taps = encoder_forward(m, [4, 5, 6])
    assert set(taps) == {"0.sa", "0.ffn", "1.sa", "1.ffn"}
    enc_out, _ = encoder_forward(m, [4, 5, 6])
    _, dtaps = decoder_forward(m, enc_out, [1, 4, 5])
    assert set(dtaps) == {"0.sa", "0.ca", "0.ffn", "1.sa", "1.ca", "1.ffn"}


def test_decoder_only_has_no_cross_attention():
    cfg = tiny_config(n_enc=0, architecture="decoder-only")
    m = w.build_model(cfg, seed=0)
    logits, taps = decoder_forward(m, None, [4, 5, 2, 1, 6], prefix_len=3)
    assert logits.shape == (5, cfg.vocab_size)
    assert not any(name.endswith(".ca") for name in taps)
    with pytest.raises(ConfigError):
        encoder_forward(m, [4, 5])
    with pytest.raises(ConfigError):
        decoder_forward(m, Tensor(np.zeros((2, 16))), [4, 5])


def test_encoder_decoder_requires_encoder_output():
    m = w.build_model(tiny_config(), seed=0)
    with pytest.raises(ConfigError):
        decoder_forward(m, None, [1, 4])


def test_attention_masking_blocks_future_positions():
    m = w.build_model(tiny_config(), seed=0)
    # changing a future target token must not affect earlier logits
    enc_out, _ = encoder_forward(m, [4, 5])
    logits_a, _ = decoder_forward(m, enc_out, [1, 4, 5])
    logits_b, _ = decoder_forward(m, enc_out, [1, 4, 9])
    assert np.array_equal(logits_a.data[:2], logits_b.data[:2])
    assert not np.array_equal(logits_a.data[2], logits_b.data[2])


def test_prefix_mask_lets_prefix_see_itself_bidirectionally():
    cfg = tiny_config(n_enc=0, architecture="decoder-only")
    m = w.build_model(cfg, seed=0)
    # changing the last prefix token changes the FIRST prefix position's state
    a, _ = decoder_forward(m, None, [4, 5, 1, 6], prefix_len=2)
    b, _ = decoder_forward(m, None, [4, 9, 1, 6], prefix_len=2)
    assert not np.array_equal(a.data[0], b.data[0])


def test_fully_masked_row_stays_finite():
    m = w.build_model(tiny_config(), seed=0)
    x = Tensor(np.random.default_rng(1).standard_normal((3, 16)).astype(np.float32))
    keep = np.ones((3, 3), dtype=bool)
    keep[1, :] = False
    out = attention_forward(x, x, m.enc_attn[0], mask=keep, heads=2)
    assert np.isfinite(out.data).all()


def _random_attention_block(rng, d):
    """An attention block with every weight, bias and norm parameter random."""
    return AttentionBlock(**{
        name: Tensor(rng.uniform(-0.5, 0.5, size=(d, d) if name.startswith("w") else d))
        for name in ATTN_PARTS
    })


def _reference_attention(q_in, kv_in, block, keep, heads):
    """Multi-head attention one head at a time, in float64 numpy."""
    p = {name: getattr(block, name).data.astype(np.float64) for name in ATTN_PARTS}
    q = q_in @ p["wq"] + p["bq"]
    k = kv_in @ p["wk"] + p["bk"]
    v = kv_in @ p["wv"] + p["bv"]
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
        if keep is not None:
            scores = np.where(keep[h], scores, -1e9)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        outs.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
    y = q_in + np.concatenate(outs, axis=1) @ p["wo"] + p["bo"]
    y = (y - y.mean(axis=1, keepdims=True)) / np.sqrt(y.var(axis=1, keepdims=True) + 1e-5)
    return y * p["ln_gain"] + p["ln_bias"]


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("case", ["self", "causal", "prefix", "cross"])
def test_attention_matches_per_head_reference(heads, case):
    rng = np.random.default_rng(heads)
    d, t = 16, 5
    block = _random_attention_block(rng, d)
    q_in = rng.standard_normal((t, d)).astype(np.float32)
    kv_in = rng.standard_normal((3, d)).astype(np.float32) if case == "cross" else q_in
    prefix = {"causal": 0, "prefix": 2}.get(case)
    keep = None if prefix is None else attention_mask([t], [prefix], t, t, heads)
    q_t = Tensor(q_in)
    kv_t = Tensor(kv_in) if case == "cross" else q_t
    out = attention_forward(q_t, kv_t, block, mask=keep, heads=heads)
    expect = _reference_attention(q_in.astype(np.float64), kv_in.astype(np.float64),
                                  block, keep, heads)
    assert out.shape == (t, d)
    assert np.abs(out.data - expect).max() < 1e-6


def test_attention_passes_grad_check_with_four_heads():
    rng = np.random.default_rng(3)
    d, t = 16, 5
    block = _random_attention_block(rng, d)
    x = Tensor(rng.standard_normal((t, d)))
    keep = attention_mask([t], [2], t, t, heads=4)

    def f(params):
        out = attention_forward(params[0], params[0], block, mask=keep, heads=4)
        return cross_entropy(out, np.arange(t))

    params = [x] + [getattr(block, name) for name in ATTN_PARTS]
    assert grad_check(f, params, coords_per_tensor=3) < 1e-3


def test_forward_is_deterministic_in_eval_mode():
    m = w.build_model(tiny_config(dropout=0.1), seed=0)
    a, _ = encoder_forward(m, [4, 5, 6])
    b, _ = encoder_forward(m, [4, 5, 6])
    assert np.array_equal(a.data, b.data)


def test_dropout_changes_training_forward():
    m = w.build_model(tiny_config(dropout=0.3), seed=0)
    a, _ = encoder_forward(m, [4, 5, 6], rng=np.random.default_rng(0))
    b, _ = encoder_forward(m, [4, 5, 6], rng=np.random.default_rng(1))
    assert not np.array_equal(a.data, b.data)


def test_sequence_length_and_token_range_guards():
    m = w.build_model(tiny_config(max_len=4), seed=0)
    with pytest.raises(DataError):
        encoder_forward(m, [4, 5, 6, 7, 8])
    with pytest.raises(IndexError):
        encoder_forward(m, [4, 99])
    with pytest.raises(DataError):
        encoder_forward(m, [])


def test_gradients_flow_to_every_parameter():
    m = w.build_model(tiny_config(), seed=0)
    tape = ComputeTape()
    m.store.zero_grad()
    with recording(tape):
        loss, _ = m.loss_for_pair([([4, 5, 6], [6, 5, 4])])
    tape.backward(loss)
    for name, p in m.store.physical.items():
        assert p.grad is not None, name
        assert np.isfinite(p.grad).all(), name


def test_build_census_matches_count_for_every_preset():
    base = tiny_config(n_enc=6, n_dec=6)
    for name in PRESETS:
        cfg = w.apply_preset(base, name)
        m = w.build_model(cfg, seed=0)
        total, breakdown = w.count_params(cfg)
        assert m.store.total_params() == total == sum(breakdown.values()), name


def test_build_census_matches_count_for_grouped_strategies():
    for enc, dec in [("Sequence(2)", "Cycle(3)"), ("CycleRev(3)", "Sequence(6)"),
                     ("Cycle(2)", "CycleRev(3)")]:
        sharing = SharingSpec(enc_ffn=FFNStrategy.parse(enc), dec_ffn=FFNStrategy.parse(dec))
        cfg = tiny_config(n_enc=6, n_dec=6, sharing=sharing)
        m = w.build_model(cfg, seed=0)
        assert m.store.total_params() == w.count_params(cfg)[0], (enc, dec)


def test_build_census_matches_count_with_attention_sharing():
    sharing = SharingSpec(enc_self_attn="SharedAll", dec_cross_attn="SharedAll")
    cfg = tiny_config(sharing=sharing)
    m = w.build_model(cfg, seed=0)
    assert m.store.total_params() == w.count_params(cfg)[0]
    assert m.store.resolve("enc.layer0.sa.wq") is m.store.resolve("enc.layer1.sa.wq")
    assert m.store.resolve("dec.layer0.ca.wq") is m.store.resolve("dec.layer1.ca.wq")
    assert m.store.resolve("dec.layer0.sa.wq") is not m.store.resolve("dec.layer1.sa.wq")


def test_decoder_only_census_matches_count():
    for preset in ("baseline", "SharedDec", "NoDec"):
        cfg = w.apply_preset(tiny_config(n_enc=0, architecture="decoder-only"), preset)
        m = w.build_model(cfg, seed=0)
        assert m.store.total_params() == w.count_params(cfg)[0], preset


def test_initialisation_order_is_pinned():
    # sha256 prefixes of the seed-5 checkpoint bytes: a reordered draw, a
    # renamed tensor or a changed alias table changes them.
    cycle = SharingSpec(enc_ffn=FFNStrategy.parse("Cycle(2)"),
                        dec_ffn=FFNStrategy.parse("CycleRev(2)"), enc_self_attn="SharedAll",
                        dec_self_attn="SharedAll", dec_cross_attn="SharedAll")
    golden = {
        "064350043642": w.apply_preset(tiny_config(), "baseline"),
        "2c45d32a5efb": w.apply_preset(tiny_config(), "SharedEncDec"),
        "a38162812f5f": w.apply_preset(tiny_config(), "OneWideFFN"),
        "f24a8108d4b9": w.apply_preset(tiny_config(n_enc=0, architecture="decoder-only"),
                                       "NoDec"),
        "b0bfdf44f6ff": tiny_config(n_enc=4, n_dec=4, sharing=cycle),
    }
    for digest, cfg in golden.items():
        blob = checkpoint_bytes(w.build_model(cfg, seed=5).store)
        assert hashlib.sha256(blob).hexdigest()[:12] == digest, cfg


def _teacher_forced_layout(m, src, tgt):
    """Reference layout: decoder-only runs src <eos> <bos> tgt with a
    bidirectional source prefix; encoder-decoder encodes src <eos> and
    decodes <bos> tgt."""
    if m.config.architecture == "decoder-only":
        return decoder_forward(m, None, src + [EOS, BOS] + tgt, prefix_len=len(src) + 1)
    enc_out, _ = encoder_forward(m, src + [EOS])
    return decoder_forward(m, enc_out, [BOS] + tgt)


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_decode_loss_accuracy_and_taps_share_the_teacher_forced_layout(arch):
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=3)
    src, tgt = [4, 5, 6], [7, 8, 9, 10]
    logits, _ = _teacher_forced_layout(m, src, tgt)
    labels = tgt + [EOS]
    rows = np.asarray(logits.data)[-len(labels):]

    enc = m.encode(src)
    for t in range(len(labels)):
        step = m.step_logits(enc, src, tgt[:t])
        assert np.allclose(step, rows[t], rtol=0.0, atol=1e-5), t

    corpus = generate_toy_task("copy", 5, (3, 6), 12, seed=4)
    hits = int((rows.argmax(axis=1) == labels).sum())
    assert token_accuracy(m, Corpus([(src, tgt)], corpus.vocab)) == hits / len(labels)

    loss, n = m.loss_for_pair([(src, tgt)])
    z = rows.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    expected = -logp[np.arange(len(labels)), labels].mean()
    assert n == len(labels)
    assert float(loss.data) == pytest.approx(expected, abs=1e-5)

    mats = collect_activations(m, corpus)["decoder"]
    per_pair = [_teacher_forced_layout(m, list(s), list(g))[1] for s, g in corpus.pairs]
    assert set(mats) == set(per_pair[0])
    for name, mat in mats.items():
        means = np.stack([taps[name].data.mean(axis=0) for taps in per_pair])
        assert np.allclose(mat.values, means, rtol=0.0, atol=1e-5), name


RAGGED_PAIRS = [([4, 5, 6], [7, 8]), ([9], [4, 5, 6, 7, 8]), ([5, 6, 7, 8, 9, 10], [11])]


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_a_padded_batch_gives_each_pair_the_rows_it_gets_alone(arch):
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=6)
    logits, _ = m.teacher_forced(RAGGED_PAIRS)
    blocks = logits.data.reshape(len(RAGGED_PAIRS), -1, logits.shape[1])
    if arch == "encoder-decoder":
        enc, _ = encoder_forward(m, [src + [EOS] for src, _ in RAGGED_PAIRS])
        enc_blocks = enc.data.reshape(len(RAGGED_PAIRS), -1, enc.shape[1])
    for b, (src, tgt) in enumerate(RAGGED_PAIRS):
        alone, _ = m.teacher_forced([(src, tgt)])
        assert np.abs(blocks[b, :alone.shape[0]] - alone.data).max() < 1e-6, b
        if arch == "encoder-decoder":
            enc_alone, _ = encoder_forward(m, src + [EOS])
            assert np.abs(enc_blocks[b, :len(src) + 1] - enc_alone.data).max() < 1e-6, b


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_evaluation_chunks_give_each_pair_what_it_gets_alone(arch):
    # ragged pairs over more than one chunk, so the last chunk is partial
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=7)
    corpus = generate_toy_task("copy", EVAL_CHUNK + 3, (1, 8), 12, seed=8)
    assert len({len(src) for src, _ in corpus.pairs}) > 1
    sides = collect_activations(m, corpus)
    assert list(sides) == (["decoder"] if arch == "decoder-only" else ["encoder", "decoder"])
    hits = total = 0
    for b, (src, tgt) in enumerate(corpus.pairs):
        alone = collect_activations(m, Corpus([(src, tgt)], corpus.vocab))
        for side, taps in sides.items():
            for name, mat in taps.items():
                assert np.abs(mat.values[b] - alone[side][name].values[0]).max() < 1e-6, \
                    (b, side, name)
        logits, _ = m.teacher_forced([(src, tgt)])
        labels = list(tgt) + [EOS]
        hits += int((logits.data[-len(labels):].argmax(axis=1) == labels).sum())
        total += len(labels)
    assert token_accuracy(m, corpus) == hits / total


@pytest.mark.parametrize("preset", ["baseline", "OneWideFFN", "decoder-only baseline"])
def test_a_padded_two_pair_batch_passes_grad_check(preset):
    if preset == "decoder-only baseline":
        cfg = tiny_config(n_enc=0, architecture="decoder-only")
    else:
        cfg = w.apply_preset(tiny_config(), preset)
    m = w.build_model(cfg, seed=0)
    pairs = [([4, 5, 6, 7], [7, 6]), ([8], [4, 5, 6, 9, 10])]

    def f(params):
        loss, _ = m.loss_for_pair(pairs)
        return loss

    assert grad_check(f, m.store.physical.values(), coords_per_tensor=2) < 1e-3


def _every_preset(heads):
    configs = [w.apply_preset(tiny_config(heads=heads), name) for name in PRESETS]
    dec_only = tiny_config(n_enc=0, architecture="decoder-only", heads=heads)
    return configs + [w.apply_preset(dec_only, name) for name in DECODER_ONLY_PRESETS]


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_cached_step_logits_match_the_recompute(heads):
    src = [4, 5, 6, 7]
    prefix = [9, 4, 11, 8, 5, 10, 6]
    for cfg in _every_preset(heads):
        m = w.build_model(cfg, seed=heads)
        ctx = m.encode(src)
        if cfg.architecture == "encoder-decoder":
            plain, _ = encoder_forward(m, src + [EOS])
            assert np.array_equal(ctx.data, plain.data)
        else:
            assert ctx.shape == (0, cfg.d_model)
        for t in range(len(prefix) + 1):
            cached = m.step_logits(ctx, src, prefix[:t])
            assert np.abs(cached - m.step_logits(None, src, prefix[:t])).max() < 1e-5, (cfg, t)
        # one row holding the source prefix and <bos> + prefix, whose last id it ran
        source = len(src) + 1 if cfg.architecture == "decoder-only" else 0
        assert ctx.fed == (BOS, *prefix)
        for self_kv, _ in ctx.layers:
            assert self_kv[1].shape == (cfg.heads, source + len(prefix) + 1, cfg.d_model // cfg.heads)


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_memo_misses_recompute_the_same_logits(arch):
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=8)
    src, prefix = [4, 5, 6], [7, 8, 9, 10, 11, 4]
    ctx = m.encode(src)
    for t in range(len(prefix) + 1):
        m.step_logits(ctx, src, prefix[:t])
    fresh = m.encode(src)
    for t, c in [(2, ctx), (3, ctx), (5, fresh)]:  # evicted parent, its child, empty memo
        got = m.step_logits(c, src, prefix[:t])
        assert np.abs(got - m.step_logits(None, src, prefix[:t])).max() < 1e-5, t


def test_a_memo_miss_reuses_the_encoder_output(monkeypatch):
    m = w.build_model(tiny_config(), seed=8)
    src, prefix = [4, 5, 6], [7, 8, 9]
    calls = []
    forward = transformer.encoder_forward

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(transformer, "encoder_forward", counted)
    ctx = m.encode(src)
    for t in (0, 1, 3, 2):  # the last two miss
        got = m.step_logits(ctx, src, prefix[:t])
        assert np.abs(got - m.step_logits(None, src, prefix[:t])).max() < 1e-5, t
    # one encoder pass per step_logits(None, ...) oracle, and only one for the context
    assert len(calls) == 1 + 4


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_row_step_logits_match_the_recompute(arch):
    # ragged sources, rows reordered, repeated and dropped along the way
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=4)
    srcs = [[4, 5, 6], [7], [8, 9, 10, 11, 4], [5, 6]]
    rows = DecodeRows(m, srcs)
    prefixes = [[] for _ in srcs]
    rng = np.random.default_rng(0)
    for step in range(6):
        logits = rows.step([p[-1] if p else BOS for p in prefixes])
        assert logits.shape == (len(srcs), m.config.vocab_size)
        for row, src, prefix in zip(logits, srcs, prefixes):
            assert np.abs(row - m.step_logits(None, src, prefix)).max() < 1e-5, (step, src, prefix)
        if step in (1, 3):
            keep = [2, 0, 0, 3] if step == 1 else [3, 1, 2]
            rows.keep(keep)
            srcs = [srcs[r] for r in keep]
            prefixes = [list(prefixes[r]) for r in keep]
        for prefix in prefixes:
            prefix.append(int(rng.integers(3, 12)))


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_decoding_runs_one_new_position_per_step(arch, monkeypatch):
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=2)
    src = [4, 5, 6]
    lengths = []
    forward = transformer.decoder_forward

    def counted(model, enc_out, ids, *args, **kwargs):
        lengths.append(np.shape(ids)[-1])  # padded width: a beam step runs one id per row
        return forward(model, enc_out, ids, *args, **kwargs)

    monkeypatch.setattr(transformer, "decoder_forward", counted)
    for decode in (lambda: decode_greedy(m, src, 6), lambda: decode_beam(m, src, 4, 6)):
        lengths.clear()
        decode()
        source = [len(src) + 1] if arch == "decoder-only" else []  # run once by encode
        assert lengths[:len(source)] == source
        assert set(lengths[len(source):]) == {1}


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_cached_decode_past_max_len_raises_like_the_recompute(arch):
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch, max_len=8), seed=1)
    src = [4, 5]
    room = 8 - (1 if arch == "encoder-decoder" else len(src) + 2)
    prefix = [6] * (room + 1)
    ctx = m.encode(src)
    for t in range(room + 1):
        m.step_logits(ctx, src, prefix[:t])
    with pytest.raises(DataError) as cached:
        m.step_logits(ctx, src, prefix)
    with pytest.raises(DataError) as recompute:
        m.step_logits(None, src, prefix)
    assert str(cached.value) == str(recompute.value) == "sequence length 9 exceeds max_len 8"
