import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import wideffn as w
from wideffn import tensor, transformer
from wideffn.bench import decode_beam, decode_greedy
from wideffn.checkpoint import checkpoint_bytes
from wideffn.config import DECODER_ONLY_PRESETS, PRESETS, SharingSpec
from wideffn.errors import ConfigError, DataError
from wideffn.sharing import FFNStrategy
from wideffn.similarity import collect_activations
from wideffn.tensor import ComputeTape, Tensor, cross_entropy, grad_check, matmul, recording
from wideffn.training import token_accuracy
from wideffn.transformer import (
    ATTN_PARTS,
    EVAL_ROWS,
    AttentionBlock,
    DecodeRows,
    FFNBlock,
    _embed,
    attention_forward,
    attention_mask,
    decoder_forward,
    encoder_forward,
    ffn_forward,
    sinusoidal_positions,
)
from wideffn.vocab import BOS, EOS, PAD, Corpus, generate_toy_task

import per_op
from conftest import tiny_config


def test_causal_mask_shape_and_content():
    T, F = True, False
    causal = attention_mask([3], [0], 3, 3)
    assert causal.shape == (1, 1, 3, 3)  # one mask per sequence, for all its heads
    assert causal[0, 0].tolist() == [
        [T, F, F],
        [T, T, F],
        [T, T, T],
    ]
    # a sequence of 2 padded to 3 also hides the pad key from the pad query
    assert attention_mask([2], [0], 3, 3)[0, 0].tolist() == [
        [T, F, F],
        [T, T, F],
        [T, T, F],
    ]


def test_prefix_mask_bidirectional_prefix_causal_suffix():
    T, F = True, False
    assert attention_mask([4], [2], 4, 4)[0, 0].tolist() == [
        [T, T, F, F],
        [T, T, F, F],
        [T, T, T, F],
        [T, T, T, T],
    ]
    with pytest.raises(ConfigError):
        attention_mask([3], [-1], 3, 3)
    m = w.build_model(tiny_config(n_enc=0, architecture="decoder-only"), seed=0)
    with pytest.raises(ConfigError):
        decoder_forward(m, None, [4, 5, 6], prefix_len=-1)


def test_attention_mask_covers_every_visibility_rule():
    T, F = True, False
    # encoder and cross attention: prefix = key length, so pad keys only are hidden
    enc = attention_mask([2, 3], [2, 3], 4, 3)
    assert enc[0, 0].tolist() == [[T, T, F]] * 4
    assert enc[1].all()
    # decode steps at an offset are the last rows of the full prefix-LM mask
    full = attention_mask([4], [2], 4, 4)[0, 0]
    for t_q in (1, 2):
        step = attention_mask([4], [2], t_q, 4, offset=4 - t_q)
        assert np.array_equal(step[0, 0], full[4 - t_q:]), t_q
    # one mask per sequence, in sequence order, each what the sequence gets alone
    stack = attention_mask([2, 3], [0, 3], 3, 3)
    assert stack.shape == (2, 1, 3, 3)
    assert np.array_equal(stack[0], attention_mask([2], [0], 3, 3)[0])
    assert np.array_equal(stack[1], attention_mask([3], [3], 3, 3)[0])
    assert not np.array_equal(stack[0], stack[1])


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
    keep = np.ones((1, 1, 3, 3), dtype=bool)
    keep[0, 0, 1] = False
    out = attention_forward(x, x, m.enc_attn[0], mask=keep, heads=2)
    assert np.isfinite(out.data).all()


def _random_attention_block(rng, d):
    """An attention block with every weight, bias and norm parameter random."""
    return AttentionBlock(**{
        name: Tensor(rng.uniform(-0.5, 0.5, size=(d, d) if name.startswith("w") else d))
        for name in ATTN_PARTS
    })


def _reference_attention(q_in, kv_in, block, keep, heads):
    """Multi-head attention one head at a time, in float64 numpy; `keep` is
    one sequence's (T_q, T_k) mask, the same for every head."""
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
            scores = np.where(keep, scores, -1e9)
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
    keep = None if prefix is None else attention_mask([t], [prefix], t, t)
    q_t = Tensor(q_in)
    kv_t = Tensor(kv_in) if case == "cross" else q_t
    out = attention_forward(q_t, kv_t, block, mask=keep, heads=heads)
    expect = _reference_attention(q_in.astype(np.float64), kv_in.astype(np.float64),
                                  block, None if keep is None else keep[0, 0], heads)
    assert out.shape == (t, d)
    assert np.abs(out.data - expect).max() < 1e-6


def test_a_mask_that_hides_nothing_is_left_out_exactly(monkeypatch):
    rng = np.random.default_rng(8)
    block = _random_attention_block(rng, 16)
    x = rng.standard_normal((2 * 5, 16)).astype(np.float32)
    runs = []
    for mask in (np.ones((2, 1, 5, 5), dtype=bool), None):  # an all-True mask, then none
        q = Tensor(x)
        tape = ComputeTape()
        with recording(tape):
            out = attention_forward(q, q, block, mask, heads=4, batch=2)
            loss = cross_entropy(out, np.arange(10) % 16)
        tape.backward(loss)
        runs.append((out.data.tobytes(), q.grad.tobytes()))
        for t in block:
            t.zero_grad()
    assert runs[0] == runs[1]

    fills = []  # the shape of each mask attention_weights is given
    weights = transformer.attention_weights

    def counted_weights(x, f, keep=None):
        if keep is not None:
            fills.append(keep.shape)
        return weights(x, f, keep)

    monkeypatch.setattr(transformer, "attention_weights", counted_weights)
    m = w.build_model(tiny_config(), seed=0)
    for srcs, expect in (([[4, 5, 6]], 0), ([[4, 5, 6], [7, 8, 9]], 0), ([[4, 5], [7, 8, 9]], 2)):
        fills.clear()
        encoder_forward(m, srcs)
        assert len(fills) == expect, srcs  # one masked call per layer when a source is padded
    fills.clear()
    m.encode([4, 5, 6])  # a one-source encode hides nothing
    assert fills == []
    fills.clear()
    m.teacher_forced([([4, 5], [6, 7]), ([8, 9], [10, 11])])  # equal lengths: causal masks only
    assert len(fills) == 2


def test_attention_passes_grad_check_with_four_heads():
    rng = np.random.default_rng(3)
    d, t = 16, 5
    block = _random_attention_block(rng, d)
    x = Tensor(rng.standard_normal((t, d)))
    keep = attention_mask([t], [2], t, t)

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
        assert m.store.flat.size == total == sum(breakdown.values()), name


def test_build_census_matches_count_for_grouped_strategies():
    for enc, dec in [("Sequence(2)", "Cycle(3)"), ("CycleRev(3)", "Sequence(6)"),
                     ("Cycle(2)", "CycleRev(3)")]:
        sharing = SharingSpec(enc_ffn=FFNStrategy.parse(enc), dec_ffn=FFNStrategy.parse(dec))
        cfg = tiny_config(n_enc=6, n_dec=6, sharing=sharing)
        m = w.build_model(cfg, seed=0)
        assert m.store.flat.size == w.count_params(cfg)[0], (enc, dec)


def test_build_census_matches_count_with_attention_sharing():
    sharing = SharingSpec(enc_self_attn="SharedAll", dec_cross_attn="SharedAll")
    cfg = tiny_config(sharing=sharing)
    m = w.build_model(cfg, seed=0)
    assert m.store.flat.size == w.count_params(cfg)[0]
    assert m.store.resolve("enc.layer0.sa.wq") is m.store.resolve("enc.layer1.sa.wq")
    assert m.store.resolve("dec.layer0.ca.wq") is m.store.resolve("dec.layer1.ca.wq")
    assert m.store.resolve("dec.layer0.sa.wq") is not m.store.resolve("dec.layer1.sa.wq")


def test_decoder_only_census_matches_count():
    for preset in ("baseline", "SharedDec", "NoDec"):
        cfg = w.apply_preset(tiny_config(n_enc=0, architecture="decoder-only"), preset)
        m = w.build_model(cfg, seed=0)
        assert m.store.flat.size == w.count_params(cfg)[0], preset


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

    state = m.decode_rows([src])
    for t, fed in enumerate([BOS] + tgt):
        step = state.step([fed])[0]
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
def test_teacher_forced_rows_and_labels_follow_each_pairs_inputs(arch):
    # pair b has len(inputs[side]) real rows on each side, and its labels
    # start where the decoder's bidirectional prefix ends
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=6)
    assert m.inputs([4, 5], [7]) == ({"decoder": [4, 5, EOS, BOS, 7]} if arch == "decoder-only"
                                     else {"encoder": [4, 5, EOS], "decoder": [BOS, 7]})
    logits, sides = m.teacher_forced(RAGGED_PAIRS)
    labels = m.target_labels(RAGGED_PAIRS, logits.shape[0]).reshape(len(RAGGED_PAIRS), -1)
    for b, (src, tgt) in enumerate(RAGGED_PAIRS):
        inputs = m.inputs(src, tgt)
        alone_logits, alone = m.teacher_forced([(src, tgt)])
        for side, taps in sides.items():
            n = len(inputs[side])
            for name, tap in taps.items():
                assert alone[side][name].shape[0] == n, (b, side, name)
                blocks = tap.data.reshape(len(RAGGED_PAIRS), -1, tap.shape[1])
                assert np.abs(blocks[b, :n] - alone[side][name].data).max() < 1e-6, (b, name)
        ids = inputs["decoder"]
        start = len(ids) - len(tgt) - 1
        pad = labels.shape[1] - len(ids)
        assert labels[b].tolist() == [PAD] * start + tgt + [EOS] + [PAD] * pad, b
        reference, _ = _teacher_forced_layout(m, src, tgt)
        assert alone_logits.data.tobytes() == reference.data.tobytes(), b


def _side_rows(m, chunk):
    """Each side's padded rows of a chunk: its pairs times its longest input."""
    enc = max(len(src) + 1 for src, _ in chunk)
    dec = max(len(m.inputs(src, tgt)["decoder"]) for src, tgt in chunk)
    return len(chunk) * enc, len(chunk) * dec


def _ragged_chunks(m, widest, seed):
    """Ragged copy pairs of lengths 1 to 8 whose inputs are at most `widest`
    rows: enough for two chunks of pairs that wide, plus three more pairs."""
    corpus = generate_toy_task("copy", 2 * (EVAL_ROWS // widest) + 3, (1, 8), 12, seed=seed)
    assert len({len(src) for src, _ in corpus.pairs}) > 1
    chunks = m.chunk_pairs(corpus.pairs)
    assert len(chunks) >= 3 and len(chunks[-1]) < min(map(len, chunks[:-1]))  # the last partial
    return corpus


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_evaluation_chunks_give_each_pair_what_it_gets_alone(arch):
    # ragged pairs over at least three chunks, the last one partial. A pair's
    # values agree within 1e-6, not bit for bit: the padded width a chunk
    # gives it changes how the softmax and `p @ v` sums associate.
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=7)
    corpus = _ragged_chunks(m, 9 if arch == "encoder-decoder" else 18, seed=8)
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


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_chunks_keep_every_pair_in_order_within_the_row_budget(arch):
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=0)
    rng = np.random.default_rng(11)
    lengths = [1, 2, 40, 7, EVAL_ROWS, 3, 130, 129, 5, 2 * EVAL_ROWS, 1]
    lengths += rng.integers(1, 30, size=200).tolist()
    pairs = [([4] * n_src, [5] * n_tgt)
             for n_src, n_tgt in zip(lengths, rng.permutation(lengths).tolist())]
    chunks = m.chunk_pairs(pairs)
    flat = [pair for chunk in chunks for pair in chunk]
    assert len(flat) == len(pairs) and all(a is b for a, b in zip(flat, pairs))
    for i, chunk in enumerate(chunks):
        assert len(chunk) == 1 or max(_side_rows(m, chunk)) <= EVAL_ROWS, i
        if i + 1 < len(chunks):  # a chunk ends only where the next pair breaks the budget
            assert max(_side_rows(m, chunk + chunks[i + 1][:1])) > EVAL_ROWS, i
    over = [chunk for chunk in chunks if max(_side_rows(m, chunk)) > EVAL_ROWS]
    assert over and all(len(chunk) == 1 for chunk in over)
    assert m.chunk_pairs([]) == []


def test_a_32_pair_probe_of_7_tokens_is_one_chunk():
    m = w.build_model(tiny_config(), seed=0)
    probe = generate_toy_task("copy", 32, (7, 7), 12, seed=1).pairs
    assert m.chunk_pairs(probe) == [probe]
    assert [len(chunk) for chunk in m.chunk_pairs(probe + probe[:1])] == [32, 1]
    assert len([chunk for chunk, _, _ in m.eval_chunks(probe)]) == 1


# ffn_forward as it was before relu wrote over the first product: a relu that
# returns a new array and masks its backward on its input.
def _old_relu(x):
    out = Tensor(np.maximum(x.data, np.float32(0.0)))
    return tensor.emit(out, (x,), lambda g: (g * (x.data > 0),))


def _old_ffn_forward(x, block, *, dropout_p, rng):
    h = _old_relu(per_op.matmul(x, block.w1, block.b1))
    y = per_op.matmul(h, block.w2, block.b2)
    y = per_op.dropout(y, dropout_p, rng)
    return per_op.layer_norm(per_op.add(x, y), block.ln_gain, block.ln_bias)


@pytest.mark.parametrize("rows", [1, 9, 288])
@pytest.mark.parametrize("width", [16, 64, 256])
@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
def test_the_in_place_relu_leaves_ffn_forward_bitwise_unchanged(rows, width, dropout_p):
    rng = np.random.default_rng(rows * 1000 + width)
    d = 16
    shapes = ((d, width), (width,), (width, d), (d,), (d,), (d,))
    params = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
    x = rng.standard_normal((rows, d)).astype(np.float32)
    targets = rng.integers(0, d, size=rows)
    runs = []
    for forward in (ffn_forward, _old_ffn_forward):
        block = FFNBlock(*map(Tensor, params))
        tap = Tensor(x.copy())
        tape = ComputeTape()
        with recording(tape):
            out = forward(tap, block, dropout_p=dropout_p, rng=np.random.default_rng(5))
            loss = cross_entropy(out, targets)
        tape.backward(loss)
        assert tap.data.tobytes() == x.tobytes()  # the input, a tap, is left as it was
        runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in (tap, *block)])
        if forward is ffn_forward:  # the sublayer's one node and the loss's
            assert len(tape.nodes) == 2
    assert runs[0] == runs[1]


def test_the_ffn_holds_one_copy_of_its_hidden_layer():
    # relu writes over the first product: widening the hidden layer raises
    # the sublayer's peak allocation by the hidden layer's growth, once
    rng = np.random.default_rng(2)
    rows, d = 288, 16
    x = Tensor(rng.standard_normal((rows, d)))
    peaks = []
    for width in (64, 256):
        shapes = ((d, width), (width,), (width, d), (d,), (d,), (d,))
        block = FFNBlock(*[Tensor(rng.standard_normal(shape)) for shape in shapes])
        ffn_forward(x, block)
        tracemalloc.start()
        ffn_forward(x, block)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    growth = rows * (256 - 64) * 4
    assert growth <= peaks[1] - peaks[0] < 1.5 * growth


# attention_forward as a composition of tensor ops, one tape node each, as
# it was before the sublayer became one op. Its K/V cache holds arrays, as
# the sublayer's does, so no key or value kept from an earlier call carries
# gradient.
def _old_attention_forward(q_in, kv_in, block, mask=None, *, heads=1, batch=1, dropout_p=0.0,
                           rng=None, kv=None):
    rows, d = q_in.shape
    dh = d // heads

    def split(x, w, b, axes):
        return tensor.transpose(per_op.reshape(per_op.matmul(x, w, b),
                                               (batch, x.shape[0] // batch, heads, dh)), axes)

    q = split(q_in, block.wq, block.bq, (0, 2, 1, 3))
    if kv_in is not None:
        k = split(kv_in, block.wk, block.bk, (0, 2, 3, 1))
        v = split(kv_in, block.wv, block.bv, (0, 2, 1, 3))
        if kv:
            k = Tensor(np.concatenate((kv[0], k.data), axis=3))
            v = Tensor(np.concatenate((kv[1], v.data), axis=2))
    else:
        k, v = map(Tensor, kv)
    if kv is not None:
        kv[:] = k.data, v.data
    weights = per_op.attention_weights(tensor.matmul(q, k), 1.0 / math.sqrt(dh), mask)
    merged = per_op.reshape(tensor.transpose(tensor.matmul(weights, v), (0, 2, 1, 3)), (rows, d))
    proj = per_op.matmul(merged, block.wo, block.bo)
    if rng is not None:
        proj = per_op.dropout(proj, dropout_p, rng)
    return per_op.layer_norm(per_op.add(q_in, proj), block.ln_gain, block.ln_bias)


def _run_taped(build, arrays):
    """build(*tensors of arrays) under one tape, then backward from the summed
    cross-entropy of the outputs it returns: (output bytes, every tensor's
    gradient bytes), and the tape's node count before the loss."""
    tensors = [Tensor(a) for a in arrays]
    tape = ComputeTape()
    with recording(tape):
        outs = build(*tensors)
        nodes = len(tape.nodes)
        losses = [cross_entropy(out, np.arange(out.shape[0]) % out.shape[1]) for out in outs]
        loss = losses[0]
        for more in losses[1:]:
            loss = per_op.add(loss, more)
    tape.backward(loss)
    grads = [None if t.grad is None else t.grad.tobytes() for t in tensors]
    return ([out.data.tobytes() for out in outs], grads), nodes


def _block_arrays(rng, parts, d, width=None):
    shapes = {"w1": (d, width), "b1": (width,), "w2": (width, d)}
    return [rng.uniform(-0.5, 0.5, size=shapes.get(name, (d, d) if name.startswith("w") else d))
            for name in parts]


# (key rows per sequence, whether keys and values come from a separate
# memory, attention_mask arguments for up to three sequences or None for no
# mask); every sequence has 5 query rows
SUBLAYER_CASES = {
    "self": (5, False, None),
    "cross": (3, True, None),
    "encoder_padded": (5, False, dict(key_len=[5, 3, 4], prefix=[5, 3, 4])),
    "causal": (5, False, dict(key_len=[5, 5, 5], prefix=[0, 0, 0])),
    "prefix": (5, False, dict(key_len=[5, 5, 5], prefix=[2, 0, 3])),
    "right_padded": (5, False, dict(key_len=[3, 5, 4], prefix=[0, 0, 0])),
    "left_padded": (5, False, dict(key_len=[5, 5, 5], prefix=[3, 3, 3], pad=[2, 0, 1])),
    "cross_padded": (4, True, dict(key_len=[2, 4, 3], prefix=[2, 4, 3])),
}


def _attention_runs(case, batch, heads, dropout_p):
    """attention_forward and the per-op composition on one SUBLAYER_CASES
    case: each run's (output bytes, gradient bytes), and the node count of
    attention_forward's."""
    t_k, cross, mask_args = SUBLAYER_CASES[case]
    rng = np.random.default_rng([heads, batch, len(case)])
    t_q, d = 5, 16
    mask = None if mask_args is None else attention_mask(
        t_q=t_q, t_k=t_k, **{k: v[:batch] for k, v in mask_args.items()})
    arrays = [rng.standard_normal((batch * t_q, d)), rng.standard_normal((batch * t_k, d)),
              *_block_arrays(rng, ATTN_PARTS, d)]

    def build(forward):
        def run(x, memory, *params):
            return [forward(x, memory if cross else x, AttentionBlock(*params), mask, heads=heads,
                            batch=batch, dropout_p=dropout_p, rng=np.random.default_rng(5))]
        return run

    new, nodes = _run_taped(build(attention_forward), arrays)
    return new, _run_taped(build(_old_attention_forward), arrays)[0], nodes


@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
@pytest.mark.parametrize("case", list(SUBLAYER_CASES))
def test_attention_is_one_node_bitwise_like_its_per_op_composition(case, dropout_p):
    new, old, nodes = _attention_runs(case, 3, 4, dropout_p)
    assert nodes == 1
    assert new == old


# Heads are an axis of every stack, (B, heads, T, d_h), whatever their count
@pytest.mark.parametrize("heads", [1, 2, 4, 8])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("case", list(SUBLAYER_CASES))
def test_heads_as_an_axis_leave_attention_bitwise_unchanged(heads, batch, case):
    new, old, _ = _attention_runs(case, batch, heads, 0.0)
    assert new == old


@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
def test_blocks_shared_by_two_layers_are_bitwise_like_the_per_op_composition(dropout_p):
    # two decoder layers that share one block of each kind, over one padded memory
    rng = np.random.default_rng(11)
    batch, t, s, d = 2, 4, 3, 16
    self_mask = attention_mask([4, 3], [0, 0], t, t)
    cross_mask = attention_mask([3, 2], [3, 2], t, s)
    arrays = [rng.standard_normal((batch * t, d)), rng.standard_normal((batch * s, d)),
              *_block_arrays(rng, ATTN_PARTS, d), *_block_arrays(rng, ATTN_PARTS, d),
              *_block_arrays(rng, ("w1", "b1", "w2", "b2", "ln_gain", "ln_bias"), d, 32)]

    def build(attend, ffn):
        def run(x, memory, *params):
            sa, ca = AttentionBlock(*params[:10]), AttentionBlock(*params[10:20])
            block = FFNBlock(*params[20:])
            gen = np.random.default_rng(5)
            opts = dict(heads=2, batch=batch, dropout_p=dropout_p, rng=gen)
            for _ in range(2):
                x = attend(x, x, sa, self_mask, **opts)
                x = attend(x, memory, ca, cross_mask, **opts)
                x = ffn(x, block, dropout_p=dropout_p, rng=gen)
            return [x]
        return run

    new, nodes = _run_taped(build(attention_forward, ffn_forward), arrays)
    assert nodes == 6
    assert new == _run_taped(build(_old_attention_forward, _old_ffn_forward), arrays)[0]


def test_a_six_step_decode_is_bitwise_like_the_per_op_composition():
    # A left-padded prefix of 3, then six single steps, under one tape: self
    # attention appends to its K/V cache, and cross attention projects the
    # memory on the first call and reuses it after.
    rng = np.random.default_rng(12)
    batch, d, steps = 2, 16, 6
    arrays = [rng.standard_normal((batch * 3, d)), rng.standard_normal((batch * 3, d)),
              *[rng.standard_normal((batch, d)) for _ in range(steps)],
              *_block_arrays(rng, ATTN_PARTS, d), *_block_arrays(rng, ATTN_PARTS, d)]

    def build(attend):
        def run(memory, *tensors):
            inputs, sa, ca = tensors[:-20], AttentionBlock(*tensors[-20:-10]), \
                AttentionBlock(*tensors[-10:])
            self_kv, cross_kv, outs, offset = [], [], [], 0
            for x in inputs:
                t = x.shape[0] // batch
                opts = dict(heads=4, batch=batch)
                x = attend(x, x, sa, attention_mask([offset + t] * 2, [3, 3], t, offset + t, offset,
                                                    [1, 0]), kv=self_kv, **opts)
                outs.append(attend(x, None if cross_kv else memory, ca,
                                   attention_mask([3, 2], [3, 2], t, 3), kv=cross_kv, **opts))
                offset += t
            return outs
        return run

    new, nodes = _run_taped(build(attention_forward), arrays)
    assert nodes == 2 * (1 + steps)
    assert new == _run_taped(build(_old_attention_forward), arrays)[0]


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_decode_rows_are_bitwise_like_the_per_op_sublayers(arch, monkeypatch):
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch, heads=4), seed=6)
    srcs = [[4, 5, 6], [7], [8, 9, 10, 11]]

    def run():  # six steps, rows reordered after the second and dropped after the fourth
        rows, out = DecodeRows(m, srcs), []
        for step, ids in enumerate([[BOS] * 3, [5, 6, 7], [8, 9, 10], [4, 5, 6], [7, 8], [9, 10]]):
            out.append(rows.step(ids).tobytes())
            if step in (1, 3):
                rows.keep([2, 0, 0] if step == 1 else [1, 2])
        return out

    new = run()
    monkeypatch.setattr(transformer, "attention_forward", _old_attention_forward)
    monkeypatch.setattr(transformer, "ffn_forward", _old_ffn_forward)
    monkeypatch.setattr(transformer, "_embed", _old_embed)
    assert run() == new


# _embed as a composition of tensor ops, one tape node each, as it was
# before the embedding became one op.
def _old_embed(model, ids, rng, start=0):
    cfg = model.config
    batch, t = ids.shape
    positions = np.broadcast_to(start, (batch,))[:, None] + np.arange(t)
    end = int(positions.max()) + 1
    if end > cfg.max_len:
        raise DataError(f"sequence length {end} exceeds max_len {cfg.max_len}")
    x = per_op.embedding_lookup(model.embedding, ids.reshape(-1))
    x = per_op.scale(x, math.sqrt(cfg.d_model))
    table = sinusoidal_positions(cfg.max_len, cfg.d_model)
    x = per_op.add(x, Tensor(table[np.maximum(positions, 0).reshape(-1)]))
    if rng is not None:
        x = per_op.dropout(x, cfg.dropout, rng)
    return x


# (architecture, id matrix, start, whether logits read the tied table): an
# encoder batch of right-padded sources, a decoder batch whose output
# projection adds into the table the embedding reads, and the left-padded
# start of a decoder-only DecodeRows, whose negative positions read row 0
EMBED_CASES = {
    "encoder": ("encoder-decoder", [[4, 5, 6, EOS], [7, EOS, PAD, PAD], [8, 9, EOS, PAD]], 0,
                False),
    "decoder_tied": ("encoder-decoder", [[BOS, 4, 5, 4], [BOS, 7, PAD, PAD], [BOS, 9, 9, 10]], 0,
                     True),
    "left_padded_start": ("decoder-only", [[PAD, PAD, 4, EOS], [5, 6, 7, EOS], [PAD, 8, 9, EOS]],
                          [-2, 0, -1], True),
}


def _embed_loss(m, x, tied):
    """Cross-entropy of the embedded rows, read through the tied output
    projection as decoder_forward reads them, or directly."""
    logits = tensor.transpose(matmul(m.embedding, tensor.transpose(x))) if tied else x
    return cross_entropy(logits, np.arange(logits.shape[0]) % logits.shape[1])


@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
@pytest.mark.parametrize("case", list(EMBED_CASES))
def test_embed_is_one_node_bitwise_like_its_per_op_composition(case, dropout_p):
    arch, ids, start, tied = EMBED_CASES[case]
    n_enc = 0 if arch == "decoder-only" else 2
    # d_model 24: a scale by sqrt(d) that is no power of two rounds, so the
    # order of the backward's products shows in its bits
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch, d_model=24, dropout=dropout_p),
                      seed=3)
    ids = np.array(ids)
    runs = []
    for embed in (_embed, _old_embed):
        m.embedding.zero_grad()
        tape = ComputeTape()
        with recording(tape):
            x = embed(m, ids, np.random.default_rng(5), start)
            nodes = len(tape.nodes)
            loss = _embed_loss(m, x, tied)
        tape.backward(loss)
        runs.append((x.data.tobytes(), m.embedding.grad.tobytes()))
        if embed is _embed:
            assert nodes == 1 and tape.nodes[0][1] == (m.embedding,)
    assert runs[0] == runs[1]
    if dropout_p:  # the mask is drawn and applied
        assert runs[0][0] != _embed(m, ids, None, start).data.tobytes()


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_a_training_step_is_bitwise_like_the_per_op_embedding(arch, monkeypatch):
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch, d_model=24, dropout=0.3),
                      seed=4)
    pairs = [([4, 5, 6, 7], [7, 6]), ([8], [4, 5, 6, 9, 10])]

    def step():
        for t in m.store.physical.values():
            t.zero_grad()
        tape = ComputeTape()
        with recording(tape):
            loss, _ = m.loss_for_pair(pairs, rng=np.random.default_rng(9))
        tape.backward(loss)
        grads = [t.grad.tobytes() for t in m.store.physical.values()]
        return len(tape.nodes), [loss.data.tobytes(), *grads]

    nodes, new = step()
    # one node per embedding, sublayer and loss, and three for the output projection
    sublayers = 2 * 2 + 2 * 3 if arch == "encoder-decoder" else 2 * 2
    assert nodes == (2 if arch == "encoder-decoder" else 1) + sublayers + 3 + 1
    monkeypatch.setattr(transformer, "_embed", _old_embed)
    assert step()[1] == new


def test_embed_passes_grad_check():
    m = w.build_model(tiny_config(n_enc=0, architecture="decoder-only"), seed=2)
    ids = np.array([[PAD, 4, 5, 6, 7], [8, 9, 10, 11, 4]])

    def loss(params):
        return _embed_loss(m, _embed(m, ids, None, [-1, 0]), tied=True)

    assert grad_check(loss, [m.embedding], coords_per_tensor=16) < 1e-3


@pytest.mark.parametrize("bad", [12, -1])
def test_an_out_of_range_id_raises_before_the_embedding_does_any_work(bad):
    m = w.build_model(tiny_config(dropout=0.3), seed=0)  # vocab_size 12
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    tape = ComputeTape()
    with recording(tape), pytest.raises(IndexError, match=f"token id {bad} outside"):
        _embed(m, np.array([[4, 5], [6, bad]]), rng)
    assert tape.nodes == [] and rng.bit_generator.state == state
    with pytest.raises(IndexError, match=f"token id {bad} outside"):
        decode_greedy(m, [4, bad], 3)  # search takes its sources from callers


# The grad_check oracles of the ops the sublayers replaced: the head split
# and merge (reshape and rank-4 transposes and products), attention_weights
# without a mask and with one per sequence, and relu.
@pytest.mark.parametrize("case", ["unmasked", "per_sequence_mask", "cross", "ffn"])
def test_sublayers_pass_grad_check(case):
    rng = np.random.default_rng(7)
    batch, t, d, heads = 2, 4, 8, 4
    mask = {"per_sequence_mask": attention_mask([4, 3], [0, 2], t, t),
            "cross": attention_mask([3, 2], [3, 2], t, 3)}.get(case)
    x = Tensor(rng.standard_normal((batch * t, d)))
    memory = Tensor(rng.standard_normal((batch * 3, d)))
    if case == "ffn":
        block = FFNBlock(*map(Tensor, _block_arrays(rng, FFNBlock._fields, d, 16)))
        params = [x, *block]
    else:
        block = AttentionBlock(*map(Tensor, _block_arrays(rng, ATTN_PARTS, d)))
        params = [x, memory, *block] if case == "cross" else [x, *block]

    def loss(p):
        if case == "ffn":
            out = ffn_forward(p[0], block)
        else:
            kv_in = p[1] if case == "cross" else p[0]
            out = attention_forward(p[0], kv_in, block, mask, heads=heads, batch=batch)
        return cross_entropy(out, np.arange(batch * t) % d)

    assert grad_check(loss, params, coords_per_tensor=3) < 1e-3


@pytest.mark.parametrize("preset", ["baseline", "NoDec", "SharedEncDec", "OneWideFFN",
                                    "decoder-only baseline"])
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
        ctx = m.decode_rows([src])
        if cfg.architecture == "encoder-decoder":
            plain, _ = encoder_forward(m, src + [EOS])
            assert np.array_equal(ctx.data, plain.data)
        else:
            assert ctx.shape == (0, cfg.d_model)
        for t, fed in enumerate([BOS] + prefix):
            cached = ctx.step([fed])[0]
            assert np.abs(cached - m.step_logits(None, src, prefix[:t])).max() < 1e-5, (cfg, t)
        # one row holding the source prefix and <bos> + prefix, whose last id it ran
        width = (len(src) + 1 if cfg.architecture == "decoder-only" else 0) + len(prefix) + 1
        dh = cfg.d_model // cfg.heads
        for (keys, values), _ in ctx.layers:
            assert keys.shape == (1, cfg.heads, dh, width)
            assert values.shape == (1, cfg.heads, width, dh)


@pytest.mark.parametrize("arch", ["encoder-decoder", "decoder-only"])
def test_step_logits_runs_a_fresh_state_once_and_refuses_a_stepped_one(arch):
    n_enc = 0 if arch == "decoder-only" else 2
    m = w.build_model(tiny_config(n_enc=n_enc, architecture=arch), seed=8)
    src, prefix = [4, 5, 6], [7, 8, 9]
    ctx = m.encode(src)
    got = m.step_logits(ctx, src, prefix)  # <bos> + prefix as one block
    assert got.tobytes() == m.step_logits(m.encode(src), src, prefix).tobytes()
    assert np.abs(got - m.step_logits(None, src, prefix)).max() < 1e-5
    with pytest.raises(ConfigError, match="nothing stepped"):
        m.step_logits(ctx, src, prefix)
    stepped = m.encode(src)
    stepped.step([BOS])
    with pytest.raises(ConfigError, match="nothing stepped"):
        m.step_logits(stepped, src, [])


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
    ctx = m.decode_rows([src])
    for fed in [BOS] + prefix[:-1]:
        ctx.step([fed])
    with pytest.raises(DataError) as cached:
        ctx.step([prefix[-1]])
    with pytest.raises(DataError) as recompute:
        m.step_logits(None, src, prefix)
    assert str(cached.value) == str(recompute.value) == "sequence length 9 exceeds max_len 8"
