import itertools
import math
import threading

import numpy as np
import pytest

import wideffn as w
from wideffn import bench, transformer
from wideffn.bench import (
    _MEASURE_LOCK,
    batch_size_sweep,
    corpus_bleu,
    decode_beam,
    decode_corpus,
    decode_greedy,
    measure_throughput,
    score_sequence,
    search,
)
from wideffn.config import DECODER_ONLY_PRESETS, PRESETS
from wideffn.errors import ConfigError, DataError
from wideffn.vocab import EOS, Corpus, generate_toy_task

from conftest import tiny_config


class Scripted:
    """Fake decoder with next-token distributions scripted per prefix.

    Prefixes missing from the table end the sequence with certainty, so
    every scripted tree is finite.
    """

    def __init__(self, table, vocab=5):
        self.table = table
        self.vocab = vocab

    def encode(self, src):
        return None

    def step_logits(self, enc, src, prefix):
        probs = np.full(self.vocab, 1e-9)
        for tok, p in self.table.get(tuple(prefix), {EOS: 1.0}).items():
            probs[tok] = p
        return np.log(probs)


class Recompute:
    """A real model behind a context that is hidden from it, so every step
    runs the teacher-forced recompute instead of the K/V memo."""

    def __init__(self, model):
        self.model = model

    def encode(self, src):
        return None

    def step_logits(self, enc, src, prefix):
        return self.model.step_logits(None, src, prefix)


def _drifter(n_tokens):
    """Emits `n_tokens` copies of token 4, then stops."""
    table = {tuple([4] * i): {4: 0.9} for i in range(n_tokens)}
    return Scripted(table)


# ------------------------------------------------------------------ decoding

def test_greedy_stops_at_eos_and_drops_it():
    m = Scripted({(): {4: 0.9}, (4,): {3: 0.8}, (4, 3): {EOS: 0.99}})
    assert decode_greedy(m, [7], max_len=10) == [4, 3]


def test_greedy_respects_length_cap():
    m = _drifter(50)
    assert decode_greedy(m, [7], max_len=6) == [4] * 6
    with pytest.raises(ConfigError):
        decode_greedy(m, [7], max_len=0)


def test_trained_model_copies_its_input(trained_copy_model, toy_corpus):
    hits = 0
    for src, tgt in toy_corpus.pairs[:20]:
        if decode_greedy(trained_copy_model, src, max_len=12) == tgt:
            hits += 1
    assert hits >= 18


def test_beam_one_equals_greedy_on_trained_model(trained_copy_model, toy_corpus):
    for src, _ in toy_corpus.pairs[:10]:
        g = decode_greedy(trained_copy_model, src, max_len=12)
        b = decode_beam(trained_copy_model, src, beam=1, max_len=12)
        assert b == g


def test_cached_decode_matches_recompute_on_trained_model(trained_copy_model, toy_corpus):
    oracle = Recompute(trained_copy_model)
    for src, _ in toy_corpus.pairs[:8]:
        assert decode_greedy(trained_copy_model, src, 12) == decode_greedy(oracle, src, 12)
        assert (decode_beam(trained_copy_model, src, beam=4, max_len=12)
                == decode_beam(oracle, src, beam=4, max_len=12))


def _random_models():
    """(index, model, source) of 20 random models of every preset and both
    architectures."""
    rng = np.random.default_rng(11)
    for i in range(20):
        heads = int(rng.choice([1, 2, 4]))
        if i % 4 == 3:
            cfg = tiny_config(n_enc=0, architecture="decoder-only", heads=heads)
            cfg = w.apply_preset(cfg, DECODER_ONLY_PRESETS[i % 3])
        else:
            cfg = w.apply_preset(tiny_config(heads=heads), sorted(PRESETS)[i % len(PRESETS)])
        yield i, w.build_model(cfg, seed=i), rng.integers(4, 12, size=int(rng.integers(1, 6))).tolist()


def test_cached_decode_matches_recompute_on_random_models():
    for i, model, src in _random_models():
        oracle = Recompute(model)
        assert decode_greedy(model, src, 8) == decode_greedy(oracle, src, 8), i
        assert (decode_beam(model, src, beam=4, max_len=8)
                == decode_beam(oracle, src, beam=4, max_len=8)), i


def _batched_equals_one_source(model, srcs, max_len):
    """Greedy and beam-4 outputs of `srcs` at batch sizes 1, 2, 3 and 8 equal
    one-source decoding; returns the greedy outputs."""
    outputs = {}
    for beam in (1, 4):
        outputs[beam] = [search(model, [src], beam, max_len)[0] for src in srcs]
        for batch_size in (1, 2, 3, 8):
            assert decode_corpus(model, srcs, batch_size, beam, max_len) == outputs[beam], \
                (beam, batch_size)
    return outputs[1]


def test_batched_search_matches_one_source_decoding_on_trained_model(trained_copy_model,
                                                                    toy_corpus):
    srcs = [src for src, _ in toy_corpus.pairs[:10]]
    greedy = _batched_equals_one_source(trained_copy_model, srcs, 12)
    assert len({len(src) for src in srcs}) > 1  # ragged sources
    assert len({len(out) for out in greedy}) > 1  # rows that finish at different steps


def test_batched_search_matches_one_source_decoding_on_random_models():
    rng = np.random.default_rng(5)
    finish_apart = set()  # architectures with a batch whose rows finished at different steps
    for i, model, src in _random_models():
        srcs = [src] + [rng.integers(3, 12, size=int(n)).tolist() for n in rng.integers(1, 7, 4)]
        greedy = _batched_equals_one_source(model, srcs, 8)
        if len({len(out) for out in greedy}) > 1:
            finish_apart.add(model.config.architecture)
    assert finish_apart == {"encoder-decoder", "decoder-only"}


def test_beam_one_equals_greedy_under_exact_ties():
    m = Scripted({(): {3: 0.4, 4: 0.4, EOS: 0.2}, (3,): {EOS: 0.9}})
    assert decode_greedy(m, [7], max_len=5) == [3]
    assert decode_beam(m, [7], beam=1, max_len=5) == [3]


def test_beam_finds_better_normalized_path_than_greedy():
    # greedy grabs token 3 (p=.5) and lands in a flat continuation; the
    # slightly worse first step 4 (p=.45) ends confidently and wins on
    # normalized score
    m = Scripted({
        (): {3: 0.50, 4: 0.45},
        (3,): {EOS: 0.34, 3: 0.33, 4: 0.32},
        (4,): {EOS: 0.90, 3: 0.05},
    })
    greedy = decode_greedy(m, [7], max_len=4)
    beam = decode_beam(m, [7], beam=2, max_len=4)
    assert greedy == [3]
    assert beam == [4]
    g = score_sequence(m, [7], greedy, ended=True)
    b = score_sequence(m, [7], beam, ended=True)
    assert b > g

    # exhaustive oracle over every sequence the cap admits
    best_seq, best_score = None, -np.inf
    alphabet = [0, 1, 3, 4]  # every non-EOS token
    for n in range(0, 4):
        for seq in itertools.product(alphabet, repeat=n):
            s = score_sequence(m, [7], list(seq), ended=True)
            if s > best_score:
                best_seq, best_score = list(seq), s
    for seq in itertools.product(alphabet, repeat=4):
        s = score_sequence(m, [7], list(seq), ended=False)
        if s > best_score:
            best_seq, best_score = list(seq), s
    assert decode_beam(m, [7], beam=4, max_len=4) == best_seq == [4]


def test_beam_rescoring_never_hurts(trained_copy_model, toy_corpus):
    def norm_score(src, out):
        ended = len(out) < 12
        return score_sequence(trained_copy_model, src, out, ended=ended)

    for src, _ in toy_corpus.pairs[:8]:
        g = norm_score(src, decode_greedy(trained_copy_model, src, max_len=12))
        b = norm_score(src, decode_beam(trained_copy_model, src, beam=3, max_len=12))
        assert b >= g - 1e-9


def test_score_sequence_conventions():
    # tables sum to 1 so the softmax inside scoring is (nearly) the identity
    m = Scripted({(): {4: 0.5, EOS: 0.25, 3: 0.25}, (4,): {EOS: 0.5, 3: 0.5}})
    ended = score_sequence(m, [7], [4], ended=True)
    assert ended == pytest.approx((math.log(0.5) + math.log(0.5)) / 2, abs=1e-6)
    capped = score_sequence(m, [7], [4], ended=False)
    assert capped == pytest.approx(math.log(0.5), abs=1e-6)
    only_eos = score_sequence(m, [7], [], ended=True)
    assert only_eos == pytest.approx(math.log(0.25), abs=1e-6)
    with pytest.raises(DataError):
        score_sequence(m, [7], [], ended=False)
    with pytest.raises(ConfigError):
        decode_beam(m, [7], beam=0)


# ---------------------------------------------------------------- throughput

def _tiny_corpus(n=6):
    return generate_toy_task("copy", n, (3, 5), 12, seed=0)


def test_throughput_report_fields():
    c = _tiny_corpus(5)
    rep = measure_throughput(_drifter(4), c, batch_size=2, runs=3, max_len=8,
                             config_id="drifter")
    assert rep.config_id == "drifter"
    assert rep.runs == 3
    assert rep.n_batches == 3  # ceil(5 / 2)
    assert rep.tokens_per_sec > 0
    assert rep.std >= 0


def test_throughput_decodes_batch_size_sources_per_step(trained_copy_model, toy_corpus,
                                                       monkeypatch):
    corpus = Corpus(toy_corpus.pairs[:8], toy_corpus.vocab)  # ragged, 3 to 8 tokens
    srcs = [src for src, _ in corpus.pairs]
    greedy = [decode_greedy(trained_copy_model, src, max_len=12) for src in srcs]
    widths, tokens = [], []
    forward, decode = transformer.decoder_forward, bench.decode_corpus

    def counted_forward(model, enc_out, ids, *args, **kwargs):
        widths.append(np.shape(ids))
        return forward(model, enc_out, ids, *args, **kwargs)

    def counted_decode(*args, **kwargs):
        outs = decode(*args, **kwargs)
        tokens.append(sum(map(len, outs)))
        return outs

    monkeypatch.setattr(transformer, "decoder_forward", counted_forward)
    monkeypatch.setattr(bench, "decode_corpus", counted_decode)
    for b in (1, 3, 8):
        widths.clear()
        tokens.clear()
        rep = measure_throughput(trained_copy_model, corpus, batch_size=b, runs=2, max_len=12)
        assert rep.n_batches == math.ceil(8 / b)
        assert tokens == [sum(map(len, greedy))] * 3  # the warm-up and two timed passes
        # one call a step per batch, until its longest row has emitted <eos>
        steps = sum(max(min(len(out) + 1, 12) for out in greedy[at : at + b])
                    for at in range(0, 8, b))
        assert len(widths) == 3 * steps
        assert {rows for rows, _ in widths} <= set(range(1, b + 1))


def test_throughput_validation():
    c = _tiny_corpus()
    with pytest.raises(ConfigError):
        measure_throughput(_drifter(3), c, runs=1)
    with pytest.raises(ConfigError):
        measure_throughput(_drifter(3), c, batch_size=0)
    with pytest.raises(DataError):
        # instant end-of-sequence everywhere: nothing is ever generated
        measure_throughput(Scripted({}), c, runs=2)


def test_throughput_refuses_overlapping_measurements():
    c = _tiny_corpus()
    acquired = _MEASURE_LOCK.acquire(blocking=False)
    assert acquired
    try:
        with pytest.raises(ConfigError, match="already running"):
            measure_throughput(_drifter(3), c, runs=2)
    finally:
        _MEASURE_LOCK.release()
    # and it recovers once the lock is free
    assert measure_throughput(_drifter(3), c, runs=2).tokens_per_sec > 0


def test_throughput_lock_released_after_error():
    c = _tiny_corpus()
    with pytest.raises(DataError):
        measure_throughput(Scripted({}), c, runs=2)
    assert _MEASURE_LOCK.acquire(blocking=False)
    _MEASURE_LOCK.release()


def test_batch_size_sweep_rows_and_deltas():
    c = _tiny_corpus(4)
    rows = batch_size_sweep([("a", _drifter(3)), ("b", _drifter(6))],
                            [1, 2], c, runs=2, max_len=8)
    assert [(r["config"], r["batch_size"]) for r in rows] == \
        [("a", 1), ("b", 1), ("a", 2), ("b", 2)]
    assert rows[0]["delta_pct"] is None and rows[2]["delta_pct"] is None
    assert isinstance(rows[1]["delta_pct"], float)
    assert [r["n_batches"] for r in rows] == [4, 4, 2, 2]
    with pytest.raises(ConfigError):
        batch_size_sweep([], [1], c)


# ---------------------------------------------------------------------- BLEU

def test_bleu_perfect_match_is_100():
    assert corpus_bleu(["a b c d"], ["a b c d"]) == pytest.approx(100.0)


def test_bleu_brevity_penalty_worked_case():
    # all precisions 1, hypothesis 4 tokens vs reference 5
    got = corpus_bleu(["a b c d"], ["a b c d e"])
    assert got == pytest.approx(100.0 * math.exp(1.0 - 5.0 / 4.0), abs=1e-9)
    assert got == pytest.approx(77.8800783, abs=1e-4)


def test_bleu_no_brevity_penalty_for_long_hypotheses():
    assert corpus_bleu(["a b c d e"], ["a b c d"]) < 100.0  # precision drops
    # equal length, perfect: exactly 100 (bp = 1)
    assert corpus_bleu(["a b c d", "x y z w"], ["a b c d", "x y z w"]) == \
        pytest.approx(100.0)


def test_bleu_clipping_and_zero_orders():
    # repeated unigram is clipped to the reference count; no bigram matches
    assert corpus_bleu(["the the the the"], ["the cat"]) == 0.0
    # short corpus has no trigrams at all
    assert corpus_bleu(["a b"], ["a b"]) == 0.0


def test_bleu_pools_counts_over_the_corpus():
    hyps = ["a b c d", "a b c d"]
    refs = ["a b c d", "a b c e"]
    p1, p2, p3, p4 = 7 / 8, 5 / 6, 3 / 4, 1 / 2
    expect = 100.0 * math.exp(sum(math.log(p) for p in (p1, p2, p3, p4)) / 4)
    assert corpus_bleu(hyps, refs) == pytest.approx(expect, abs=1e-9)
    # pair order cannot matter
    assert corpus_bleu(hyps[::-1], refs[::-1]) == pytest.approx(expect, abs=1e-9)


def test_bleu_accepts_token_lists():
    ids = [[4, 5, 6, 7]]
    assert corpus_bleu(ids, ids) == pytest.approx(100.0)
    assert corpus_bleu([["a", "b", "c", "d"]], ["a b c d"]) == pytest.approx(100.0)


def test_bleu_input_validation():
    with pytest.raises(DataError):
        corpus_bleu(["a"], ["a", "b"])
    with pytest.raises(DataError):
        corpus_bleu([], [])
    with pytest.raises(DataError):
        corpus_bleu(["a b"], [""])
    assert corpus_bleu([""], ["a b"]) == 0.0  # empty hypothesis scores zero
