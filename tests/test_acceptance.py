"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single '[criterion NN] PASS/FAIL - detail' line before
asserting, so a plain verbose pytest run doubles as the checklist. Two
companion tests are expected to fail and are marked strict-xfail: they pin
down readings of the parameter table that the arithmetic itself rules out.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

import wideffn as w
from wideffn.bench import (
    batch_size_sweep,
    decode_beam,
    decode_greedy,
    paired_delta_pct,
    score_sequence,
)
from wideffn.checkpoint import (
    checkpoint_bytes,
    load_checkpoint,
    load_model_checkpoint,
    save_checkpoint,
    save_model_checkpoint,
)
from wideffn.cli import write_csv
from wideffn.config import (
    ModelConfig,
    PRESETS,
    deep_enc_shallow_dec,
    one_wide_dff,
    transformer_base,
    transformer_big,
)
from wideffn.counting import count_params
from wideffn.errors import ConfigError
from wideffn.sharing import FFNStrategy, resolve_ffn_assignment
from wideffn.similarity import linear_cka, lns, normalize_against_benchmark
from wideffn.tensor import ComputeTape, grad_check, recording
from wideffn.training import AdamState, Schedule, adam_step, token_accuracy, train
from wideffn.vocab import EOS, generate_toy_task

from conftest import Scripted, tiny_config
from test_params import percent_of_baseline


def _line(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# The Big shape ships with a 50,000-entry shared source+target vocabulary;
# every published ratio below is computed against that embedding size.
EFFECTIVE_VOCAB = 50_000

# preset (with optional explicit shared width) -> (percent of baseline,
# absolute total in millions)
PERCENT_TABLE = [
    ("baseline", None, 100, 228),
    ("SharedEnc", None, 82, 186),
    ("SharedDec", None, 82, 186),
    ("SharedEncSharedDec", None, 63, 144),
    ("SharedEncDec", None, 59, 136),
    ("NoEnc", None, 78, 178),
    ("NoDec", None, 78, 178),
    ("NoEncNoDec", None, 56, 127),
    ("SharedEncNoDec", None, 60, 135),
    ("NoEncSharedDec", None, 60, 135),
    ("OneWideFFN", 49_152, 100, 228),
    ("SharedEncNoDec", 98_304, 145, 328),
]


def _configured(preset: str, width: int | None, vocab: int) -> ModelConfig:
    cfg = w.apply_preset(transformer_big(vocab_size=vocab), preset)
    if width is not None and preset != "OneWideFFN":
        cfg = dataclasses.replace(cfg, d_ff_shared=width)
    return cfg


def test_c01_parameter_accounting_percentages():
    t0 = time.perf_counter()
    worst = 0.0
    for preset, width, pct, millions in PERCENT_TABLE:
        cfg = _configured(preset, width, EFFECTIVE_VOCAB)
        got_pct = percent_of_baseline(cfg)
        got_m = count_params(cfg)[0] / 1e6
        assert abs(got_pct - pct) <= 1.0, (preset, width, got_pct, pct)
        assert abs(round(got_m) - millions) <= 1, (preset, width, got_m, millions)
        worst = max(worst, abs(got_pct - pct))
    elapsed = time.perf_counter() - t0
    _line(1, elapsed < 1.0,
          f"12 sharing configurations within +/-1 point (worst {worst:.2f}) "
          f"and +/-1M absolute in {elapsed * 1000:.0f} ms")


@pytest.mark.xfail(
    strict=True,
    reason="a 32,000-entry embedding shifts every sharing ratio about two "
    "points below the published targets; the absolute totals pin the "
    "embedding at 50,000 entries",
)
def test_c01_percentages_under_32k_vocab():
    deltas = [
        abs(percent_of_baseline(_configured(p, width, 32_000)) - pct)
        for p, width, pct, _ in PERCENT_TABLE
    ]
    ok = all(d <= 1.0 for d in deltas)
    _line(1, ok, f"32k-vocab reading: worst deviation {max(deltas):.2f} points")


@pytest.mark.xfail(
    strict=True,
    reason="a single 24,576-wide encoder FFN with no decoder FFNs is 77.9% "
    "of baseline, not 80: the published percent disagrees with its own "
    "absolute count (177M/228M)",
)
def test_c01_shared_enc_width_24576_reads_80():
    cfg = _configured("SharedEncNoDec", 24_576, EFFECTIVE_VOCAB)
    got = percent_of_baseline(cfg)
    assert round(count_params(cfg)[0] / 1e6) == 177  # the absolute count holds
    _line(1, abs(got - 80) <= 1.0, f"width 24,576 gives {got:.2f}% of baseline")


def test_c02_wide_ffn_sizing_identities():
    pairs = [
        (transformer_big(), 49_152),
        (transformer_base(), 24_576),
        (deep_enc_shallow_dec(), 57_344),
    ]
    got = [one_wide_dff(cfg) for cfg, _ in pairs]
    ok = got == [want for _, want in pairs]
    _line(2, ok, f"(n_enc+n_dec)*d_ff widths {got[0]:,} / {got[1]:,} / {got[2]:,}")


def test_c03_gradients_match_finite_differences_under_every_preset():
    t0 = time.perf_counter()
    worst_overall = 0.0
    for preset in PRESETS:
        cfg = w.apply_preset(tiny_config(), preset)
        model = w.build_model(cfg, seed=0)

        def forward(params, model=model):
            loss, _ = model.loss_for_pair([([4, 5, 6, 7], [7, 6, 5, 4])])
            return loss

        worst = grad_check(forward, model.store.physical.values(), eps=1e-3,
                           coords_per_tensor=2, seed=0)
        assert worst < 1e-3, (preset, worst)
        worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - t0
    _line(3, elapsed < 60.0,
          f"11 presets, worst relative error {worst_overall:.2e} in {elapsed:.1f} s")


def _synchronize_untied_with(tied, untied):
    for name, tensor in untied.store.physical.items():
        if name.startswith("enc.ffn"):
            part = name.split(".", 2)[2]
            tensor.data[...] = tied.store.physical[f"enc.ffn0.{part}"].data
        else:
            tensor.data[...] = tied.store.physical[name].data


def test_c04_tying_invariants():
    cfg_tied = w.apply_preset(tiny_config(n_enc=4, n_dec=2), "SharedEnc")
    cfg_untied = tiny_config(n_enc=4, n_dec=2)
    tied = w.build_model(cfg_tied, seed=0)
    untied = w.build_model(cfg_untied, seed=1)
    _synchronize_untied_with(tied, untied)
    src, tgt = [4, 5, 6, 7, 8], [8, 7, 6, 5, 4]
    parts = ("w1", "b1", "w2", "b2", "ln_gain", "ln_bias")

    # (a) forwards agree bit for bit
    loss_t, _ = tied.loss_for_pair([(src, tgt)])
    loss_u, _ = untied.loss_for_pair([(src, tgt)])
    bit_identical = loss_t.data.tobytes() == loss_u.data.tobytes()

    # (b) the tied gradient is the sum of the per-site gradients
    def grads(model):
        model.store.zero_grad()
        tape = ComputeTape()
        with recording(tape):
            loss, _ = model.loss_for_pair([(src, tgt)])
        tape.backward(loss)

    grads(tied)
    grads(untied)
    grad_rel = 0.0
    for part in parts:
        g_tied = tied.store.physical[f"enc.ffn0.{part}"].grad.astype(np.float64)
        g_sum = sum(
            untied.store.physical[f"enc.ffn{i}.{part}"].grad.astype(np.float64)
            for i in range(4)
        )
        scale = max(np.abs(g_sum).max(), 1e-12)
        grad_rel = max(grad_rel, float(np.abs(g_tied - g_sum).max() / scale))

    # (c) ten optimizer steps stay on the same trajectory when the untied
    # sites are fed the family-summed gradient each step
    state_t = AdamState(tied.store)
    state_u = AdamState(untied.store)
    for _ in range(10):
        grads(tied)
        grads(untied)
        for part in parts:
            fam = sum(
                untied.store.physical[f"enc.ffn{i}.{part}"].grad.astype(np.float64)
                for i in range(4)
            ).astype(np.float32)
            for i in range(4):
                untied.store.physical[f"enc.ffn{i}.{part}"].grad = fam.copy()
        adam_step(tied.store, state_t, lr=1e-3)
        adam_step(untied.store, state_u, lr=1e-3)
    traj_rel = 0.0
    for part in parts:
        wt = tied.store.physical[f"enc.ffn0.{part}"].data.astype(np.float64)
        scale = max(np.abs(wt).max(), 1e-12)
        for i in range(4):
            wu = untied.store.physical[f"enc.ffn{i}.{part}"].data.astype(np.float64)
            traj_rel = max(traj_rel, float(np.abs(wu - wt).max() / scale))

    ok = bit_identical and grad_rel < 1e-6 and traj_rel < 1e-5
    _line(4, ok,
          f"forward bit-identical={bit_identical}, grad-sum rel {grad_rel:.2e} "
          f"(<1e-6), 10-step trajectory rel {traj_rel:.2e} (<1e-5)")


def test_c05_similarity_math():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 30))
        a = rng.standard_normal((n, int(rng.integers(3, 9))))
        b = rng.standard_normal((n, int(rng.integers(3, 9))))
        q, _ = np.linalg.qr(rng.standard_normal((a.shape[1], a.shape[1])))
        s = float(rng.uniform(0.1, 10.0))
        worst = max(
            worst,
            abs(linear_cka(a, a) - 1.0),
            abs(linear_cka(a, b) - linear_cka(b, a)),
            abs(linear_cka(a @ q, b) - linear_cka(a, b)),
            abs(linear_cka(s * a, b) - linear_cka(a, b)),
        )
    cka_ok = worst < 1e-9

    space = rng.standard_normal((40, 6))
    identity_ok = lns(space, space.copy(), k=3) == 1.0

    a50 = rng.standard_normal((50, 7))
    b50 = rng.standard_normal((50, 7))
    k = 4

    def oracle(x, i):
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        dist = 1.0 - unit @ unit[i]
        dist[i] = np.inf
        order = np.lexsort((np.arange(len(x)), dist))
        return set(order[:k].tolist())

    brute = 0.0
    for i in range(50):
        sa, sb = oracle(a50, i), oracle(b50, i)
        brute += len(sa & sb) / len(sa | sb)
    brute /= 50
    brute_ok = lns(a50, b50, k=k) == brute

    norm = normalize_against_benchmark(0.94, [0.96, 0.96])
    norm_ok = abs(norm - 97.6) <= 0.5

    ok = cka_ok and identity_ok and brute_ok and norm_ok
    _line(5, ok,
          f"CKA invariances worst {worst:.1e} (<1e-9) over 100 draws, "
          f"LNS identity=1 and equals brute force, 0.94/(0.96,0.96) -> {norm:.2f}")


def test_c06_assignment_patterns_and_grouped_counts():
    def assign(spec, n=6):
        return resolve_ffn_assignment(FFNStrategy.parse(spec), n)

    patterns_ok = (
        assign("Sequence(1)") == [0] * 6
        and assign("Sequence(2)") == [0, 0, 0, 1, 1, 1]
        and assign("Sequence(3)") == [0, 0, 1, 1, 2, 2]
        and assign("Cycle(1)") == [0] * 6
        and assign("Cycle(2)") == [0, 1, 0, 1, 0, 1]
        and assign("Cycle(3)") == [0, 1, 2, 0, 1, 2]
        and assign("CycleRev(3)") == [0, 1, 2, 2, 1, 0]
    )
    for spec in ("CycleRev(1)", "CycleRev(2)"):
        with pytest.raises(ConfigError):
            assign(spec)

    base = transformer_big(vocab_size=EFFECTIVE_VOCAB)
    sharing = dataclasses.replace(base.sharing, enc_ffn=FFNStrategy.parse("Cycle(3)"))
    cfg = dataclasses.replace(base, sharing=sharing)
    pct = percent_of_baseline(cfg)
    cycle_ok = abs(pct - 88.0) <= 1.0 and round(count_params(cfg)[0] / 1e6) == 202

    _line(6, patterns_ok and cycle_ok,
          f"block/checkerboard/palindrome layouts for 6 layers, "
          f"3-FFN cycle on the encoder = {pct:.2f}% of baseline (202M)")


def test_c07_toy_training_reaches_95_percent(toy_corpus):
    t0 = time.perf_counter()
    shape = dict(n_enc=2, n_dec=2, d_model=32, d_ff=64, heads=2,
                 vocab_size=20, dropout=0.0)
    sched = Schedule(base_lr=2e-3, warmup_steps=100)
    results = {}
    for preset in ("baseline", "SharedEncNoDec", "OneWideFFN"):
        cfg = w.apply_preset(ModelConfig(**shape), preset)
        model = w.build_model(cfg, seed=1)
        state = AdamState(model.store)
        steps = 0
        acc = 0.0
        while steps < 2000:
            train(model, toy_corpus, steps=100, batch_size=32, seed=steps,
                  schedule=sched, state=state)
            steps += 100
            acc = token_accuracy(model, toy_corpus, limit=64)
            if acc >= 0.95:
                break
        results[preset] = (acc, steps)
        assert acc >= 0.95, (preset, acc, steps)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    summary = ", ".join(f"{p} {a:.3f}@{s}" for p, (a, s) in results.items())
    _line(7, ok, f"copy-task accuracy {summary} steps in {elapsed:.0f} s")


C08_RUNS = 10


def test_c08_dropping_decoder_ffns_speeds_up_decoding(tmp_path):
    shape = dict(n_enc=2, n_dec=2, d_model=64, d_ff=128, heads=2,
                 vocab_size=20, dropout=0.0)
    base = w.build_model(ModelConfig(**shape), seed=3)
    nodec = w.build_model(w.apply_preset(ModelConfig(**shape), "NoDec"), seed=3)
    corpus = generate_toy_task("copy", 12, (4, 7), 20, seed=3)

    # Both models decode each sentence back to back, the first of them
    # alternating pair by pair, and the median of the per-sentence rate ratios
    # compares them: a slowdown that comes and goes slows both sides of a pair.
    margin = paired_delta_pct(base, nodec, corpus, batch_size=1, beam=1, runs=C08_RUNS,
                              max_len=10)
    direction_ok = margin > 0

    rows = batch_size_sweep([("baseline", base), ("nodec", nodec)],
                            [1, 2, 4, 8], corpus, beam=1, runs=2, max_len=10)
    csv_path = str(tmp_path / "throughput.csv")
    write_csv(csv_path,
              ["config", "batch_size", "tokens_per_sec", "std", "delta_pct",
               "n_batches"],
              rows, comment="nondeterministic: timing")
    lines = open(csv_path).read().splitlines()
    csv_ok = (
        lines[0] == "# nondeterministic: timing"
        and lines[1].split(",") == ["config", "batch_size", "tokens_per_sec",
                                    "std", "delta_pct", "n_batches"]
        and len(lines) == 2 + 2 * 4
        and [r["batch_size"] for r in rows] == [1, 1, 2, 2, 4, 4, 8, 8]
    )

    _line(8, direction_ok and csv_ok,
          f"no-decoder-FFN decodes {margin:+.1f}% vs baseline at batch 1 "
          f"(median of {C08_RUNS * len(corpus)} sentence-paired rate ratios); "
          f"sweep CSV has 2 configs x batch sizes 1,2,4,8")


def test_c09_checkpoint_byte_economics(tmp_path):
    cfg = tiny_config(n_enc=4, n_dec=4)
    shared_cfg = w.apply_preset(cfg, "SharedEnc")
    base = w.build_model(cfg, seed=0)
    shared = w.build_model(shared_cfg, seed=0)

    p_base = str(tmp_path / "base.ckpt")
    p_shared = str(tmp_path / "shared.ckpt")
    save_checkpoint(base.store, p_base)
    save_checkpoint(shared.store, p_shared)
    import os
    observed = os.path.getsize(p_base) - os.path.getsize(p_shared)
    predicted = 4 * (count_params(cfg)[0] - count_params(shared_cfg)[0])
    delta_ok = abs(observed - predicted) <= 1024

    blob = checkpoint_bytes(shared.store)
    round_trip = checkpoint_bytes(load_checkpoint(p_shared)) == blob

    p_model = str(tmp_path / "model.ckpt")
    save_model_checkpoint(shared, p_model)
    reloaded = load_model_checkpoint(p_model)
    save_model_checkpoint(reloaded, str(tmp_path / "model2.ckpt"))
    file_round_trip = (
        open(p_model, "rb").read() == open(str(tmp_path / "model2.ckpt"), "rb").read()
    )

    ok = delta_ok and round_trip and file_round_trip
    _line(9, ok,
          f"sharing saves {observed:,} bytes vs {predicted:,} predicted "
          f"(within 1 KiB); round-trips byte-identical")


def test_c10_beam_one_is_greedy_and_wider_beams_win():
    rng = np.random.default_rng(0)
    cfg = tiny_config(n_enc=1, n_dec=1)
    agree = 0
    for i in range(100):
        model = w.build_model(cfg, seed=1000 + i)
        src = rng.integers(4, cfg.vocab_size, size=int(rng.integers(3, 7))).tolist()
        g = decode_greedy(model, src, max_len=5)
        b = decode_beam(model, src, beam=1, max_len=5)
        assert b == g, (i, src, g, b)
        agree += 1

    scripted = Scripted({
        (): {3: 0.50, 4: 0.45},
        (3,): {EOS: 0.34, 3: 0.33, 4: 0.32},
        (4,): {EOS: 0.90, 3: 0.05},
    })
    greedy = decode_greedy(scripted, [7], max_len=4)
    beam2 = decode_beam(scripted, [7], beam=2, max_len=4)
    better = (
        score_sequence(scripted, [7], beam2, ended=True)
        > score_sequence(scripted, [7], greedy, ended=True)
    )
    best_seq, best_score = None, -np.inf
    for n in range(0, 4):
        for seq in itertools.product([0, 1, 3, 4], repeat=n):
            s = score_sequence(scripted, [7], list(seq), ended=True)
            if s > best_score:
                best_seq, best_score = list(seq), s
    for seq in itertools.product([0, 1, 3, 4], repeat=4):
        s = score_sequence(scripted, [7], list(seq), ended=False)
        if s > best_score:
            best_seq, best_score = list(seq), s
    exhaustive_ok = beam2 == best_seq != greedy

    ok = agree == 100 and better and exhaustive_ok
    _line(10, ok,
          f"beam=1 matched greedy on {agree}/100 random models; width-2 beam "
          f"recovers the enumerated optimum {best_seq} where greedy picks {greedy}")
