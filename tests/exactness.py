"""Digests of outputs that a change claiming bitwise-equal results must not move.

One sha256 per family:
- train: checkpoint bytes and losses after 12 training steps of baseline,
  NoDec, SharedEncDec, OneWideFFN and a decoder-only model, each at dropout
  0 and 0.3;
- decode: greedy, beam-4 and batch-8 tokens, and `DecodeRows` step logits,
  of five models at the benchmark's decode shape (d=256, 6+6 layers, vocab
  1000);
- analyze: teacher-forced logits and every tap of padded probe batches at
  the benchmark's analyze shape (d=64, 4+4 layers, vocab 100), each pair's
  real rows only: a pad row is no pair's output, so a change that computes
  real rows alone may leave it anything;
- similarity: every file that `compare --metric lns` (default k, and
  `--k 3` with `--benchmark`), `compare --metric cka --benchmark` and
  `selfsim` write at the analyze shape, the kNN tables of one space that
  spans several row blocks of `similarity.knn`, ties and all-zero rows
  included, and, at k = 1 and 7, the LNS matrices and aggregates of three
  synthetic tap sets of 1,000 rows with ties and all-zero rows: a full
  matrix, an aggregate-only one and a self-similarity upper triangle;
- dhead32: checkpoint bytes and losses after 12 training steps of a
  baseline whose heads are 32 wide (d=64, 2 heads), at dropout 0 and 0.3;
- grad: the gradient bytes of every physical tensor after one taped
  `loss_for_pair` step of a padded batch, before any update, of baseline,
  OneWideFFN and a decoder-only model at d=24, each at dropout 0 and 0.3.
  A last-bit change in a gradient can vanish in an update; here it shows,
  and sqrt(24) is no power of two, so a reordered product by it shows too.

Float results hold only for the numpy build, BLAS configuration and CPU
they were made with, so the file records `environment()` beside the
digests, and tests/test_exactness.py compares nothing under another one.
Rewrite the file (BLAS pinned to one thread) with

    PYTHONPATH=src python tests/exactness.py

which prints, for each family, whether its digest is the same as in the file
it replaces, moved, new or gone.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib
import hashlib
import io
import json
import platform
import tempfile

import numpy as np

import wideffn as w
from wideffn import cli
from wideffn.bench import decode_beam, decode_corpus, decode_greedy
from wideffn.checkpoint import checkpoint_bytes, save_model_checkpoint
from wideffn.similarity import ActivationMatrix, knn, pairwise_layer_similarity
from wideffn.tensor import ComputeTape, recording
from wideffn.training import train
from wideffn.vocab import BOS, generate_toy_task

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "exactness_digests.json")
PRESETS = ("baseline", "NoDec", "SharedEncDec", "OneWideFFN")
TRAIN_SHAPE = dict(n_enc=2, n_dec=2, d_model=32, d_ff=64, heads=2, vocab_size=20)
DECODE_SHAPE = dict(n_enc=6, n_dec=6, d_model=256, d_ff=1024, heads=8, vocab_size=1000,
                    max_len=64, dropout=0.0)
ANALYZE_SHAPE = dict(n_enc=4, n_dec=4, d_model=64, d_ff=256, heads=4, vocab_size=100,
                     max_len=64, dropout=0.0)
DHEAD32_SHAPE = dict(n_enc=2, n_dec=2, d_model=64, d_ff=128, heads=2, vocab_size=20)
GRAD_SHAPE = dict(n_enc=2, n_dec=2, d_model=24, d_ff=48, heads=2, vocab_size=20)


def _models(shape: dict, seed: int):
    """(name, model) of every preset plus a decoder-only baseline at `shape`."""
    for preset in PRESETS:
        yield preset, w.build_model(w.apply_preset(w.ModelConfig(**shape), preset), seed=seed)
    dec_only = w.ModelConfig(**{**shape, "n_enc": 0, "architecture": "decoder-only"})
    yield "decoder-only", w.build_model(dec_only, seed=seed)


def _train_family(h):
    corpus = generate_toy_task("copy", 96, (3, 8), TRAIN_SHAPE["vocab_size"], seed=7)
    for dropout in (0.0, 0.3):
        for _, model in _models({**TRAIN_SHAPE, "dropout": dropout}, seed=1):
            losses = train(model, corpus, steps=12, batch_size=16, seed=2)
            h.update(np.asarray(losses, dtype=np.float64).tobytes())
            h.update(checkpoint_bytes(model.store))


def _decode_family(h):
    srcs = [src for src, _ in generate_toy_task("copy", 9, (5, 8), DECODE_SHAPE["vocab_size"],
                                                seed=3).pairs]
    for _, model in _models(DECODE_SHAPE, seed=0):
        h.update(np.asarray(decode_greedy(model, srcs[0], max_len=6)).tobytes())
        h.update(np.asarray(decode_beam(model, srcs[1], beam=4, max_len=4)).tobytes())
        for out in decode_corpus(model, srcs[1:], batch_size=8, beam=1, max_len=4):
            h.update(np.asarray(out).tobytes())
        rows = model.decode_rows(srcs[:3])  # ragged sources, reordered after two steps
        h.update(rows.step([BOS] * 3).tobytes())
        h.update(rows.step([7, 8, 9]).tobytes())
        rows.keep([2, 0, 0])
        h.update(rows.step([10, 11, 12]).tobytes())


def _real_rows(model, pairs: list, side: str, rows: np.ndarray) -> np.ndarray:
    """The rows of a `teacher_forced` output on `side` that hold a pair's
    inputs: the first len(inputs) rows of each pair's block, in batch order."""
    block = rows.shape[0] // len(pairs)
    return np.concatenate([rows[b * block : b * block + len(model.inputs(src, tgt)[side])]
                           for b, (src, tgt) in enumerate(pairs)])


def _analyze_family(h):
    pairs = generate_toy_task("copy", 24, (3, 9), ANALYZE_SHAPE["vocab_size"], seed=5).pairs
    for _, model in _models(ANALYZE_SHAPE, seed=0):
        logits, taps = model.teacher_forced(pairs)
        h.update(_real_rows(model, pairs, "decoder", logits.data).tobytes())
        for side in sorted(taps):
            for name in sorted(taps[side]):
                h.update(_real_rows(model, pairs, side, taps[side][name].data).tobytes())


def _similarity_family(h):
    with tempfile.TemporaryDirectory() as d:
        ckpt = {}
        for preset in ("baseline", "OneWideFFN", "SharedEncDec"):
            cfg = w.apply_preset(w.ModelConfig(**ANALYZE_SHAPE), preset)
            ckpt[preset] = os.path.join(d, f"{preset}.bin")
            save_model_checkpoint(w.build_model(cfg, seed=0), ckpt[preset])
        run = os.path.join(d, "run.yaml")
        model = ", ".join(f"{k}: {v}" for k, v in ANALYZE_SHAPE.items())
        with open(run, "w", encoding="utf-8") as f:
            f.write(f"seed: 0\nmodel: {{{model}}}\ntask: {{kind: copy, count: 32, "
                    f"len_range: [3, 9], vocab_size: {ANALYZE_SHAPE['vocab_size']}, seed: 5}}\n")
        pair = ["--config", run, "--a", ckpt["baseline"], "--b", ckpt["OneWideFFN"]]
        verbs = {
            "lns": ["compare", *pair, "--metric", "lns"],
            "lns_k3": ["compare", *pair, "--metric", "lns", "--k", "3",
                       "--benchmark", ckpt["SharedEncDec"]],
            "cka": ["compare", *pair, "--metric", "cka", "--benchmark", ckpt["SharedEncDec"]],
            "selfsim": ["selfsim", "--config", run, "--checkpoint", ckpt["baseline"]],
        }
        for name, argv in verbs.items():
            out = os.path.join(d, name)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([*argv, "--out-dir", out]) == 0, name
            for file in sorted(os.listdir(out)):
                h.update(file.encode())
                with open(os.path.join(out, file), "rb") as f:
                    h.update(f.read())
    rng = np.random.default_rng(11)
    space = rng.standard_normal((1000, 8)).astype(np.float32)
    space[rng.integers(0, 1000, 200)] = space[rng.integers(0, 1000, 200)]  # exact ties
    space[[0, 517, 999]] = 0.0
    for k in (1, 7, 999):
        h.update(knn(space, k).tobytes())
    a, b, c = _synthetic_tap_sets(rng)
    for k in (1, 7):
        for report in (pairwise_layer_similarity(a, b, metric="lns", k=k),
                       pairwise_layer_similarity(a, c, metric="lns", k=k, aggregate_only=True),
                       pairwise_layer_similarity(a, a, metric="lns", k=k)):
            h.update(report.matrix.tobytes())
            h.update(np.float64(report.aggregate).tobytes())


def _synthetic_tap_sets(rng, n: int = 1000, d: int = 8):
    """Three tap sets over one n-row probe, the third missing some of the
    first's names, of float32 spaces with repeated rows (exact ties) and
    all-zero rows: big enough that LNS over them spans several row blocks."""
    base = rng.standard_normal((n, d)).astype(np.float32)
    sets = []
    for names in (("0.sa", "0.ffn", "1.sa", "1.ffn"), ("0.sa", "0.ffn", "1.sa", "1.ffn"),
                  ("0.sa", "1.sa", "1.ffn")):
        taps = {}
        for name in names:
            space = base + rng.normal(0.0, 0.5, (n, d)).astype(np.float32)
            space[rng.integers(0, n, n // 5)] = space[rng.integers(0, n, n // 5)]
            space[rng.integers(0, n, 3)] = 0.0
            taps[name] = ActivationMatrix(space, "synthetic")
        sets.append(taps)
    return sets


def _dhead32_family(h):
    corpus = generate_toy_task("copy", 96, (3, 8), DHEAD32_SHAPE["vocab_size"], seed=7)
    for dropout in (0.0, 0.3):
        model = w.build_model(w.ModelConfig(**DHEAD32_SHAPE, dropout=dropout), seed=1)
        losses = train(model, corpus, steps=12, batch_size=16, seed=2)
        h.update(np.asarray(losses, dtype=np.float64).tobytes())
        h.update(checkpoint_bytes(model.store))


def _grad_family(h):
    pairs = generate_toy_task("copy", 8, (3, 8), GRAD_SHAPE["vocab_size"], seed=7).pairs
    for dropout in (0.0, 0.3):
        for name, model in _models({**GRAD_SHAPE, "dropout": dropout}, seed=1):
            if name not in ("baseline", "OneWideFFN", "decoder-only"):
                continue
            tape = ComputeTape()
            with recording(tape):
                loss, _ = model.loss_for_pair(pairs, rng=np.random.default_rng(2))
            tape.backward(loss)
            for t in model.store.physical.values():
                h.update(t.grad.tobytes())


FAMILIES = {"train": _train_family, "decode": _decode_family, "analyze": _analyze_family,
            "similarity": _similarity_family, "dhead32": _dhead32_family, "grad": _grad_family}


def environment() -> dict:
    """What the float results depend on besides the code: numpy and its
    BLAS build, the SIMD extensions found at run time, the CPU and the BLAS
    thread count."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            names = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
        cpu = names[0] if names else cpu
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})",
        "simd": config["SIMD Extensions"]["found"],
        "machine": platform.machine(),
        "cpu": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def digests() -> dict[str, str]:
    out = {}
    for name, family in FAMILIES.items():
        h = hashlib.sha256()
        family(h)
        out[name] = h.hexdigest()
    return out


def write(path: str = DIGEST_FILE):
    """Rewrite the digest file, printing each family's digest against the
    one in the file it replaces: same, moved, new or gone."""
    old = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            old = json.load(f)["digests"]
    payload = {"environment": environment(), "digests": digests()}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    for name, digest in payload["digests"].items():
        print(f"{name}: {'new' if name not in old else 'same' if old[name] == digest else 'moved'}")
    for name in old.keys() - payload["digests"].keys():
        print(f"{name}: gone")


if __name__ == "__main__":
    write()
