"""The benchmark's three workloads.

Each workload is a fixed plan of operations built from the run's seed and
executed in passes by one caller, closed loop: the next operation starts
when the previous one returns. An operation is one decoded sentence, one
training step or one CLI verb call. Every pass of a plan does the same
work, so a pass's exact counts repeat pass to pass and run to run.

Model weights come from fixed seeds; `--seed` picks the inputs (source
sentences, training pairs, probe corpus). The anchor checks rerun fixed
inputs whose outputs are committed in reference.json.

Every call into wideffn goes through a module attribute (`bench.decode_greedy`,
`training.train`, `cli.main`, ...), never a name imported here, so a traced
pass sees the tracing wrappers.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from wideffn import bench, checkpoint, cli, config, training, transformer, vocab

WEIGHT_SEED = 0
# Inputs of the anchor checks; their outputs are committed in reference.json.
ANCHOR_SEED = 20230901

# Teacher-forced rows must rank the greedy token within this many logits of
# the best token, and the step logits must equal the teacher-forced row of the
# same position within LOGIT_TOL (float32 on the same path, different lengths).
TIE_TOL = 1e-4
LOGIT_TOL = 1e-4
# Training losses against the committed trajectory, relative.
LOSS_TOL = 1e-5
# Similarity aggregates and matrix cells against the committed values.
SIM_TOL = 1e-6


def calibrate() -> float:
    """Seconds for a fixed piece of work that does not touch wideffn.

    Interpreter loops, dict updates, small numpy ops, one BLAS matmul and
    the allocation of many short-lived objects, roughly the mix of the
    workloads.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 64)).astype(np.float32)
    b = rng.standard_normal((64, 64)).astype(np.float32)
    big = rng.standard_normal((64, 256)).astype(np.float32)
    w = rng.standard_normal((256, 256)).astype(np.float32)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100):
        x = np.maximum(a @ b, 0.0)
        x = x - x.max(axis=1, keepdims=True)
        acc += float(np.exp(x).sum())
        table = {j: j * i for j in range(32)}
        acc += sum(table.values())
    acc += float((big @ w).sum())
    # Allocation and collection of short-lived containers and arrays, which
    # the tape and the per-token lists of the workloads also do.
    keep = []
    for i in range(1500):
        keep.append(({"a": i, "b": [i, i + 1]}, (i, str(i)), np.empty(16, np.float32)))
    acc += len(keep)
    del keep
    seconds = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration overflowed")
    return seconds


class Calibrator:
    """Machine speed around each operation.

    On a shared machine the speed of all code drifts by tens of percent over
    minutes as neighbours come and go. calibrate() runs after every
    operation and every set-up; a time divided by the median of the last
    WINDOW calibration times, the latest taken just after it, cancels most
    of that drift, so the `_rel` metrics and setup_s move when wideffn does
    and much less when the machine does. The median ignores a single
    calibration slowed by a garbage collection or a neighbour's burst.
    """

    WINDOW = 7

    def __init__(self):
        self.recent: collections.deque = collections.deque(maxlen=self.WINDOW)

    def bracket(self) -> float:
        self.recent.append(calibrate())
        return float(np.median(self.recent))


@dataclass
class Op:
    kind: str
    label: str
    index: int
    seconds: float
    tokens: int
    ok: bool
    calib: float  # calibration seconds around the operation (Calibrator.bracket)


@dataclass
class Record:
    """What a run measured: timed operations plus untimed check results."""

    ops: list[Op] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    anchor_tokens: int = 0
    anchor_matches: int = 0
    # Called before each operation; a traced run starts a new request id here.
    before_op: object = None
    calibrator: Calibrator = field(default_factory=Calibrator)

    def check(self, label: str, ok: bool, detail: str = ""):
        self.checks.append((label, ok))
        if not ok:
            self.problems.append(f"{label}: {detail}")
        return ok


def run_op(rec: Record, kind: str, label: str, index: int, fn, verify) -> Op:
    """Time one operation, then verify its result outside the timed span.

    `verify(result)` returns (tokens, ok, detail). An exception from the
    operation or its check fails the operation and the run goes on.
    """
    if rec.before_op is not None:
        rec.before_op()
    t0 = time.perf_counter()
    try:
        result = fn()
        seconds = time.perf_counter() - t0
        tokens, ok, detail = verify(result)
    except Exception:
        seconds = time.perf_counter() - t0
        tokens, ok, detail = 0, False, traceback.format_exc(limit=3)
    op = Op(kind, label, index, seconds, tokens, ok, rec.calibrator.bracket())
    rec.ops.append(op)
    if not ok:
        rec.problems.append(f"{kind} {label} #{index}: {detail}")
    return op


class Workload:
    """One plan of operations. Subclasses define the plan and its checks."""

    name = ""
    # What one operation and one pass are, for the printed report.
    op_is = ""
    pass_is = ""
    # Whether a later pass must reproduce the first pass's outputs exactly.
    repeatable = True

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        # Outputs of the first pass; later passes must reproduce them.
        self.first: dict = {}

    def setup(self):
        raise NotImplementedError

    def plan(self) -> list:
        """Operations of one pass: (kind, label, index, fn, verify).

        `verify(seen)` gets what `observe` makes of the operation's result
        and returns (tokens, ok, detail). It runs on the first pass, and on
        every pass of a workload that is not `repeatable`.
        """
        raise NotImplementedError

    def observe(self, label: str, result):
        """The output of an operation that later passes must reproduce."""
        return result

    def warmup(self):
        """Run each operation kind once, untimed."""
        raise NotImplementedError

    def anchor(self, rec: Record, reference: dict):
        raise NotImplementedError

    def make_reference(self) -> dict:
        raise NotImplementedError

    def run_pass(self, rec: Record, deadline: float | None = None) -> bool:
        """Execute the plan once; returns False if cut short by `deadline`."""
        for kind, label, index, fn, verify_first in self.plan():
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            key = (kind, label, index)

            def verify(result, key=key, verify_first=verify_first):
                seen = self.observe(key[1], result)
                if not self.repeatable or key not in self.first:
                    tokens, ok, detail = verify_first(seen)
                    self.first[key] = (seen, tokens)
                    return tokens, ok, detail
                first, tokens = self.first[key]
                return tokens, _same(seen, first), "output differs from the first pass"

            run_op(rec, kind, label, index, fn, verify)
        return True

    def expected_counts(self) -> dict:
        """Exact counts every traced pass must show."""
        return {"tensor.tape_nodes": 0}

    def primary(self, ops: list[Op]) -> list[Op]:
        """Operations whose latency is the workload's op_ms_p50 (see op_median)."""
        raise NotImplementedError

    def report(self, ops: list[Op]) -> list[tuple[str, float, str, str]]:
        """Workload-specific end-to-end figures: (name, value, unit, note)."""
        raise NotImplementedError


def _same(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return a == b


def latency_figures(prefix: str, seconds: list[float]) -> list[tuple[str, float, str, str]]:
    """Median plus the highest whole percentile with at least ten samples beyond it."""
    n = len(seconds)
    ms = np.asarray(seconds) * 1e3
    rows = [(f"{prefix}_ms_p50", float(np.median(ms)), "ms", f"n={n}")]
    q = min(99, math.floor(100 * (1 - 10 / n)))
    if q > 50:
        rows.append((f"{prefix}_ms_p{q}", float(np.percentile(ms, q)), "ms", f"n={n}"))
    return rows


def plan_medians(ops: list[Op], relative: bool = False) -> list[tuple[float, int]]:
    """(median seconds, tokens) of each planned operation over all passes;
    with `relative`, seconds in units of the calibration time."""
    by_key: dict = {}
    for op in ops:
        by_key.setdefault((op.kind, op.label, op.index), []).append(op)
    return [(float(np.median([o.seconds / (o.calib if relative else 1.0) for o in v])),
             v[0].tokens) for v in by_key.values()]


def op_median(ops: list[Op], relative: bool = False) -> float:
    """Geometric mean over operation labels (models, presets, verbs) of each
    label's median time, so that every label moves the figure and none is
    picked out by where its times fall in a pooled median; with `relative`,
    in units of the calibration time."""
    by_label: dict = {}
    for op in ops:
        by_label.setdefault(op.label, []).append(op.seconds / (op.calib if relative else 1.0))
    return float(np.exp(np.mean([np.log(np.median(v)) for v in by_label.values()])))


def pass_seconds(ops: list[Op], relative: bool = False) -> float:
    """Time of one pass of the plan, summed from per-operation medians."""
    return sum(s for s, _ in plan_medians(ops, relative))


def rate(ops: list[Op]) -> float:
    """Tokens per second over one pass, from per-operation medians."""
    medians = plan_medians(ops)
    seconds = sum(s for s, _ in medians)
    return sum(t for _, t in medians) / seconds if seconds > 0 else float("nan")


# -- decode-base ---------------------------------------------------------------

DECODE_SHAPE = dict(n_enc=6, n_dec=6, d_model=256, d_ff=1024, heads=8, vocab_size=1000,
                    max_len=64, dropout=0.0)
DECODE_PRESETS = ("baseline", "NoDec", "SharedEncDec", "OneWideFFN")
DECODER_ONLY = "dec-baseline"
MODEL_NAMES = DECODE_PRESETS + (DECODER_ONLY,)
DECODE_LEN = 8          # tokens generated per sentence (random weights never emit EOS)
GREEDY_PER_MODEL = 3
BEAM_WIDTH = 4
B8_SENTENCES = 8
SRC_LEN = (8, 8)        # one length, so every seed asks for the same work


def build_decode_models() -> dict:
    models = {}
    for preset in DECODE_PRESETS:
        cfg = config.apply_preset(config.ModelConfig(**DECODE_SHAPE), preset)
        models[preset] = transformer.build_model(cfg, seed=WEIGHT_SEED)
    dec_only = config.ModelConfig(**{**DECODE_SHAPE, "n_enc": 0, "architecture": "decoder-only"})
    models[DECODER_ONLY] = transformer.build_model(dec_only, seed=WEIGHT_SEED)
    return models


def check_greedy(model, src: list[int], out: list[int], max_len: int) -> tuple[bool, str]:
    """Greedy output against one teacher-forced decoder_forward over it.

    Row t of the teacher-forced logits predicts output position t. The
    decoded token must be an argmax of its row within TIE_TOL, a sentence cut
    short must end on EOS, and the last step's logits must equal the
    teacher-forced row within LOGIT_TOL.
    """
    if model.config.architecture == "decoder-only":
        enc = None
        prefix = len(src) + 1
        logits, _ = transformer.decoder_forward(model, None, list(src) + [vocab.EOS, vocab.BOS] + out,
                                                prefix_len=prefix)
        rows = np.asarray(logits.data)[prefix:]
    else:
        enc = model.encode(src)
        logits, _ = transformer.decoder_forward(model, enc, [vocab.BOS] + out)
        rows = np.asarray(logits.data)
    for t, tok in enumerate(out):
        gap = float(rows[t].max() - rows[t, tok])
        if gap > TIE_TOL:
            return False, f"position {t}: token {tok} is {gap:.2e} below the row max"
    if len(out) < max_len and int(np.argmax(rows[len(out)])) != vocab.EOS:
        return False, "stopped early without EOS"
    if out:
        step = model.step_logits(enc, src, out[:-1])
        diff = float(np.max(np.abs(step - rows[len(out) - 1])))
        if diff > LOGIT_TOL:
            return False, f"step logits differ from teacher-forced by {diff:.2e}"
    return True, ""


class DecodeBase(Workload):
    name = "decode-base"
    op_is = (f"one greedy sentence of {DECODE_LEN} tokens; median per model, geometric mean "
             f"over the {len(MODEL_NAMES)} models")
    pass_is = (f"{GREEDY_PER_MODEL} greedy and 1 beam-{BEAM_WIDTH} sentence per model, plus "
               f"measure_throughput(batch_size=8, runs=2) over {B8_SENTENCES} sentences")

    def setup(self):
        # Free the previous set first, so that repeated set-ups keep one set alive.
        self.models = None
        self.models = build_decode_models()
        corpus = vocab.generate_toy_task("copy", GREEDY_PER_MODEL + 1 + B8_SENTENCES, SRC_LEN,
                                         DECODE_SHAPE["vocab_size"], seed=self.seed)
        srcs = [src for src, _ in corpus.pairs]
        self.greedy_srcs = srcs[:GREEDY_PER_MODEL]
        self.beam_src = srcs[GREEDY_PER_MODEL]
        self.b8 = vocab.Corpus(corpus.pairs[GREEDY_PER_MODEL + 1:], corpus.vocab)

    def plan(self):
        ops = []
        for name, model in self.models.items():
            for i, src in enumerate(self.greedy_srcs):
                ops.append(("greedy", name, i,
                            lambda m=model, s=src: bench.decode_greedy(m, s, max_len=DECODE_LEN),
                            lambda out, m=model, s=src: (len(out),) + check_greedy(m, s, out, DECODE_LEN)))
        for name, model in self.models.items():
            ops.append(("beam", name, 0,
                        lambda m=model: bench.decode_beam(m, self.beam_src, beam=BEAM_WIDTH,
                                                          max_len=DECODE_LEN),
                        lambda out: (len(out), 0 < len(out) <= DECODE_LEN, "bad beam length")))
        ops.append(("b8", "baseline", 0, self._b8, self._check_b8))
        return ops

    def _b8(self):
        report = bench.measure_throughput(self.models["baseline"], self.b8, batch_size=8,
                                          runs=2, max_len=DECODE_LEN, config_id="baseline")
        return (report.batch_size, report.runs, report.n_batches)

    def _check_b8(self, result):
        ok = result == (8, 2, 1)
        # warm-up pass plus two timed passes, each decoding every sentence
        return 3 * B8_SENTENCES * DECODE_LEN, ok, f"unexpected report {result}"

    def warmup(self):
        for model in self.models.values():
            bench.decode_greedy(model, self.greedy_srcs[0], max_len=2)

    def anchor(self, rec: Record, reference: dict):
        got = self.make_reference()
        want = reference["decode-base"]
        for key, tokens in want.items():
            out = got[key]
            match = sum(int(a == b) for a, b in zip(out, tokens))
            rec.anchor_tokens += max(len(out), len(tokens))
            rec.anchor_matches += match
            rec.check(f"anchor {key}", out == tokens, f"got {out}, want {tokens}")

    def make_reference(self) -> dict:
        corpus = vocab.generate_toy_task("copy", 2, SRC_LEN, DECODE_SHAPE["vocab_size"],
                                         seed=ANCHOR_SEED)
        (src, _), (beam_src, _) = corpus.pairs
        out = {f"greedy/{name}": bench.decode_greedy(m, src, max_len=DECODE_LEN)
               for name, m in self.models.items()}
        out["beam/baseline"] = bench.decode_beam(self.models["baseline"], beam_src,
                                                 beam=BEAM_WIDTH, max_len=DECODE_LEN)
        return out

    def primary(self, ops):
        return [op for op in ops if op.kind == "greedy"]

    def report(self, ops):
        greedy = self.primary(ops)
        beam = [op for op in ops if op.kind == "beam"]
        b8 = [op for op in ops if op.kind == "b8"]
        rows = [("greedy_tok_s", rate(greedy), "tok/s",
                 f"{len(greedy)} sentences, {len(MODEL_NAMES)} models")]
        rows.append(("beam_tok_s", rate(beam), "tok/s", f"{len(beam)} sentences, beam {BEAM_WIDTH}"))
        rows.append(("greedy_b8_tok_s", rate(b8), "tok/s",
                     f"{len(b8)} calls; measures the unbatched path: measure_throughput "
                     "does no batching yet"))
        rows += latency_figures("greedy_sent", [op.seconds for op in greedy])
        for name in MODEL_NAMES:
            rows.append((f"{name}.greedy_tok_s", rate([op for op in greedy if op.label == name]),
                         "tok/s", ""))
        return rows


# -- train-toy -------------------------------------------------------------------

TRAIN_SHAPE = dict(n_enc=2, n_dec=2, d_model=32, d_ff=64, heads=2, vocab_size=20, dropout=0.0)
TRAIN_PRESETS = ("baseline", "SharedEncNoDec", "OneWideFFN")
TRAIN_PAIRS = 512
TRAIN_LEN = (3, 8)
BATCH = 32
STEPS_PER_PRESET = 8    # 256 pairs a pass, so the seed barely moves tokens per pass
TRAIN_WEIGHT_SEED = 1
ANCHOR_STEPS = 5
# The anchor trains at full learning rate from the first step, so that a
# change to the update itself moves the committed losses beyond LOSS_TOL.
ANCHOR_SCHEDULE = training.Schedule(base_lr=2e-3, warmup_steps=1)


def batch_target_tokens(corpus, step_seed: int) -> int:
    """Target tokens train() predicts in its first batch for `step_seed`.

    Mirrors train()'s batch order (a permutation from default_rng([seed, 0]));
    the traced run checks it against the tokens loss_for_pair reports.
    """
    order = np.random.default_rng([step_seed, 0]).permutation(len(corpus))[:BATCH]
    return sum(len(corpus.pairs[int(i)][1]) + 1 for i in order)


def build_train_models():
    out = {}
    for preset in TRAIN_PRESETS:
        cfg = config.apply_preset(config.ModelConfig(**TRAIN_SHAPE), preset)
        model = transformer.build_model(cfg, seed=TRAIN_WEIGHT_SEED)
        out[preset] = (model, training.AdamState(model.store))
    return out


class TrainToy(Workload):
    name = "train-toy"
    op_is = (f"one train() step, batch {BATCH}; median per preset, geometric mean over the "
             f"{len(TRAIN_PRESETS)} presets")
    pass_is = f"{STEPS_PER_PRESET} steps on each of {len(TRAIN_PRESETS)} presets"
    # Training moves the weights, so losses differ pass to pass: every step
    # is checked for a finite loss instead of against the first pass.
    repeatable = False

    schedule = training.Schedule(base_lr=2e-3, warmup_steps=100)

    def setup(self):
        self.corpus = vocab.generate_toy_task("copy", TRAIN_PAIRS, TRAIN_LEN,
                                              TRAIN_SHAPE["vocab_size"], seed=self.seed)
        self.models = build_train_models()
        self.step_tokens = [batch_target_tokens(self.corpus, s) for s in range(STEPS_PER_PRESET)]

    def _step(self, preset, step_seed):
        model, state = self.models[preset]
        return training.train(model, self.corpus, steps=1, batch_size=BATCH,
                              seed=step_seed, schedule=self.schedule, state=state)

    def plan(self):
        ops = []
        for s in range(STEPS_PER_PRESET):
            for preset in TRAIN_PRESETS:
                ops.append(("step", preset, s, lambda p=preset, s=s: self._step(p, s),
                            lambda losses, s=s: (self.step_tokens[s],
                                                 len(losses) == 1 and math.isfinite(losses[0]),
                                                 f"losses {losses}")))
        return ops

    def expected_counts(self):
        n = len(TRAIN_PRESETS)
        return {"training.steps": STEPS_PER_PRESET * n,
                "training.target_tokens": sum(self.step_tokens) * n}

    def warmup(self):
        model, state = build_train_models()[TRAIN_PRESETS[0]]
        training.train(model, self.corpus, steps=1, batch_size=BATCH, seed=0,
                       schedule=self.schedule, state=state)

    def anchor(self, rec, reference):
        got = self.make_reference()
        for preset, want in reference["train-toy"].items():
            losses = got[preset]
            ok = len(losses) == len(want) and all(
                math.isfinite(a) and abs(a - b) <= LOSS_TOL * max(1.0, abs(b))
                for a, b in zip(losses, want))
            rec.check(f"anchor losses {preset}", ok, f"got {losses}, want {want}")

    def make_reference(self) -> dict:
        corpus = vocab.generate_toy_task("copy", 64, TRAIN_LEN, TRAIN_SHAPE["vocab_size"],
                                         seed=ANCHOR_SEED)
        out = {}
        for preset, (model, state) in build_train_models().items():
            out[preset] = [training.train(model, corpus, steps=1, batch_size=BATCH, seed=s,
                                          schedule=ANCHOR_SCHEDULE, state=state)[0]
                           for s in range(ANCHOR_STEPS)]
        return out

    def primary(self, ops):
        return ops

    def report(self, ops):
        rows = [("train_tok_s", rate(ops), "tok/s", f"{len(ops)} steps, batch {BATCH}")]
        rows += latency_figures("train_step", [op.seconds for op in ops])
        return rows


# -- analyze -----------------------------------------------------------------------

ANALYZE_MODEL = dict(n_enc=4, n_dec=4, d_model=64, d_ff=256, heads=4, vocab_size=100,
                     max_len=64, dropout=0.0)
ANALYZE_PRESETS = ("baseline", "OneWideFFN", "SharedEncDec")
PROBE_SENTENCES = 32
ANCHOR_PROBE = 16
PROBE_LEN = (7, 7)      # one length, so every seed asks for the same work


def write_run_yaml(path: str, probe_seed: int, count: int):
    model = ", ".join(f"{k}: {v}" for k, v in ANALYZE_MODEL.items())
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"seed: 0\nmodel: {{{model}}}\n"
                f"task: {{kind: copy, count: {count}, len_range: [{PROBE_LEN[0]}, "
                f"{PROBE_LEN[1]}], vocab_size: {ANALYZE_MODEL['vocab_size']}, "
                f"seed: {probe_seed}}}\n")


def read_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")[1:]] for line in lines])


class Analyze(Workload):
    name = "analyze"
    op_is = f"one `compare --metric lns` call over {PROBE_SENTENCES} probe sentences"
    pass_is = "compare --metric lns, compare --metric cka --benchmark, selfsim"

    def setup(self):
        d = self.out_dir
        os.makedirs(d, exist_ok=True)
        self.ckpt = {}
        for preset in ANALYZE_PRESETS:
            cfg = config.apply_preset(config.ModelConfig(**ANALYZE_MODEL), preset)
            model = transformer.build_model(cfg, seed=WEIGHT_SEED)
            path = os.path.join(d, f"{preset}.bin")
            checkpoint.save_model_checkpoint(model, path)
            self.ckpt[preset] = path
        self.yaml = os.path.join(d, "run.yaml")
        write_run_yaml(self.yaml, self.seed, PROBE_SENTENCES)

    def verbs(self, yaml_path: str, tag: str):
        d, c = self.out_dir, self.ckpt
        return [
            ("compare_lns", ["compare", "--config", yaml_path, "--a", c["baseline"],
                             "--b", c["OneWideFFN"], "--metric", "lns",
                             "--out-dir", os.path.join(d, f"{tag}lns")]),
            ("compare_cka", ["compare", "--config", yaml_path, "--a", c["baseline"],
                             "--b", c["SharedEncDec"], "--metric", "cka",
                             "--benchmark", c["OneWideFFN"],
                             "--out-dir", os.path.join(d, f"{tag}cka")]),
            ("selfsim", ["selfsim", "--config", yaml_path, "--checkpoint", c["baseline"],
                         "--out-dir", os.path.join(d, f"{tag}selfsim")]),
        ]

    @staticmethod
    def call(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def outputs(self, verb: str, out_dir: str) -> dict:
        """Aggregates and matrices a verb wrote, by name."""
        out = {}
        if verb == "selfsim":
            for side in ("encoder", "decoder"):
                m = read_matrix(os.path.join(out_dir, f"selfsim_{side}.csv"))
                out[side] = m
        else:
            with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as f:
                summary = json.load(f)
            metric = verb.split("_")[1]
            for side, entry in summary.items():
                out[f"{side}/aggregate"] = entry["aggregate"]
                if "normalized" in entry:
                    out[f"{side}/normalized"] = entry["normalized"]
                out[side] = read_matrix(os.path.join(out_dir, f"{metric}_{side}.csv"))
        return out

    def check_outputs(self, verb: str, out: dict) -> tuple[bool, str]:
        for key, value in out.items():
            arr = np.asarray(value, dtype=np.float64)
            if not np.isfinite(arr).all():
                return False, f"{key} is not finite"
            if "normalized" not in key and ((arr < -SIM_TOL) | (arr > 1 + SIM_TOL)).any():
                return False, f"{key} outside [0, 1]"
        if verb == "selfsim":
            for side, m in out.items():
                if np.abs(np.diag(m) - 1.0).max() > SIM_TOL:
                    return False, f"selfsim {side} diagonal is not 1"
        return True, ""

    def plan(self):
        ops = []
        for i, (verb, argv) in enumerate(self.verbs(self.yaml, "")):
            ops.append(("verb", verb, i, lambda argv=argv: (self.call(argv), argv[-1]),
                        lambda seen, verb=verb: self.verify(verb, seen)))
        return ops

    def observe(self, verb: str, result) -> dict:
        """Exit code and, after a clean exit, what the verb wrote."""
        code, out_dir = result
        return {"exit": code, **(self.outputs(verb, out_dir) if code == 0 else {})}

    def verify(self, verb: str, seen: dict) -> tuple[int, bool, str]:
        if seen["exit"] != 0:
            return 0, False, f"exit code {seen['exit']}"
        return (0,) + self.check_outputs(verb, {k: v for k, v in seen.items() if k != "exit"})

    def warmup(self):
        self.call(self.verbs(self.yaml, "")[2][1])

    def anchor(self, rec, reference):
        got = self.make_reference()
        for key, want in reference["analyze"].items():
            have = np.asarray(got.get(key, np.nan), dtype=np.float64)
            want = np.asarray(want, dtype=np.float64)
            ok = have.shape == want.shape and bool(np.all(np.abs(have - want) <= SIM_TOL))
            rec.check(f"anchor {key}", ok, f"got {have.tolist()}, want {want.tolist()}")

    def make_reference(self) -> dict:
        path = os.path.join(self.out_dir, "anchor.yaml")
        write_run_yaml(path, ANCHOR_SEED, ANCHOR_PROBE)
        out = {}
        for verb, argv in self.verbs(path, "anchor-"):
            code = self.call(argv)
            if code != 0:
                out[f"{verb}/exit"] = code
                continue
            for key, value in self.outputs(verb, argv[-1]).items():
                # Aggregates as written; a matrix by its mean.
                out[f"{verb}/{key}"] = float(np.mean(value))
        return out

    def primary(self, ops):
        # One verb, so the median is not taken across verbs of different cost.
        return [op for op in ops if op.label == "compare_lns"]

    def report(self, ops):
        by_verb: dict = {}
        for op in ops:
            by_verb.setdefault(op.label, []).append(op.seconds)
        compare = [a + b for a, b in zip(by_verb.get("compare_lns", []),
                                         by_verb.get("compare_cka", []))]
        rows = [("compare_s", float(np.median(compare)), "s",
                 f"compare lns + compare cka of one pass, n={len(compare)}")]
        for verb in ("selfsim", "compare_lns", "compare_cka"):
            v = by_verb[verb]
            rows.append((f"{verb}_s", float(np.median(v)), "s", f"n={len(v)}"))
        return rows


WORKLOADS = {w.name: w for w in (DecodeBase, TrainToy, Analyze)}
