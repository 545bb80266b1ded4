"""wideffn benchmark: one command, three workloads, one caller, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload decode-base --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): decode-base, train-toy, analyze. The seed
picks the inputs; the program under test only sees the generated inputs.

--trace 0 measures the end-to-end metrics of BENCHMARK.json with no
tracing: peak memory, and the set-up time, the median operation time and
the time of one pass of the plan, each divided by a calibration time taken
around it (see workloads.Calibrator), because this kind of shared machine
drifts in speed by tens of percent over minutes. The raw times in
milliseconds and seconds are printed beside them. --trace 1 runs passes of
the workload's plan in pairs, one untraced and one traced, and reports the
per-layer metrics of the traced passes, the tracing overhead against the
untraced ones, and writes every span to .bench_out/trace-<workload>.txt.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Lines before it give each metric with its unit, the
workload's own figures (tokens/s, percentiles with sample counts), the
environment and any failed check. A fuller record goes to
.bench_out/result-<workload>-seed<seed>-trace<t>.json.

`--write-reference` regenerates perfbench/reference.json, the committed
outputs of the anchor checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter

# numpy is imported only after main() has pinned these to one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up is repeated at least SETUP_MIN times and until SETUP_SECONDS have
# passed (at most SETUP_MAX times); setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 50, 2.0
# setup_s is each set-up's time over the calibration time around it, in
# seconds of a machine on which workloads.calibrate() takes CALIB_NOMINAL_S
# (about its time on a 2-vCPU x86-64 VM, one BLAS thread).
CALIB_NOMINAL_S = 0.004
CONTENDED_BELOW = 0.9
# Units of the figures printed beside the BENCHMARK.json metrics.
FIGURE_UNITS = {"op_ms_p50": "ms", "pass_s": "s", "calib_ms": "ms", "setup_wall_s": "s",
                "setup_samples": "count", "passes": "count"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("decode-base", "train-toy", "analyze"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if not args.write_reference and args.workload is None:
        p.error("--workload is required")
    return args


def git_sha(root: str) -> str | None:
    """HEAD of a git checkout, read without running git; None elsewhere."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str, cw: CpuWall) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "cpu_wall_ratio": cw.ratio,
        "contended": cw.ratio < CONTENDED_BELOW,
        "load": "closed loop, one caller, one process, no extra threads",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CpuWall:
    """process_time / perf_counter over the measured phase; below
    CONTENDED_BELOW the run waited for the CPU and is flagged contended."""

    def __enter__(self):
        self.cpu, self.wall = time.process_time(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ratio = (time.process_time() - self.cpu) / (time.perf_counter() - self.wall)


def end_to_end(wl, ops, setups) -> dict:
    """End-to-end figures of a set of passes. The `_rel` ones divide each
    operation's time by the calibration time around it (workloads.Calibrator);
    `setups` holds (wall seconds, calibration seconds) of each set-up."""
    import numpy as np

    from workloads import op_median, pass_seconds

    primary = wl.primary(ops)
    return {
        "setup_s": statistics.median(s / c for s, c in setups) * CALIB_NOMINAL_S,
        "peak_rss_mb": peak_rss_mb(),
        "op_p50_rel": op_median(primary, relative=True),
        "pass_rel": pass_seconds(ops, relative=True),
        "setup_wall_s": statistics.median(s for s, _ in setups),
        "op_ms_p50": op_median(primary) * 1e3,
        "pass_s": pass_seconds(ops),
        "calib_ms": float(np.median([op.calib for op in ops])) * 1e3,
    }


def run_untraced(wl, args, rec):
    setups = []
    rec.calibrator.bracket()
    while len(setups) < SETUP_MIN or (sum(s for s, _ in setups) < SETUP_SECONDS
                                      and len(setups) < SETUP_MAX):
        t0 = time.perf_counter()
        wl.setup()
        seconds = time.perf_counter() - t0
        setups.append((seconds, rec.calibrator.bracket()))
    wl.warmup()
    with CpuWall() as cw:
        deadline = time.perf_counter() + args.seconds
        wl.run_pass(rec)  # the first pass always completes: it defines the plan's medians
        while time.perf_counter() < deadline and wl.run_pass(rec, deadline):
            pass
    return end_to_end(wl, rec.ops, setups), cw, {"setup_samples": len(setups)}


def run_traced(wl, args, rec, modules):
    """Untraced and traced passes in pairs; per-layer metrics of the traced ones."""
    import numpy as np

    from spans import EXACT, Tracer, pass_metrics
    from workloads import MODEL_NAMES, Record

    tracer = Tracer()

    def next_request():
        tracer.request += 1

    tracer.install(modules)
    try:
        wl.setup()
    finally:
        tracer.remove()
    setup_times = tracer.times_by_name(0, tracer.n_spans())
    wl.warmup()
    plain = Record()
    traced = Record(before_op=next_request, calibrator=plain.calibrator)
    per_pass, pass_times = [], []
    with CpuWall() as cw:
        deadline = time.perf_counter() + args.seconds
        while True:
            t0 = time.perf_counter()
            wl.run_pass(plain)
            t1 = time.perf_counter()
            lo, before = tracer.n_spans(), Counter(tracer.counts)
            tracer.install(modules)
            try:
                wl.run_pass(traced)
            finally:
                tracer.remove()
            t2 = time.perf_counter()
            counts = Counter(tracer.counts)
            counts.subtract(before)
            hi = tracer.n_spans()
            per_pass.append(pass_metrics(tracer.times_by_name(lo, hi), counts))
            per_pass[-1]["trace.spans_per_pass"] = hi - lo
            pass_times.append((t1 - t0, t2 - t1))
            for key, want in wl.expected_counts().items():
                rec.check(f"count {key}", counts[key] == want, f"{counts[key]} != {want}")
            if time.perf_counter() >= deadline:
                break
    for r in (plain, traced):
        rec.ops += r.ops
        rec.checks += r.checks
        rec.problems += r.problems
    for key in EXACT:
        values = {p[key] for p in per_pass}
        rec.check(f"exact count {key} repeats", len(values) == 1, f"values {sorted(values)}")
    metrics = {key: float(np.median([p[key] for p in per_pass])) for key in per_pass[0]}
    metrics["checkpoint.save_s"] = setup_times.get("checkpoint.save_model_checkpoint",
                                                   {}).get("total_s", 0.0)
    for row in wl.report(plain.ops):
        if row[0].endswith(".greedy_tok_s"):
            metrics[f"bench.{row[0]}"] = row[1]
    for name in MODEL_NAMES:
        metrics.setdefault(f"bench.{name}.greedy_tok_s", 0.0)
    e2e_plain = end_to_end(wl, plain.ops, [(0.0, 1.0)])
    e2e_traced = end_to_end(wl, traced.ops, [(0.0, 1.0)])
    for e2e in (e2e_plain, e2e_traced):
        del e2e["setup_s"], e2e["setup_wall_s"]  # set-up ran once, traced, before the passes
    metrics["trace.overhead_pct"] = 100.0 * (
        float(np.median([b / a for a, b in pass_times])) - 1.0)
    for key in ("op_ms_p50", "pass_s"):
        metrics[f"trace.{key}_overhead_pct"] = 100.0 * (e2e_traced[key] / e2e_plain[key] - 1.0)
    extra = {"untraced": e2e_plain, "traced": e2e_traced, "passes": len(per_pass)}
    path = os.path.join(os.path.dirname(wl.out_dir), f"trace-{wl.name}.txt")
    tracer.write(path, {"workload": wl.name, "seed": args.seed, "passes": len(per_pass)})
    extra["trace_file"] = os.path.relpath(path)
    return metrics, cw, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wideffn", "__init__.py")):
        print("error: src/wideffn not found; run from the repository root", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]

    import wideffn
    from wideffn import bench, checkpoint, cli, similarity, tensor, training, transformer

    import workloads

    modules = {"wideffn": wideffn, "bench": bench, "checkpoint": checkpoint, "cli": cli,
               "similarity": similarity, "tensor": tensor, "training": training,
               "transformer": transformer}
    out_root = os.path.join(root, ".bench_out")
    ref_path = os.path.join(HERE, "reference.json")

    if args.write_reference:
        ref = {}
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(0, os.path.join(out_root, name))
            wl.setup()
            ref[name] = wl.make_reference()
        with open(ref_path, "w", encoding="utf-8") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {os.path.relpath(ref_path)}")
        return 0

    wl = workloads.WORKLOADS[args.workload](args.seed, os.path.join(out_root, args.workload))
    os.makedirs(wl.out_dir, exist_ok=True)
    rec = workloads.Record()
    if args.trace:
        metrics, cw, extra = run_traced(wl, args, rec, modules)
        declared = manifest["per_layer"]
    else:
        metrics, cw, extra = run_untraced(wl, args, rec)
        declared = manifest["end_to_end"]
    with open(ref_path, encoding="utf-8") as f:
        wl.anchor(rec, json.load(f))
    if args.trace:
        metrics["bench.token_match_rate"] = (
            rec.anchor_matches / rec.anchor_tokens if rec.anchor_tokens else 0.0)

    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: no value for {sorted(missing)} of BENCHMARK.json", file=sys.stderr)
        return 2
    extra.update({k: v for k, v in metrics.items() if k not in units})
    for name, value in metrics.items():
        if not math.isfinite(value):
            rec.check(f"metric {name} finite", False, str(value))
            metrics[name] = 0.0

    ops_failed = sum(not op.ok for op in rec.ops)
    anchors = [c for c in rec.checks if c[0].startswith("anchor")]
    attempted = len(rec.ops) + len(anchors)
    failed = ops_failed + sum(not ok for _, ok in anchors)
    correct = failed == 0 and all(ok for _, ok in rec.checks)
    env = environment(root, cw)
    report = wl.report(rec.ops)

    why = next(w["why"] for w in manifest["workloads"] if w["name"] == wl.name)
    print(f"# {wl.name}: {why}")
    print(f"# seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"closed loop, one caller; cpu/wall {cw.ratio:.3f}"
          + (" (contended)" if env["contended"] else ""))
    notes = {"setup_s": f"median set-up time over the calibration time around it, times "
                        f"{CALIB_NOMINAL_S} s; wall median in setup_wall_s",
             "op_p50_rel": f"op time over the calibration time around it; an op is {wl.op_is}",
             "pass_rel": f"one pass from per-op medians of that ratio; a pass is {wl.pass_is}"}
    for name in units:
        note = notes.get(name)
        print(f"metric {name} {metrics[name]!r} {units[name]}" + (f"  # {note}" if note else ""))
    print(f"# checks: greedy token within {workloads.TIE_TOL} of its teacher-forced row max, "
          f"step logits within {workloads.LOGIT_TOL}; anchor tokens exact; anchor losses within "
          f"{workloads.LOSS_TOL} relative; anchor similarity within {workloads.SIM_TOL}; "
          "decode and analyze passes reproduce the first pass exactly")
    print(f"figure failed_frac {failed / attempted!r} (failed {failed} of {attempted} operations)")
    for name, value, unit, note in report:
        print(f"figure {name} {value!r} {unit}" + (f"  # {note}" if note else ""))
    for key, value in extra.items():
        print(f"figure {key} {json.dumps(value)} {FIGURE_UNITS.get(key, '')}".rstrip())
    print("env " + json.dumps(env, sort_keys=True, default=str))
    for problem in rec.problems[:20]:
        print("FAILED " + problem.strip().replace("\n", " | "))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    with open(os.path.join(out_root, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump({**result, "failed_frac": failed / attempted, "environment": env,
                   "figures": [list(r) for r in report], "extra": extra,
                   "problems": rec.problems,
                   "ops": [[op.kind, op.label, op.index, op.seconds, op.tokens, op.ok, op.calib]
                           for op in rec.ops]}, f, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
