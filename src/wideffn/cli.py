"""Command line front end.

Verbs: params | train | eval | compare | selfsim | bench | sweep.
Runs are driven by a YAML config file whose every section is checked when
it is read, whatever the verb: a repeated or unknown key, a mistyped value
and an integer below its setting's minimum (config.MINIMUMS) are rejected,
and 1e-3 reads as a float. The WFN_SEED environment variable overrides the
config seed. Exit codes: 0 success, 2 config error, 3 data error or a file
that cannot be opened, 4 numeric failure.

Every command's CSV/JSON output is byte-reproducible from (config, seed)
except the timing commands, whose CSVs carry a '# nondeterministic:
timing' header line.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from dataclasses import dataclass, field

import yaml

from .bench import batch_size_sweep, corpus_bleu, decode_corpus
from .checkpoint import load_model_checkpoint, replacing, save_model_checkpoint, write_json
from .config import ModelConfig, apply_preset, check_keys, typed
from .counting import BREAKDOWN_KEYS, baseline_of, count_params
from .errors import ConfigError, DataError, WideFFNError
from .similarity import (
    SimilarityReport,
    collect_activations,
    normalize_against_benchmark,
    pairwise_layer_similarity,
)
from .training import Schedule, ffn_dim_sweep, token_accuracy, train
from .transformer import build_model
from .vocab import Corpus, check_toy_task, generate_toy_task, load_parallel_corpus


@dataclass
class RunConfig:
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    training: Schedule = field(default_factory=Schedule)
    steps: int = 200
    batch_size: int = 32
    task: dict | None = None
    corpus: dict | None = None
    beam: int = 1
    decode_max_len: int = 32


_TOP_KEYS = ("seed", "preset", "model", "training", "task", "corpus", "decode")
EVAL_DECODE_BATCH = 8  # sources per search in `eval`


def _int_text(text: str, name: str, what: str) -> int:
    """An integer written as text (WFN_SEED, a --dims or --batch-sizes entry,
    where an empty entry is an error), checked by `typed` as setting `name`."""
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"{what} must be int, got {text!r}") from None
    return typed(int, value, name, what)


def _section(doc: dict, name: str, defaults: dict) -> dict:
    """Run-file section `name`: its keys are those of `defaults`, each value
    is typed like its default, and an omitted key takes its default."""
    given = check_keys(name, doc.get(name, {}), defaults)
    return {key: typed(type(default), given.get(key, default), key, f"{name} {key}")
            for key, default in defaults.items()}


def run_file_loader(base):
    """PyYAML loader class `base`, extended for run files: a mapping that
    repeats a key is an error, and an exponent float such as 1e-3 is a float."""

    class RunFileLoader(base):
        def construct_mapping(self, node, deep=False):
            explicit = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep)  # refuses an unhashable key
            keys = [self.construct_object(key, deep) for key in explicit]
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", explicit[i].start_mark)
            return mapping

    # an exponent and no dot, as in 1e-3: a float in YAML 1.2, a string in YAML 1.1
    RunFileLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+0123456789."))
    return RunFileLoader


# libyaml's parser when PyYAML was built with it: SafeLoader's documents, parsed faster
RUN_FILE_LOADER = run_file_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_run_config(path: str) -> RunConfig:
    """Parse and check every section of a run file; applies preset expansion
    and WFN_SEED."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = yaml.load(f, Loader=RUN_FILE_LOADER)
        except (yaml.YAMLError, UnicodeDecodeError) as e:
            raise ConfigError(f"{path}: not valid UTF-8 YAML: {e}") from None
    doc = check_keys("top-level", {} if doc is None else doc, _TOP_KEYS)
    model = ModelConfig.from_dict(doc.get("model", {}))
    if "preset" in doc:
        model = apply_preset(model, doc["preset"])
    run = RunConfig(model=model)
    env_seed = os.environ.get("WFN_SEED")
    run.seed = (typed(int, doc.get("seed", run.seed), "seed") if env_seed is None
                else _int_text(env_seed, "seed", "WFN_SEED"))
    training = _section(doc, "training", {"steps": run.steps, "batch_size": run.batch_size,
                                          **vars(run.training)})
    run.steps, run.batch_size = training.pop("steps"), training.pop("batch_size")
    run.training = Schedule(**training)
    if "task" in doc and "corpus" in doc:
        raise ConfigError("give either a toy task or corpus paths, not both")
    if "task" in doc:
        run.task = _section(doc, "task", {"kind": "copy", "count": 512, "len_range": (3, 8),
                                          "vocab_size": model.vocab_size, "seed": run.seed})
        check_toy_task(**run.task)
        if run.task["vocab_size"] != model.vocab_size:
            raise ConfigError(f"task vocab_size {run.task['vocab_size']} != model "
                              f"vocab_size {model.vocab_size}")
    if "corpus" in doc:
        run.corpus = _section(doc, "corpus", {"src": "", "tgt": ""})
        if not all(run.corpus.values()):
            raise ConfigError(f"corpus needs src and tgt file paths, got {doc['corpus']!r}")
    decode = _section(doc, "decode", {"beam": run.beam, "max_len": run.decode_max_len})
    run.beam, run.decode_max_len = decode["beam"], decode["max_len"]
    return run


def build_corpus(run: RunConfig) -> Corpus:
    if run.task is not None:
        return generate_toy_task(**run.task)
    if run.corpus is not None:
        corpus = load_parallel_corpus(run.corpus["src"], run.corpus["tgt"])
        if corpus.vocab.size > run.model.vocab_size:
            raise ConfigError(f"corpus vocab {corpus.vocab.size} exceeds model vocab_size "
                              f"{run.model.vocab_size}")
        return corpus
    raise ConfigError("config needs a 'task' or 'corpus' section for this command")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_csv(path: str, header: list[str], rows: list[dict], comment: str | None = None):
    """One CSV line per row, its fields in header order; a field the row
    lacks, or holds as None, is empty. Written like a checkpoint, to a temp
    file moved over `path`."""
    with replacing(path, "w", encoding="utf-8", newline="") as f:
        if comment:
            f.write(f"# {comment}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(row.get(col)) for col in header] for row in rows)


def _write_matrix(out_dir: str, name: str, report: SimilarityReport):
    """A similarity matrix as out_dir/<name>.csv: column labels, then one
    labelled line per row."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.csv")
    write_csv(path, ["", *report.col_labels],
              [{"": label, **dict(zip(report.col_labels, row))}
               for label, row in zip(report.row_labels, report.matrix)])
    print(f"wrote {path}")


def _probe(run: RunConfig) -> Corpus:
    """The corpus `compare` and `selfsim` probe with; a DataError unless it
    has the 2 pairs that a similarity between sentences needs."""
    corpus = build_corpus(run)
    if len(corpus) < 2:
        raise DataError(f"a similarity probe needs at least 2 pairs, got {len(corpus)}")
    return corpus


def _load_model(path: str, corpus: Corpus):
    """The checkpoint at `path`; a DataError unless it embeds every corpus id."""
    model = load_model_checkpoint(path)
    if model.config.vocab_size < corpus.vocab.size:
        raise DataError(f"{path}: model vocab {model.config.vocab_size} smaller than "
                        f"corpus vocab {corpus.vocab.size}")
    return model


# -- commands ---------------------------------------------------------------


def cmd_params(args, run: RunConfig) -> int:
    cfg = run.model
    total, breakdown = count_params(cfg)
    base_total, _ = count_params(baseline_of(cfg))
    pct = 100.0 * total / base_total
    print(f"total parameters: {total:,}")
    print(f"same-shape unshared baseline: {base_total:,}")
    print(f"percent of baseline: {pct:.1f}%")
    print("breakdown:")
    for key in BREAKDOWN_KEYS:
        print(f"  {key:15s} {breakdown[key]:>15,}")
    if args.json:
        write_json(args.json, {
            "total": total,
            "baseline_total": base_total,
            "percent_of_baseline": pct,
            "breakdown": breakdown,
        })
        print(f"wrote {args.json}")
    return 0


def cmd_train(args, run: RunConfig) -> int:
    corpus = build_corpus(run)
    if args.resume:
        model = load_model_checkpoint(args.resume, config=run.model)
        print(f"resumed parameters from {args.resume}")
    else:
        model = build_model(run.model, seed=run.seed)
    losses = train(model, corpus, steps=run.steps, batch_size=run.batch_size,
                   seed=run.seed, schedule=run.training)
    save_model_checkpoint(model, args.out)
    loss_csv = args.out + ".loss.csv"
    write_csv(loss_csv, ["step", "loss"],
              [{"step": i + 1, "loss": v} for i, v in enumerate(losses)])
    final = losses[-1] if losses else float("nan")
    print(f"trained {len(losses)} steps; final loss {final:.4f}")
    print(f"wrote {args.out}")
    print(f"wrote {loss_csv}")
    return 0


def cmd_eval(args, run: RunConfig) -> int:
    corpus = build_corpus(run)
    model = _load_model(args.checkpoint, corpus)
    acc = token_accuracy(model, corpus, limit=args.limit)
    pairs = corpus.pairs[: args.limit]
    hyps = decode_corpus(model, [src for src, _ in pairs], EVAL_DECODE_BATCH, run.beam,
                         run.decode_max_len)
    bleu = corpus_bleu(hyps, [tgt for _, tgt in pairs])
    print(f"token accuracy: {acc:.4f}")
    print(f"beam-{run.beam} BLEU: {bleu:.2f}")
    if args.json:
        write_json(args.json, {"token_accuracy": acc, "bleu": bleu, "pairs": len(pairs)})
        print(f"wrote {args.json}")
    return 0


def cmd_compare(args, run: RunConfig) -> int:
    corpus = _probe(run)
    if args.k is not None and args.metric != "lns":
        raise ConfigError(f"--k is the lns neighborhood size; --metric {args.metric} takes none")
    if args.k is not None and not 1 <= args.k < len(corpus):
        raise ConfigError(f"--k must be in [1, {len(corpus) - 1}], got {args.k}")
    sides, architectures = [], set()
    for path in (args.a, args.b, *args.benchmark):  # keep activations, not models
        model = _load_model(path, corpus)
        architectures.add(model.config.architecture)
        sides.append(collect_activations(model, corpus))
    if len(architectures) > 1:
        raise ConfigError("cannot compare models of different architectures")
    sides_a, sides_b, *sides_bench = sides
    summary = {}
    for side, taps_a in sides_a.items():
        report = pairwise_layer_similarity(taps_a, sides_b[side], metric=args.metric, k=args.k)
        _write_matrix(args.out_dir, f"{args.metric}_{side}", report)
        entry = {"aggregate": report.aggregate}
        if sides_bench:
            raws = [pairwise_layer_similarity(taps_a, bench[side], metric=args.metric, k=args.k,
                                              aggregate_only=True).aggregate
                    for bench in sides_bench]
            entry.update(benchmark_raws=raws,
                         normalized=normalize_against_benchmark(report.aggregate, raws))
        summary[side] = entry
    summary_path = os.path.join(args.out_dir, "summary.json")
    write_json(summary_path, summary)
    print(f"wrote {summary_path}")
    for side, entry in summary.items():
        line = f"{side}: aggregate {entry['aggregate']:.4f}"
        if "normalized" in entry:
            line += f", normalized {entry['normalized']:.1f}"
        print(line)
    return 0


def cmd_selfsim(args, run: RunConfig) -> int:
    corpus = _probe(run)
    model = _load_model(args.checkpoint, corpus)
    for side, taps in collect_activations(model, corpus).items():
        _write_matrix(args.out_dir, f"selfsim_{side}", pairwise_layer_similarity(taps, taps))
    return 0


def cmd_bench(args, run: RunConfig) -> int:
    corpus = build_corpus(run)
    batch_sizes = [_int_text(b, "batch_size", "--batch-sizes entry")
                   for b in args.batch_sizes.split(",")]
    labels = [os.path.splitext(os.path.basename(path))[0] for path in args.checkpoints]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"checkpoints {args.checkpoints} share a file name; "
                          "each model's rows are labelled by it")
    models = [(label, _load_model(path, corpus))
              for label, path in zip(labels, args.checkpoints)]
    rows = batch_size_sweep(models, batch_sizes, corpus, beam=run.beam,
                            runs=args.runs, max_len=run.decode_max_len)
    header = ["config", "batch_size", "tokens_per_sec", "std", "delta_pct", "n_batches"]
    if len(models) == 1:
        header.remove("delta_pct")
    write_csv(args.out, header, rows, comment="nondeterministic: timing")
    print(f"wrote {args.out}")
    for row in rows:
        delta = "" if row["delta_pct"] is None else f"  delta {row['delta_pct']:+.1f}%"
        print(f"{row['config']} batch {row['batch_size']}: "
              f"{row['tokens_per_sec']:.1f} +/- {row['std']:.1f} tok/s{delta}")
    return 0


def cmd_sweep(args, run: RunConfig) -> int:
    corpus = build_corpus(run)
    dims = [_int_text(d, "dims", "--dims entry") for d in args.dims.split(",")]
    rows = ffn_dim_sweep(run.model, args.side, dims, corpus, steps=run.steps,
                         batch_size=run.batch_size, seed=run.seed, schedule=run.training)
    write_csv(args.out, ["d_ff", "side", "token_accuracy", "params", "noop"], rows)
    print(f"wrote {args.out}")
    for row in rows:
        print(f"{row['side']} d_ff={row['d_ff']}: accuracy {row['token_accuracy']:.4f}, "
              f"params {row['params']:,}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wideffn",
        description="Toy-scale Transformer lab: FFN sharing, similarity, latency.",
    )
    run_file = argparse.ArgumentParser(add_help=False)
    run_file.add_argument("--config", required=True, help="YAML run file")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name: str, fn, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=[run_file])
        p.set_defaults(fn=fn)
        return p

    p = verb("params", cmd_params, "parameter count and breakdown")
    p.add_argument("--json", help="also write the report as JSON")

    p = verb("train", cmd_train, "train and write a checkpoint")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--resume", help="restore parameters from this checkpoint first")

    p = verb("eval", cmd_eval, "token accuracy and BLEU")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--limit", type=int, help="evaluate only the first N pairs")
    p.add_argument("--json", help="also write metrics as JSON")

    p = verb("compare", cmd_compare, "cross-model similarity matrices")
    p.add_argument("--a", required=True, help="reference checkpoint")
    p.add_argument("--b", required=True, help="subject checkpoint")
    p.add_argument("--metric", choices=("cka", "lns"), default="cka")
    p.add_argument("--k", type=int, help="neighborhood size for lns (default 5%%)")
    p.add_argument("--benchmark", action="append", default=[],
                   help="benchmark checkpoint (repeatable)")
    p.add_argument("--out-dir", required=True)

    p = verb("selfsim", cmd_selfsim, "within-model similarity matrices")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)

    p = verb("bench", cmd_bench, "decode throughput sweep")
    p.add_argument("--checkpoints", nargs="+", required=True)
    p.add_argument("--batch-sizes", default="1", help="comma-separated; each model "
                   "decodes that many sources per batched search")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--out", required=True)

    p = verb("sweep", cmd_sweep, "FFN width sweep on one side")
    p.add_argument("--side", choices=("encoder", "decoder"), required=True)
    p.add_argument("--dims", required=True, help="comma-separated widths; 0 removes the FFN")
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, load_run_config(args.config))
    except WideFFNError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:  # an input that is missing, a directory or unreadable
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
