"""Decoding, latency measurement, and corpus BLEU.

`search` is the one decoder: a batch of sources, every live hypothesis one
row of the decoding state that `model.decode_rows` returns, stepped
together. Greedy and beam decoding of one source, the throughput
measurement, `eval` and `score_sequence` all step that state.

`batch_size_sweep` is the one timed measurement; `measure_throughput` and
`paired_delta_pct` are its one- and two-model views at one batch size.

Scoring convention shared by search and score_sequence: a hypothesis's
score is its summed token log-probability divided by the number of scored
steps, where a sequence that genuinely ended includes its end-of-sequence
step and one cut off at the length cap does not. Beam width 1 reproduces
greedy decoding exactly (ties break toward the lower token id).
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import typed
from .errors import ConfigError, DataError
from .tensor import first_k
from .transformer import TransformerModel
from .vocab import BOS, EOS, Corpus

_MEASURE_LOCK = threading.Lock()


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def search(model: TransformerModel, srcs: list, beam: int = 1, max_len: int = 32) -> list:
    """Beam search over a batch of sources; returns each source's best
    hypothesis by normalized score, end token dropped.

    One step scores every row, then `keep` reorders the rows by parent and
    drops those of finished sources. Ties resolve by insertion order, score
    order then token id, so beam=1 is greedy. Every search, one greedy sentence
    too, steps `model.decode_rows(srcs)`; no sources give no outputs.
    """
    typed(int, beam, "beam")
    typed(int, max_len, "max_len")
    if not srcs:
        return []
    rows = model.decode_rows(srcs)
    beams = [[([], 0.0)] for _ in srcs]  # live (tokens, summed log-prob) per source, a row each
    finished: list[list] = [[] for _ in srcs]  # (tokens, normalized score) per source
    for _ in range(max_len):
        flat = [(s, tokens, score) for s, live in enumerate(beams) for tokens, score in live]
        logp = _log_softmax(rows.step([tokens[-1] if tokens else BOS for _, tokens, _ in flat]))
        top = np.argmax(logp, axis=1)[:, None] if beam == 1 else first_k(-logp, beam)
        by_source: list[list] = [[] for _ in srcs]
        for row, (s, tokens, score) in enumerate(flat):
            by_source[s] += [(tokens, score + logp[row, tok], int(tok), row) for tok in top[row]]
        parents = []
        for s, candidates in enumerate(by_source):
            candidates.sort(key=lambda c: -c[1])
            beams[s] = []
            for tokens, score, tok, parent in candidates:
                if len(beams[s]) == beam:
                    break
                if tok == EOS:
                    finished[s].append((tokens, score / (len(tokens) + 1)))
                else:
                    beams[s].append((tokens + [tok], score))
                    parents.append(parent)
        if not parents:
            break
        if parents != list(range(len(flat))):
            rows.keep(parents)
    for hyps, live in zip(finished, beams):
        hyps += [(tokens, score / len(tokens)) for tokens, score in live]
    return [max(hyps, key=lambda h: h[1])[0] for hyps in finished]


def decode_greedy(model: TransformerModel, src: list[int], max_len: int = 32) -> list[int]:
    """Greedy decoding of one source: `search` at beam 1."""
    return search(model, [src], 1, max_len)[0]


def decode_beam(model: TransformerModel, src: list[int], beam: int = 5,
                max_len: int = 32) -> list[int]:
    """Beam search of one source: `search` of a batch of one."""
    return search(model, [src], beam, max_len)[0]


def decode_corpus(model: TransformerModel, srcs: list, batch_size: int, beam: int, max_len: int):
    """`search` over consecutive batches of batch_size sources, outputs in order."""
    batch_size = typed(int, batch_size, "batch_size")
    return [out for at in range(0, len(srcs), batch_size)
            for out in search(model, srcs[at : at + batch_size], beam, max_len)]


def score_sequence(model: TransformerModel, src: list[int], tokens: list[int],
                   ended: bool = True) -> float:
    """Length-normalized log-probability of a decoded continuation, from
    one row of `model.decode_rows` fed <bos> + tokens one id at a time."""
    targets = list(tokens) + [EOS] if ended else list(tokens)
    if not targets:
        raise DataError("nothing to score")
    rows = model.decode_rows([src])
    logps = [_log_softmax(rows.step([fed]))[0, tok] for fed, tok in zip([BOS, *tokens], targets)]
    return float(sum(logps)) / len(targets)


@dataclass
class ThroughputReport:
    config_id: str
    batch_size: int
    tokens_per_sec: float
    std: float
    runs: int
    n_batches: int


def measure_throughput(model: TransformerModel, corpus: Corpus, batch_size: int = 1,
                       beam: int = 1, runs: int = 5, max_len: int = 32,
                       config_id: str = "model") -> ThroughputReport:
    """One model's `batch_size_sweep` at one batch size: the mean and sample
    std of generated tokens/second over `runs` timed passes, after one
    untimed pass."""
    row = batch_size_sweep([(config_id, model)], [batch_size], corpus, beam, runs, max_len)[0]
    del row["config"], row["delta_pct"]
    return ThroughputReport(**row)


def paired_delta_pct(reference: TransformerModel, model: TransformerModel, corpus: Corpus,
                     batch_size: int = 1, beam: int = 1, runs: int = 5,
                     max_len: int = 32) -> float:
    """Percent by which `model` decodes more tokens/s than `reference`: the
    `delta_pct` of their `batch_size_sweep` at one batch size."""
    return batch_size_sweep([("reference", reference), ("model", model)], [batch_size],
                            corpus, beam, runs, max_len)[1]["delta_pct"]


def batch_size_sweep(models: list[tuple[str, TransformerModel]], batch_sizes: list[int],
                     corpus: Corpus, beam: int = 1, runs: int = 5,
                     max_len: int = 32) -> list[dict]:
    """Throughput grid over models x batch sizes. At each batch size every
    model decodes the corpus once untimed, then every batch `runs` times, all
    models back to back with the first of them rotating batch by batch, so a
    slowdown that comes and goes slows every model of a batch alike.

    A row is a `ThroughputReport` (mean and sample std over runs of a run's
    generated tokens over its seconds) plus `config` and `delta_pct`, 100 *
    (median per-batch rate ratio to the first model - 1) over the batches in
    which both generated tokens (None for the first model). Refuses to run
    while another measurement is in flight in this process.
    """
    if not models:
        raise ConfigError("no models to measure")
    runs = typed(int, runs, "runs")
    if len(corpus) == 0:
        raise DataError("empty corpus")
    if not _MEASURE_LOCK.acquire(blocking=False):
        raise ConfigError("another throughput measurement is already running")
    try:
        srcs, rows = [src for src, _ in corpus.pairs], []
        for bs in batch_sizes:
            for _, model in models:  # the warm-up
                decode_corpus(model, srcs, bs, beam, max_len)
            batches = [srcs[at : at + bs] for at in range(0, len(srcs), bs)]
            tokens = np.zeros((runs * len(batches), len(models)))  # one row per timed batch
            seconds = np.zeros_like(tokens)
            for i, batch in enumerate(batches * runs):
                for m in [(i + j) % len(models) for j in range(len(models))]:
                    t0 = time.perf_counter()
                    tokens[i, m] = sum(map(len, search(models[m][1], batch, beam, max_len)))
                    seconds[i, m] = time.perf_counter() - t0
            run_rates = (tokens.reshape(runs, len(batches), -1).sum(axis=1)
                         / seconds.reshape(runs, len(batches), -1).sum(axis=1))
            rates = tokens / seconds
            for m, (config_id, _) in enumerate(models):
                kept = (tokens[:, 0] > 0) & (tokens[:, m] > 0)
                if not kept.any():
                    raise DataError(f"{config_id} generated no tokens in any batch it is "
                                    "compared on; nothing to measure")
                report = ThroughputReport(config_id, bs, float(run_rates[:, m].mean()),
                                          float(np.std(run_rates[:, m], ddof=1)), runs,
                                          len(batches))
                delta = 100.0 * (float(np.median(rates[kept, m] / rates[kept, 0])) - 1.0) \
                    if m else None
                rows.append({**vars(report), "config": config_id, "delta_pct": delta})
    finally:
        _MEASURE_LOCK.release()
    return rows


def _ngram_counts(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses, references) -> float:
    """Corpus BLEU-4 with clipped precisions and brevity penalty, in [0, 100].

    Inputs are sequences of token lists (strings are whitespace-split).
    Any order with zero total matches zeroes the score.
    """
    if len(hypotheses) != len(references):
        raise DataError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise DataError("empty corpus")

    def toks(x):
        return x.split() if isinstance(x, str) else list(x)

    hyp_len = 0
    ref_len = 0
    clipped = [0] * 4
    totals = [0] * 4
    for hyp, ref in zip(hypotheses, references):
        h, r = toks(hyp), toks(ref)
        if not r:
            raise DataError("empty reference")
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, 5):
            hc = _ngram_counts(h, n)
            rc = _ngram_counts(r, n)
            totals[n - 1] += sum(hc.values())
            clipped[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
    if hyp_len == 0:
        return 0.0
    precisions = []
    for c, t in zip(clipped, totals):
        if t == 0 or c == 0:
            return 0.0
        precisions.append(c / t)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
