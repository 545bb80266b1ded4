"""Decoding, latency measurement, and corpus BLEU.

`search` is the one decoder: a batch of sources, every live hypothesis one
row of the decoding state, stepped together. Greedy and beam decoding of
one source, `measure_throughput` and `eval` all run it.

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

from .errors import ConfigError, DataError
from .transformer import DecodeRows, TransformerModel
from .vocab import BOS, EOS, Corpus

_MEASURE_LOCK = threading.Lock()


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class _SentenceRows:
    """DecodeRows' step and keep, one sentence a row, through encode/step_logits."""

    def __init__(self, model, srcs: list):
        self.model, self.rows = model, [(src, model.encode(src), ()) for src in srcs]

    def step(self, ids) -> np.ndarray:
        self.rows = [(src, ctx, fed + (tok,)) for (src, ctx, fed), tok in zip(self.rows, ids)]
        return np.stack([self.model.step_logits(c, s, list(f[1:])) for s, c, f in self.rows])

    def keep(self, rows) -> None:
        self.rows = [self.rows[r] for r in rows]


def search(model: TransformerModel, srcs: list, beam: int = 1, max_len: int = 32) -> list:
    """Beam search over a batch of sources; returns each source's best
    hypothesis by normalized score, end token dropped.

    One step scores every row, then `keep` reorders the rows by parent and
    drops those of finished sources. Ties resolve by insertion order, score
    order then token id, so beam=1 is greedy. A search of one row, one greedy
    sentence, gains nothing from batching and steps through the model's own
    encode/step_logits, as does a model with only those two methods.
    """
    if beam < 1:
        raise ConfigError("beam must be >= 1")
    if max_len < 1:
        raise ConfigError("max_len must be positive")
    batched = isinstance(model, TransformerModel) and len(srcs) * beam > 1
    rows = (DecodeRows if batched else _SentenceRows)(model, srcs)
    beams = [[([], 0.0)] for _ in srcs]  # live (tokens, summed log-prob) per source, a row each
    finished: list[list] = [[] for _ in srcs]  # (tokens, normalized score) per source
    for _ in range(max_len):
        flat = [(s, tokens, score) for s, live in enumerate(beams) for tokens, score in live]
        logp = _log_softmax(rows.step([tokens[-1] if tokens else BOS for _, tokens, _ in flat]))
        top = np.argmax(logp, axis=1)[:, None] if beam == 1 else \
            np.argsort(-logp, axis=1, kind="stable")[:, :beam]
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
    if not all(finished):
        raise DataError("beam search produced no hypothesis")
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
    return [out for at in range(0, len(srcs), batch_size)
            for out in search(model, srcs[at : at + batch_size], beam, max_len)]


def score_sequence(model: TransformerModel, src: list[int], tokens: list[int],
                   ended: bool = True) -> float:
    """Length-normalized log-probability of a decoded continuation."""
    targets = list(tokens) + [EOS] if ended else list(tokens)
    if not targets:
        raise DataError("nothing to score")
    enc = model.encode(src)
    logps = [_log_softmax(model.step_logits(enc, src, list(tokens[:t])))[tok]
             for t, tok in enumerate(targets)]
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
    """Decode the corpus `runs` times, batch_size sources per search, after one
    untimed warmup pass; reports mean and sample std of generated tokens/second.

    Refuses to run while another measurement is in flight in this process,
    since overlapping measurements would time each other.
    """
    if runs < 2:
        raise ConfigError("need at least 2 timed runs for a std")
    if batch_size < 1:
        raise ConfigError("batch_size must be positive")
    if len(corpus) == 0:
        raise DataError("empty corpus")
    if not _MEASURE_LOCK.acquire(blocking=False):
        raise ConfigError("another throughput measurement is already running")
    try:
        srcs = [src for src, _ in corpus.pairs]
        rates = []
        for run in range(runs + 1):
            t0 = time.perf_counter()
            tokens = sum(map(len, decode_corpus(model, srcs, batch_size, beam, max_len)))
            if tokens == 0:
                raise DataError("decoder generated no tokens; nothing to measure")
            if run > 0:  # run 0 is the warm-up
                rates.append(tokens / (time.perf_counter() - t0))
        n_batches = math.ceil(len(srcs) / batch_size)
        return ThroughputReport(config_id, batch_size, float(np.mean(rates)),
                                float(np.std(rates, ddof=1)), runs, n_batches)
    finally:
        _MEASURE_LOCK.release()


def batch_size_sweep(models: list[tuple[str, TransformerModel]], batch_sizes: list[int],
                     corpus: Corpus, beam: int = 1, runs: int = 5,
                     max_len: int = 32) -> list[dict]:
    """Throughput grid over models x batch sizes: each row is a report's
    fields plus `config` and `delta_pct`, the percent delta against the first
    model at the same batch size (None for the first model itself).
    """
    if not models:
        raise ConfigError("no models to measure")
    rows = []
    for bs in batch_sizes:
        reports = [measure_throughput(model, corpus, batch_size=bs, beam=beam, runs=runs,
                                      max_len=max_len, config_id=config_id)
                   for config_id, model in models]
        reference = reports[0].tokens_per_sec
        for i, report in enumerate(reports):
            delta = 100.0 * (report.tokens_per_sec - reference) / reference if i else None
            rows.append({**vars(report), "config": report.config_id, "delta_pct": delta})
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
