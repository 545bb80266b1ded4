"""Representation similarity: linear CKA and local neighborhood overlap.

Activation matrices are n_sentences x d_model, one row per sentence (mean
over that sentence's real positions), collected with dropout off and the
decoder force-decoding the reference. Cross-model pairings insist on an
identical probe corpus, enforced through a content hash carried on every
ActivationMatrix.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .transformer import TransformerModel
from .vocab import Corpus

log = logging.getLogger(__name__)


@dataclass
class ActivationMatrix:
    values: np.ndarray  # (n_sentences, width) float32
    corpus_hash: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise DataError(f"activation matrix must be rank 2, got {self.values.shape}")


def collect_activations(model: TransformerModel, corpus: Corpus
                        ) -> dict[str, dict[str, ActivationMatrix]]:
    """Sentence-mean activations per tapped module of every side the model
    has, {side: {module: matrix}}, from one teacher-forced pass per evaluation
    chunk: 'encoder' taps '<i>.sa'/'<i>.ffn' over src + <eos> and 'decoder'
    taps '<i>.sa'/'<i>.ca'/'<i>.ffn' over the decoder input, the reference fed.
    A sentence mean covers that pair's real rows only. Rows follow corpus order.
    """
    if not corpus.pairs:
        raise DataError("empty corpus")
    rows: dict[str, dict[str, list[np.ndarray]]] = {}
    for chunk, _, sides in model.eval_chunks(corpus.pairs):
        lengths = {"encoder": [len(src) + 1 for src, _ in chunk],
                   "decoder": [len(model.decoder_input(src, tgt)[0]) for src, tgt in chunk]}
        for side, taps in sides.items():
            for name, tensor in taps.items():
                blocks = tensor.data.reshape(len(chunk), -1, tensor.shape[1])
                rows.setdefault(side, {}).setdefault(name, []).extend(
                    block[:n].mean(axis=0) for block, n in zip(blocks, lengths[side]))
    corpus_hash = corpus.content_hash()
    return {side: {name: ActivationMatrix(np.stack(vals), corpus_hash)
                   for name, vals in taps.items()}
            for side, taps in rows.items()}


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, ActivationMatrix) else np.asarray(x)


def linear_cka(a, b) -> float:
    """Linear CKA between two activation sets with matched rows.

    Columns are mean-centered internally; the statistic is
    ||A^T B||_F^2 / (||A^T A||_F * ||B^T B||_F), invariant to orthogonal
    maps and isotropic scaling of either side. Degenerate (all-constant)
    inputs give 0.
    """
    a = _values(a).astype(np.float64)
    b = _values(b).astype(np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DataError("linear_cka needs rank-2 inputs")
    if a.shape[0] != b.shape[0]:
        raise DataError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    a = a - a.mean(axis=0, keepdims=True)
    b = b - b.mean(axis=0, keepdims=True)
    cross = np.linalg.norm(a.T @ b) ** 2
    norm_a = np.linalg.norm(a.T @ a)
    norm_b = np.linalg.norm(b.T @ b)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(cross / (norm_a * norm_b))


def knn(space, k: int) -> np.ndarray:
    """The k nearest rows to every row in cosine distance, as an (n, k) table:
    row i holds the neighbours of row i, nearest first.

    No row is its own neighbour. Ties in distance break toward the lower
    index; all-zero rows sit at distance 1 from everything (a warning is
    logged once per table when any are present). Each row's distances come
    from its own product `unit @ unit[i]`: a Gram product `unit @ unit.T`
    rounds some dot products differently and so reorders exact ties.
    """
    x = _values(space).astype(np.float64)
    n = x.shape[0]
    if not 1 <= k <= n - 1:
        raise ConfigError(f"k must be in [1, {n - 1}], got {k}")
    norms = np.linalg.norm(x, axis=1)
    zero = norms == 0.0
    if zero.any():
        log.warning("knn: %d all-zero rows treated as distance 1 from everything", int(zero.sum()))
    safe = np.where(zero, 1.0, norms)
    unit = x / safe[:, None]  # zero rows stay zero -> cosine similarity 0
    index = np.arange(n)
    table = np.empty((n, k), dtype=np.intp)
    for i in range(n):
        dist = 1.0 - unit @ unit[i]
        dist[i] = np.inf
        table[i] = np.lexsort((index, dist))[:k]
    return table


def default_k(n: int) -> int:
    """Neighborhood size: 5% of the probe set, at least 1."""
    return max(1, math.ceil(0.05 * n))


def lns(a, b, k: int | None = None) -> float:
    """Local neighborhood similarity: mean Jaccard overlap of the rows of
    the two spaces' k-NN tables.

    Both spaces must describe the same sentences in the same order; when
    ActivationMatrix metadata is available the corpus hashes must agree.
    """
    if isinstance(a, ActivationMatrix) and isinstance(b, ActivationMatrix):
        if a.corpus_hash != b.corpus_hash:
            raise DataError("activation matrices come from different corpora")
    va, vb = _values(a), _values(b)
    if va.shape[0] != vb.shape[0]:
        raise DataError(f"row counts differ: {va.shape[0]} vs {vb.shape[0]}")
    n = va.shape[0]
    if n < 2:
        raise DataError("need at least 2 rows for neighborhoods")
    if k is None:
        k = default_k(n)
    total = 0.0
    for row_a, row_b in zip(knn(va, k).tolist(), knn(vb, k).tolist()):
        sa, sb = set(row_a), set(row_b)
        total += len(sa & sb) / len(sa | sb)
    return total / n


@dataclass
class SimilarityReport:
    row_labels: list[str]
    col_labels: list[str]
    matrix: np.ndarray
    aggregate: float


_SUBLAYER_ORDER = {"sa": 0, "ca": 1, "ffn": 2}


def _label_key(name: str):
    """Sort key: layer order, then sublayer execution order (sa, ca, ffn)."""
    layer, part = name.split(".")
    return int(layer), _SUBLAYER_ORDER[part]


def pairwise_layer_similarity(taps_a: dict[str, ActivationMatrix],
                              taps_b: dict[str, ActivationMatrix],
                              metric: str = "cka", k: int | None = None
                              ) -> SimilarityReport:
    """Full module-by-module similarity matrix plus a scalar aggregate.

    The aggregate averages the diagonal over module names present in both
    models; tap sets from `collect_activations` always share every layer's
    '<i>.sa', so a pair that shares no name is not comparable.
    """
    if not taps_a or not taps_b:
        raise DataError("empty activation tap set")
    if metric not in ("cka", "lns"):
        raise ConfigError(f"unknown metric {metric!r}; use 'cka' or 'lns'")
    hashes = {m.corpus_hash for m in taps_a.values()} | {m.corpus_hash for m in taps_b.values()}
    if len(hashes) != 1:
        raise DataError("activation sets come from different corpora")
    rows = sorted(taps_a, key=_label_key)
    cols = sorted(taps_b, key=_label_key)
    common = [(i, cols.index(name)) for i, name in enumerate(rows) if name in taps_b]
    if not common:
        raise DataError("the two tap sets share no module names; nothing comparable")
    matrix = np.zeros((len(rows), len(cols)))
    for i, rn in enumerate(rows):
        for j, cn in enumerate(cols):
            a, b = taps_a[rn], taps_b[cn]
            matrix[i, j] = linear_cka(a, b) if metric == "cka" else lns(a, b, k=k)
    aggregate = float(np.mean([matrix[i, j] for i, j in common]))
    return SimilarityReport(rows, cols, matrix, aggregate)


def normalize_against_benchmark(raw: float, benchmark_raws) -> float:
    """Scale a raw score so the benchmark mean reads as 100."""
    vals = [float(v) for v in benchmark_raws]
    if not vals:
        raise DataError("empty benchmark")
    mean = sum(vals) / len(vals)
    if mean <= 0.0:
        raise DataError(f"benchmark mean must be positive, got {mean}")
    return 100.0 * raw / mean

