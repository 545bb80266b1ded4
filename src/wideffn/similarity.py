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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .transformer import TransformerModel
from .vocab import Corpus

log = logging.getLogger(__name__)

ROW_BLOCK_CELLS = 1 << 18  # kNN distances (2 MiB of float64) or LNS id tests held at once


@dataclass(frozen=True, eq=False)
class ActivationMatrix:
    """An (n_sentences, width) float32 matrix and the hash of the probe corpus
    its rows describe. `values` is a read-only copy, so the forms derived from
    it (a kNN table per k, the CKA centring) are built once, on first use, and
    kept with it."""

    values: np.ndarray
    corpus_hash: str
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float32)
        if values.ndim != 2:
            raise DataError(f"activation matrix must be rank 2, got {values.shape}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def collect_activations(model: TransformerModel, corpus: Corpus
                        ) -> dict[str, dict[str, ActivationMatrix]]:
    """Sentence-mean activations per tapped module of every side the model
    has, {side: {module: matrix}}, from one teacher-forced pass per evaluation
    chunk, the reference fed: 'encoder' taps '<i>.sa'/'<i>.ffn' and 'decoder'
    taps '<i>.sa'/'<i>.ca'/'<i>.ffn'. A sentence mean covers the rows of that
    pair's `model.inputs` for the side only. Rows follow corpus order.
    """
    if not corpus.pairs:
        raise DataError("empty corpus")
    rows: dict[str, dict[str, list[np.ndarray]]] = {}
    for chunk, _, sides in model.eval_chunks(corpus.pairs):
        inputs = [model.inputs(src, tgt) for src, tgt in chunk]
        for side, taps in sides.items():
            lengths = np.array([len(ids[side]) for ids in inputs])[:, None]
            for name, tensor in taps.items():
                blocks = tensor.data.reshape(len(chunk), -1, tensor.shape[1])
                real = np.arange(blocks.shape[1]) < lengths
                means = np.add.reduce(blocks, axis=1, where=real[:, :, None])
                np.true_divide(means, lengths, out=means, casting="unsafe")  # as np.mean does
                rows.setdefault(side, {}).setdefault(name, []).append(means)
    corpus_hash = corpus.content_hash()
    return {side: {name: ActivationMatrix(np.concatenate(vals), corpus_hash)
                   for name, vals in taps.items()}
            for side, taps in rows.items()}


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, ActivationMatrix) else np.asarray(x)


def _prepared(x, key, make):
    """`make(values of x)`, kept on x under `key` when x is an
    ActivationMatrix and computed afresh for a raw array."""
    if not isinstance(x, ActivationMatrix):
        return make(np.asarray(x))
    if key not in x._derived:
        x._derived[key] = make(x.values)
    return x._derived[key]


def _centred(values: np.ndarray) -> tuple[np.ndarray, float]:
    """The columns of `values` mean-centred in float64, and ||C^T C||_F."""
    c = values.astype(np.float64)
    c = c - c.mean(axis=0, keepdims=True)
    return c, np.linalg.norm(c.T @ c)


def linear_cka(a, b) -> float:
    """Linear CKA between two activation sets with matched rows.

    Columns are mean-centered internally; the statistic is
    ||A^T B||_F^2 / (||A^T A||_F * ||B^T B||_F), invariant to orthogonal
    maps and isotropic scaling of either side. Degenerate (all-constant)
    inputs give 0.
    """
    va, vb = _values(a), _values(b)
    if va.ndim != 2 or vb.ndim != 2:
        raise DataError("linear_cka needs rank-2 inputs")
    if va.shape[0] != vb.shape[0]:
        raise DataError(f"row counts differ: {va.shape[0]} vs {vb.shape[0]}")
    a, norm_a = _prepared(a, "centred", _centred)
    b, norm_b = _prepared(b, "centred", _centred)
    cross = np.linalg.norm(a.T @ b) ** 2
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(cross / (norm_a * norm_b))


def knn(space, k: int) -> np.ndarray:
    """The k nearest rows to every row in cosine distance, as an (n, k) table:
    row i holds the neighbours of row i, nearest first.

    No row is its own neighbour. Ties in distance break toward the lower
    index; all-zero rows sit at distance 1 from everything (a warning is
    logged once per table when any are present). Distances come a block of
    rows at a time, from one stacked product that makes the matrix-vector
    product `unit @ unit[i]` of each row i: a Gram product `unit @ unit.T`
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
    unit = x / np.where(zero, 1.0, norms)[:, None]  # zero rows stay zero: cosine 0
    table = np.empty((n, k), dtype=np.intp)
    step = max(1, ROW_BLOCK_CELLS // n)  # rows whose distances are held at once
    for rows in (slice(lo, lo + step) for lo in range(0, n, step)):
        dist = 1.0 - np.matmul(unit, unit[rows, :, None])[..., 0]
        np.fill_diagonal(dist[:, rows], np.inf)  # no row is its own neighbour
        table[rows] = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return table


def default_k(n: int) -> int:
    """Neighborhood size: 5% of the probe set, at least 1."""
    return max(1, math.ceil(0.05 * n))


def lns(a, b, k: int | None = None) -> float:
    """Local neighborhood similarity: mean Jaccard overlap of the rows of
    the two spaces' k-NN tables, summed in row order.

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
    k = default_k(n) if k is None else k
    table_a, table_b = (_prepared(x, ("knn", k), lambda v: knn(v, k)) for x in (a, b))
    step = max(1, ROW_BLOCK_CELLS // (k * k))  # rows whose id tests are held at once
    shared = np.concatenate([(table_a[lo:lo + step, :, None] == table_b[lo:lo + step, None, :])
                             .sum(axis=(1, 2)) for lo in range(0, n, step)])  # |A & B| per row
    return float(np.add.accumulate(shared / (2 * k - shared))[-1] / n)  # |A | B| = 2k - |A & B|


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
                              metric: str = "cka", k: int | None = None,
                              aggregate_only: bool = False) -> SimilarityReport:
    """Full module-by-module similarity matrix plus a scalar aggregate.

    One tap set given twice (`selfsim`) gets its upper triangle mirrored.
    With `aggregate_only` only the cells the aggregate reads are scored,
    and every other cell is NaN.

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
    matrix = np.full((len(rows), len(cols)), np.nan)
    score = linear_cka if metric == "cka" else lambda a, b: lns(a, b, k=k)
    for i, j in common if aggregate_only else np.ndindex(matrix.shape):
        mirror = taps_a is taps_b and j < i
        matrix[i, j] = matrix[j, i] if mirror else score(taps_a[rows[i]], taps_b[cols[j]])
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

