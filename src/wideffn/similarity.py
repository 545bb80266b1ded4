"""Representation similarity: linear CKA and local neighborhood overlap.

Activation matrices are n_sentences x d_model, one row per sentence (mean
over that sentence's real positions), collected with dropout off and the
decoder force-decoding the reference.

Both metrics take their inputs by one rule: two spaces give a float, and
two equally long lists of spaces give each pair's score as an array. A
space is an ActivationMatrix or an (n, d) array (a matrix written as nested
lists is one space); every space of a call has the same n, and every
ActivationMatrix of a call carries the content hash of one probe corpus.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .config import typed
from .errors import ConfigError, DataError
from .tensor import first_k
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

    Each chunk's taps of one side are stacked, (taps, B, T, d), and all their
    sentence means come from one masked sum over T, divided as np.mean does.
    """
    if not corpus.pairs:
        raise DataError("empty corpus")
    names: dict[str, list[str]] = {}
    means: dict[str, list[np.ndarray]] = {}
    for chunk, _, sides in model.eval_chunks(corpus.pairs):
        inputs = [model.inputs(src, tgt) for src, tgt in chunk]
        for side, taps in sides.items():
            lengths = np.array([len(ids[side]) for ids in inputs])[:, None]
            stack = np.stack([tensor.data for tensor in taps.values()])
            blocks = stack.reshape(len(taps), len(chunk), -1, stack.shape[-1])
            real = np.arange(blocks.shape[2]) < lengths
            sums = np.add.reduce(blocks, axis=2, where=real[:, :, None])
            np.true_divide(sums, lengths, out=sums, casting="unsafe")  # as np.mean does
            names[side] = list(taps)
            means.setdefault(side, []).append(sums)
    corpus_hash = corpus.content_hash()
    return {side: {name: ActivationMatrix(values, corpus_hash)
                   for name, values in zip(names[side], np.concatenate(parts, axis=1))}
            for side, parts in means.items()}


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


def _paired(a, b) -> tuple[list, list, bool]:
    """`a` and `b` as two equally long lists of spaces, checked by the
    module's one input rule, and whether they were two spaces. A list or
    tuple whose first entry is an ActivationMatrix or an array is a list of
    spaces; anything else is one space."""
    lists = [isinstance(x, (list, tuple)) and len(x) > 0
             and isinstance(x[0], (ActivationMatrix, np.ndarray)) for x in (a, b)]
    left, right = ([s if isinstance(s, ActivationMatrix) else np.asarray(s)
                    for s in (x if several else [x])] for x, several in zip((a, b), lists))
    if lists[0] != lists[1] or len(left) != len(right):
        raise DataError("a metric pairs two spaces or two equally long lists of spaces, "
                        f"got {len(left)} and {len(right)}")
    distinct = {id(s): s for s in left + right}.values()
    for s in distinct:
        if _values(s).ndim != 2:
            raise DataError(f"a space is an (n, d) matrix, got shape {_values(s).shape}")
    if len({s.corpus_hash for s in distinct if isinstance(s, ActivationMatrix)}) > 1:
        raise DataError("activation matrices come from different corpora")
    counts = sorted({len(_values(s)) for s in distinct})
    if len(counts) != 1:
        raise DataError(f"row counts differ: {counts}")
    return left, right, not lists[0]


def linear_cka(a, b):
    """Linear CKA between two spaces with matched rows, or of each pair
    a[c], b[c] of two lists of spaces.

    Columns are mean-centered internally; the statistic is
    ||A^T B||_F^2 / (||A^T A||_F * ||B^T B||_F), invariant to orthogonal
    maps and isotropic scaling of either side. Degenerate (all-constant)
    inputs give 0.
    """
    left, right, one = _paired(a, b)
    scores = []
    for x, y in zip(left, right):
        (cx, nx), (cy, ny) = _prepared(x, "centred", _centred), _prepared(y, "centred", _centred)
        scores.append(0.0 if nx == 0.0 or ny == 0.0 else
                      float(np.linalg.norm(cx.T @ cy) ** 2 / (nx * ny)))
    return scores[0] if one else np.array(scores)


def knn(space, k: int) -> np.ndarray:
    """The k nearest rows to every row in cosine distance. One (n, d) space
    gives an (n, k) table, and a stack of L spaces, an (L, n, d) array, gives
    the (L, n, k) stack of their tables: row i of a table holds the
    neighbours of row i, nearest first.

    No row is its own neighbour. Ties in distance break toward the lower
    index; all-zero rows sit at distance 1 from everything (a warning is
    logged once per table that has any). Distances come a block of rows of
    every space at a time, at most ROW_BLOCK_CELLS of them, from one stacked
    product that makes the matrix-vector product `unit @ unit[i]` of each
    row i: a Gram product `unit @ unit.T` rounds some dot products
    differently and so reorders exact ties.
    """
    x = _values(space).astype(np.float64)
    if x.ndim not in (2, 3):
        raise DataError(f"knn needs an (n, d) space or an (L, n, d) stack, got {x.shape}")
    stack = x if x.ndim == 3 else x[None]
    layers, n = stack.shape[:2]
    if not 1 <= k <= n - 1:
        raise ConfigError(f"k must be in [1, {n - 1}], got {k}")
    norms = np.linalg.norm(stack, axis=2)
    zero = norms == 0.0
    for count in zero.sum(axis=1)[zero.any(axis=1)]:
        log.warning("knn: %d all-zero rows treated as distance 1 from everything", int(count))
    unit = stack / np.where(zero, 1.0, norms)[..., None]  # zero rows stay zero: cosine 0
    table = np.empty((layers, n, k), dtype=np.intp)
    step = max(1, ROW_BLOCK_CELLS // (layers * n))  # rows whose distances are held at once
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        dist = 1.0 - np.matmul(unit[:, None], unit[:, rows, :, None])[..., 0]
        dist[:, rows - lo, rows] = np.inf  # no row is its own neighbour
        table[:, rows] = first_k(dist, k)
    return table if x.ndim == 3 else table[0]


def default_k(n: int) -> int:
    """Neighborhood size: 5% of the probe set, at least 1."""
    return max(1, math.ceil(0.05 * n))


def _tables(spaces: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-NN tables of the distinct spaces in `spaces`, transposed and
    stacked: ids[l, j] holds the j-th neighbour of every row of space l, an
    (L, k, n) array. Also the index in it of each entry of `spaces`. The
    tables not kept on an ActivationMatrix yet come from one `knn` call over
    their stacked spaces, and are kept on it."""
    key = ("knn", k)
    distinct = list({id(s): s for s in spaces}.values())
    fresh = [s for s in distinct if key not in getattr(s, "_derived", ())]
    made = dict(zip(map(id, fresh), knn(np.stack([_values(s) for s in fresh]), k))) if fresh else {}
    ids = np.array([_prepared(s, key, lambda _: made[id(s)]).T for s in distinct])
    where = {id(s): i for i, s in enumerate(distinct)}
    return ids, np.array([where[id(s)] for s in spaces], dtype=np.intp)


def _lns_cells(ids_a: np.ndarray, at_a: np.ndarray, ids_b: np.ndarray,
               at_b: np.ndarray) -> np.ndarray:
    """LNS of the tables ids_a[at_a[c]] and ids_b[at_b[c]], in `_tables`'
    (L, k, n) layout, for every cell c: per row, the shared ids of the two
    k-NN rows over the ids in either, |A & B| / (2k - |A & B|), summed in row
    order and divided by n. The id tests are made a block of cells and rows
    at a time, at most ROW_BLOCK_CELLS of them, with the rows innermost."""
    k, n = ids_a.shape[1:]
    rows = min(n, max(1, ROW_BLOCK_CELLS // (k * k)))  # rows and cells whose id tests
    cells = max(1, ROW_BLOCK_CELLS // (k * k * rows))  # are held at once
    shared = np.empty((len(at_a), n), dtype=np.intp)  # |A & B| of each cell's rows
    for c in range(0, len(at_a), cells):
        for r in range(0, n, rows):
            a = ids_a[at_a[c:c + cells], :, None, r:r + rows]
            b = ids_b[at_b[c:c + cells], None, :, r:r + rows]
            shared[c:c + cells, r:r + rows] = (a == b).sum(axis=(1, 2))
    return np.add.accumulate(shared / (2 * k - shared), axis=1)[:, -1] / n  # |A | B| = 2k - |A & B|


def lns(a, b, k: int | None = None):
    """Local neighborhood similarity: mean Jaccard overlap of the rows of
    the two spaces' k-NN tables, summed in row order.

    Two spaces give a float, and two equally long lists of spaces give the
    LNS of each pair a[c], b[c] as an array, from one `knn` call per side
    over its distinct spaces and one blocked pass over every pair's rows.
    """
    left, right, one = _paired(a, b)
    n = len(_values(left[0]))
    if n < 2:
        raise DataError("need at least 2 rows for neighborhoods")
    k = default_k(n) if k is None else typed(int, k, "k")
    scores = _lns_cells(*_tables(left, k), *_tables(right, k))
    return float(scores[0]) if one else scores


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
    and every other cell is NaN. Every scored cell comes from one metric
    call over two lists of spaces.

    The aggregate averages the diagonal over module names present in both
    models; tap sets from `collect_activations` always share every layer's
    '<i>.sa', so a pair that shares no name is not comparable.
    """
    if not taps_a or not taps_b:
        raise DataError("empty activation tap set")
    if metric not in ("cka", "lns"):
        raise ConfigError(f"unknown metric {metric!r}; use 'cka' or 'lns'")
    rows = sorted(taps_a, key=_label_key)
    cols = sorted(taps_b, key=_label_key)
    common = [(i, cols.index(name)) for i, name in enumerate(rows) if name in taps_b]
    if not common:
        raise DataError("the two tap sets share no module names; nothing comparable")
    matrix = np.full((len(rows), len(cols)), np.nan)
    mirror = taps_a is taps_b
    cells = common if aggregate_only else [
        (i, j) for i, j in np.ndindex(matrix.shape) if not (mirror and j < i)]
    pairs = [taps_a[rows[i]] for i, _ in cells], [taps_b[cols[j]] for _, j in cells]
    matrix[tuple(zip(*cells))] = lns(*pairs, k=k) if metric == "lns" else linear_cka(*pairs)
    if mirror:
        lower = np.tril_indices(len(rows), -1)
        matrix[lower] = matrix.T[lower]
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

