"""The tensor ops that _embed, attention_forward and ffn_forward were
composed of before each became one op, as wideffn.tensor had them: the
per-op reference that the embedding and the sublayers must equal bit for
bit, and the `reshape` that tests use to flatten a result.
"""

import numpy as np

from wideffn.errors import ShapeError
from wideffn.tensor import MASK_FILL_VALUE, Tensor, _require_rank, dropout_keep, emit, linear


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Product of two matrices, or of two equally shaped stacks of matrices;
    a rank-1 `bias` is added in place to every row of a matrix product."""
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise ShapeError(f"matmul: {a.shape} and {b.shape} must be of one rank, 2 or more")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape} do not agree")
    inputs = (a, b)
    if bias is not None:
        if a.data.ndim != 2 or bias.shape != b.shape[1:]:
            raise ShapeError(f"matmul: bias {bias.shape} for {a.shape} @ {b.shape}")
        inputs += (bias,)
    y, backward_fn = linear(a.data, b.data, None if bias is None else bias.data)
    return emit(Tensor(y), inputs, backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = Tensor(a.data + b.data)

    def backward_fn(g):
        return g, g

    return emit(out, (a, b), backward_fn)


def scale(x: Tensor, factor: float) -> Tensor:
    f = np.float32(factor)
    out = Tensor(x.data * f)

    def backward_fn(g):
        return (g * f,)

    return emit(out, (x,), backward_fn)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    keep = dropout_keep(x.data.shape, p, rng)
    if keep is None:
        return x
    out = Tensor(x.data * keep)

    def backward_fn(g):
        return (g * keep,)

    return emit(out, (x,), backward_fn)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of `table`; the backward scatters into a dense grad."""
    _require_rank(table, 2, "embedding_lookup")
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"embedding_lookup: ids must be rank 1, got {ids.shape}")
    n = table.shape[0]
    bad = (ids < 0) | (ids >= n)
    if bad.any():
        raise IndexError(f"token id {int(ids[bad][0])} outside embedding table of size {n}")
    out = Tensor(table.data[ids])

    def backward_fn(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        return (full,)

    return emit(out, (table,), backward_fn)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def backward_fn(g):
        return (g.reshape(x.data.shape),)

    return emit(out, (x,), backward_fn)


def relu(x: Tensor, *, in_place: bool = False) -> Tensor:
    """max(x, 0). With `in_place` the result is written over x's array, for a
    caller that hands over a fresh array it does not read again. The backward
    masks on the output, which is positive exactly where x was."""
    out = Tensor(np.maximum(x.data, np.float32(0.0), out=x.data if in_place else None))

    def backward_fn(g):
        return (g * (out.data > 0),)

    return emit(out, (x,), backward_fn)


def attention_weights(scores: Tensor, factor: float, keep: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis of a (B, heads, T_q, T_k) stack of score
    matrices scaled by `factor`, with MASK_FILL_VALUE wherever `keep` is
    False: attention's scale, mask and softmax as one op and one tape node.

    `keep` is None or a boolean (B, 1, T_q, T_k) mask per sequence, shared
    by its heads. Masked entries get no gradient, and a fully masked row is
    uniform, because max subtraction cancels the shared fill value.
    """
    if scores.data.ndim != 4:
        raise ShapeError(f"attention_weights: expected a (B, heads, T_q, T_k) stack, "
                         f"got {scores.shape}")
    f = np.float32(factor)
    p = scores.data * f
    if keep is not None:
        if keep.dtype != bool or keep.shape != (scores.shape[0], 1, *scores.shape[2:]):
            raise ShapeError(f"attention_weights: {keep.dtype} mask {keep.shape} vs scores "
                             f"{scores.shape}")
        np.copyto(p, MASK_FILL_VALUE, where=~keep)
    # Row maxima over the leading axis of a (T_k, B, heads, T_q) copy, as
    # numpy reduces a short last axis slowly; a max is exact in any order.
    p -= np.maximum.reduce(np.ascontiguousarray(p.transpose(3, 0, 1, 2)), axis=0)[..., None]
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    out = Tensor(p)

    def backward_fn(g):
        d = g * p
        np.subtract(g, np.add.reduce(d, axis=-1, keepdims=True), out=d)
        d *= p
        if keep is not None:
            d *= keep
        d *= f
        return (d,)

    return emit(out, (scores,), backward_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then scale and shift."""
    _require_rank(x, 2, "layer_norm")
    _require_rank(gain, 1, "layer_norm")
    _require_rank(bias, 1, "layer_norm")
    d = x.shape[1]
    if gain.shape[0] != d or bias.shape[0] != d:
        raise ShapeError(f"layer_norm: input {x.shape}, gain {gain.shape}, bias {bias.shape}")
    # np.mean's and np.var's arithmetic, with one centred copy for both; the
    # output's array holds the squares first, and xhat overwrites the copy
    xhat = x.data - np.add.reduce(x.data, axis=1, keepdims=True) / d
    y = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(np.add.reduce(y, axis=1, keepdims=True) / d + np.float32(1e-5))
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y)

    def backward_fn(g):  # inv * (gh - mean(gh) - xhat * mean(gh * xhat)), in two arrays
        gh = g * gain.data
        t = np.multiply(gh, xhat)
        mean_ghx = np.add.reduce(t, axis=1, keepdims=True) / d
        gh -= np.add.reduce(gh, axis=1, keepdims=True) / d
        gh -= np.multiply(xhat, mean_ghx, out=t)
        gh *= inv
        return gh, np.multiply(g, xhat, out=t).sum(axis=0), g.sum(axis=0)

    return emit(out, (x, gain, bias), backward_fn)
