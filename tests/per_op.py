"""The tensor ops that attention_forward and ffn_forward were composed of
before each sublayer became one op, as wideffn.tensor had them: the per-op
reference that the sublayers must equal bit for bit, and the `reshape` that
tests use to flatten a result.
"""

import numpy as np

from wideffn.errors import ShapeError
from wideffn.tensor import MASK_FILL_VALUE, Tensor, _require_rank, emit


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
    """Softmax over the last axis of a stack of score matrices scaled by
    `factor`, with MASK_FILL_VALUE wherever `keep` is False: attention's
    scale, mask and softmax as one op and one tape node.

    The stack is (N, T_q, T_k) or (B, heads, T_q, T_k). `keep` is one mask
    for every matrix, one per matrix (the stack's shape) or, for a rank-4
    stack, one (B, 1, T_q, T_k) mask per sequence shared by its heads. Masked
    entries get no gradient, and a fully masked row is uniform, because max
    subtraction cancels the shared fill value.
    """
    if scores.data.ndim not in (3, 4):
        raise ShapeError(f"attention_weights: expected a rank 3 or 4 stack, got {scores.shape}")
    f = np.float32(factor)
    p = scores.data * f
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        per_sequence = (scores.shape[0], 1, *scores.shape[2:]) if scores.data.ndim == 4 else None
        if keep.shape not in (scores.shape[-2:], scores.shape, per_sequence):
            raise ShapeError(f"attention_weights: mask {keep.shape} vs scores {scores.shape}")
        np.copyto(p, MASK_FILL_VALUE, where=~keep)
    # Row maxima over the leading axis of a (T_k, ..., T_q) copy, as numpy
    # reduces a short last axis slowly; a max is exact in any order.
    keys_first = np.ascontiguousarray(p.transpose(p.ndim - 1, *range(p.ndim - 1)))
    p -= np.maximum.reduce(keys_first, axis=0)[..., None]
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
