"""Float32 tensors with reverse-mode gradients on a linear tape.

Every op records (output, inputs, backward_fn) on the active tape in call
order; ComputeTape.backward replays the records in reverse and accumulates
gradients by summation. Parameter tying therefore needs no special casing:
a Tensor object used at several call sites receives the sum of the
gradients from all of them, and an op that reads one tensor twice lists it
twice among its inputs.

`linear`, `attention_weights`, `layer_norm` and `dropout_keep` are kernels
on plain arrays, from which each op that spans a whole stage (the embedding,
an attention or FFN sublayer) composes its forward and its backward. The
Tensor ops here are the output projection's `matmul` and `transpose`, the
loss, and the column ops `slice_cols` and `concat_cols`, which perfbench's
tracer binds by name.

All payloads are numpy float32. Finite-difference arithmetic inside
grad_check runs in float64 on top of float32 function values.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import NumericError, ShapeError

MASK_FILL_VALUE = np.float32(-1e9)


class Tensor:
    """A float32 array (rank 0 to 4) plus an optional gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float32)
        if arr.ndim > 4:
            raise ShapeError(f"rank {arr.ndim} not supported, shape {arr.shape}")
        self.data = arr
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class ComputeTape:
    """Append-only record of op applications, replayed in reverse."""

    def __init__(self):
        self.nodes = []

    def record(self, out, inputs, backward_fn):
        self.nodes.append((out, inputs, backward_fn))

    def backward(self, loss):
        """Seed d(loss)/d(loss) = 1 and accumulate grads into every input.

        An op's output drops its gradient once the op has passed it on, so
        the gradients of a step's activations are not all alive at once;
        only tensors no recorded op produced (parameters, inputs) keep theirs.
        """
        if loss.data.shape != ():
            raise ShapeError(f"backward needs a scalar, got shape {loss.data.shape}")
        if not np.isfinite(loss.data):
            raise NumericError(f"loss is not finite: {loss.data!r}")
        loss.grad = np.ones((), dtype=np.float32)
        for out, inputs, backward_fn in reversed(self.nodes):
            g = out.grad
            if g is None:
                continue
            grads = backward_fn(g)
            out.grad = None
            for tensor, piece in zip(inputs, grads):
                if piece is None:
                    continue
                piece = piece.astype(np.float32, copy=False)
                tensor.grad = piece if tensor.grad is None else tensor.grad + piece


_TAPE_STACK: list[ComputeTape] = []


@contextlib.contextmanager
def recording(tape: ComputeTape):
    """Route every op built inside the block onto `tape`."""
    _TAPE_STACK.append(tape)
    try:
        yield tape
    finally:
        _TAPE_STACK.pop()


def emit(out, inputs, backward_fn):
    """Record `out` = op(inputs) on the active tape, if one is recording, and
    return it; backward_fn maps out's gradient to one piece per input."""
    if _TAPE_STACK:
        _TAPE_STACK[-1].record(out, inputs, backward_fn)
    return out


def _require_rank(t: Tensor, rank: int, op: str):
    if t.data.ndim != rank:
        raise ShapeError(f"{op}: expected rank {rank}, got shape {t.data.shape}")


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None):
    """x @ w, with b, when given, added in place to every row. Returns (y,
    backward), where backward maps y's gradient to those of (x, w) or (x, w, b)."""
    y = x @ w
    if b is not None:
        y += b

    def backward(g):
        grads = g @ w.swapaxes(-1, -2), x.swapaxes(-1, -2) @ g
        return grads if b is None else (*grads, g.sum(axis=0))

    return y, backward


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two matrices, or of two equally shaped stacks of matrices."""
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise ShapeError(f"matmul: {a.shape} and {b.shape} must be of one rank, 2 or more")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape} do not agree")
    y, backward_fn = linear(a.data, b.data)
    return emit(Tensor(y), (a, b), backward_fn)


def transpose(x: Tensor, axes=(1, 0)) -> Tensor:
    """Permute the axes of x; the default swaps the two axes of a matrix."""
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of the axes of {x.shape}")
    out = Tensor(x.data.transpose(axes).copy())
    inverse = sorted(range(len(axes)), key=axes.__getitem__)  # argsort, minus numpy's call cost

    def backward_fn(g):  # row-major like the forward copy, so later sums keep their order
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return emit(out, (x,), backward_fn)


def slice_cols(x: Tensor, lo: int, hi: int) -> Tensor:
    _require_rank(x, 2, "slice_cols")
    if not (0 <= lo < hi <= x.shape[1]):
        raise ShapeError(f"slice_cols: [{lo}:{hi}] out of range for {x.shape}")
    out = Tensor(x.data[:, lo:hi].copy())

    def backward_fn(g):
        full = np.zeros_like(x.data)
        full[:, lo:hi] = g
        return (full,)

    return emit(out, (x,), backward_fn)


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_cols: empty input")
    for p in parts:
        _require_rank(p, 2, "concat_cols")
    rows = parts[0].shape[0]
    if any(p.shape[0] != rows for p in parts):
        raise ShapeError("concat_cols: row counts differ")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    widths = [p.shape[1] for p in parts]

    def backward_fn(g):
        grads = []
        at = 0
        for w in widths:
            grads.append(g[:, at : at + w])
            at += w
        return tuple(grads)

    return emit(out, tuple(parts), backward_fn)


def attention_weights(scores: np.ndarray, factor: float, keep: np.ndarray | None = None):
    """Softmax over the last axis of a (B, heads, T_q, T_k) stack of score
    matrices scaled by `factor`, with MASK_FILL_VALUE wherever `keep` is
    False: attention's scale, mask and softmax. Returns (weights, backward),
    where backward maps the weights' gradient to the scores'.

    `keep` is None or a boolean (B, 1, T_q, T_k) mask per sequence, shared
    by its heads, as `attention_mask` makes it. Masked entries get no
    gradient, and a fully masked row is uniform, because max subtraction
    cancels the shared fill value.
    """
    if scores.ndim != 4:
        raise ShapeError(f"attention_weights: expected a (B, heads, T_q, T_k) stack, "
                         f"got {scores.shape}")
    f = np.float32(factor)
    p = scores * f
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

    def backward(g):
        d = g * p
        np.subtract(g, np.add.reduce(d, axis=-1, keepdims=True), out=d)
        d *= p
        if keep is not None:
            d *= keep
        d *= f
        return d

    return p, backward


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize each row of a matrix to zero mean / unit variance, then
    scale and shift. Returns (y, backward), where backward maps y's gradient
    to those of (x, gain, bias)."""
    d = x.shape[1]
    # np.mean's and np.var's arithmetic, with one centred copy for both; the
    # output's array holds the squares first, and xhat overwrites the copy
    xhat = x - np.add.reduce(x, axis=1, keepdims=True) / d
    y = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(np.add.reduce(y, axis=1, keepdims=True) / d + np.float32(1e-5))
    xhat *= inv
    np.multiply(xhat, gain, out=y)
    y += bias

    def backward(g):  # inv * (gh - mean(gh) - xhat * mean(gh * xhat)), in two arrays
        gh = g * gain
        t = np.multiply(gh, xhat)
        mean_ghx = np.add.reduce(t, axis=1, keepdims=True) / d
        gh -= np.add.reduce(gh, axis=1, keepdims=True) / d
        gh -= np.multiply(xhat, mean_ghx, out=t)
        gh *= inv
        return gh, np.multiply(g, xhat, out=t).sum(axis=0), g.sum(axis=0)

    return y, backward


def dropout_keep(shape, p: float, rng: np.random.Generator) -> np.ndarray | None:
    """Inverted dropout's multiplier of an array of `shape`: 0 with
    probability p, else 1/(1-p); None, drawing nothing, when p is 0."""
    if not 0.0 <= p < 1.0:
        raise NumericError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return None
    return (rng.random(shape) >= p).astype(np.float32) / np.float32(1.0 - p)


def cross_entropy(logits: Tensor, targets, ignore_index: int = -1) -> Tensor:
    """Mean negative log-softmax over rows whose target != ignore_index.

    Fused log-softmax keeps the backward to the standard (p - onehot)/n form.
    """
    _require_rank(logits, 2, "cross_entropy")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs targets {targets.shape}")
    n_classes = logits.shape[1]
    keep = targets != ignore_index
    kept_targets = targets[keep]
    if kept_targets.size and ((kept_targets < 0) | (kept_targets >= n_classes)).any():
        bad = kept_targets[(kept_targets < 0) | (kept_targets >= n_classes)][0]
        raise IndexError(f"target id {int(bad)} outside vocabulary of size {n_classes}")
    n_kept = int(keep.sum())
    if n_kept == 0:
        out = Tensor(np.float32(0.0))

        def backward_zero(g):
            return (np.zeros_like(logits.data),)

        return emit(out, (logits,), backward_zero)

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsumexp
    rows = np.nonzero(keep)[0]
    loss = -logp[rows, targets[rows]].sum() / np.float32(n_kept)
    out = Tensor(loss)

    def backward_fn(g):
        p = np.exp(logp)
        p[~keep] = 0.0
        p[rows, targets[rows]] -= 1.0
        return (g * p / np.float32(n_kept),)

    return emit(out, (logits,), backward_fn)


def grad_check(f, params, eps: float = 1e-3, coords_per_tensor: int = 2, seed: int = 0) -> float:
    """Compare tape gradients of f(params) against finite differences.

    The loss surface here is only piecewise smooth (relu) and evaluated in
    float32, so no single step size works for every coordinate: a large
    step can straddle a kink, a small one drowns in roundoff. Each probed
    coordinate therefore takes central differences at eps, eps/2, eps/4,
    and eps/8 plus a Richardson extrapolation of the first pair, and is
    scored by the best-agreeing estimate. A wrong gradient disagrees with
    all of them; a correct one matches wherever the local regime is clean.
    Returns the worst relative error max |analytic - fd| / max(1, |fd|)
    over a deterministic coordinate sample. f must be deterministic and
    read parameter values at call time.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    tape = ComputeTape()
    with recording(tape):
        loss = f(params)
    if loss.data.shape != ():
        raise ShapeError(f"grad_check: f must return a scalar, got {loss.data.shape}")
    if not np.isfinite(loss.data):
        raise NumericError("grad_check: loss is not finite")
    tape.backward(loss)
    analytic = [None if p.grad is None else np.asarray(p.grad, dtype=np.float64) for p in params]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, ga in zip(params, analytic):
        n = p.data.size
        if n == 0:
            continue
        if n <= coords_per_tensor:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=coords_per_tensor, replace=False)
        flat = p.data.reshape(-1)
        ga_flat = None if ga is None else ga.reshape(-1)
        for i in coords:
            orig = flat[i]

            def central(step: float) -> float:
                hi = np.float32(float(orig) + step)
                lo = np.float32(float(orig) - step)
                h = float(hi) - float(lo)
                if h == 0.0:
                    raise NumericError(f"grad_check: step {step} vanishes at value {orig}")
                flat[i] = hi
                f_hi = float(f(params).data)
                flat[i] = lo
                f_lo = float(f(params).data)
                flat[i] = orig
                return (f_hi - f_lo) / h

            estimates = [central(eps * s) for s in (1.0, 0.5, 0.25, 0.125)]
            estimates.append((4.0 * estimates[1] - estimates[0]) / 3.0)
            a = 0.0 if ga_flat is None else float(ga_flat[i])
            err = min(abs(a - fd) / max(1.0, abs(fd)) for fd in estimates)
            if not math.isfinite(err):
                raise NumericError(f"grad_check: non-finite difference at coord {i}")
            worst = max(worst, err)
    return worst
