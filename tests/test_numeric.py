import numpy as np
import pytest

from wideffn.errors import NumericError, ShapeError
from wideffn.tensor import (
    ComputeTape,
    Tensor,
    MASK_FILL_VALUE,
    attention_weights,
    concat_cols,
    cross_entropy,
    emit,
    grad_check,
    layer_norm,
    linear,
    matmul,
    recording,
    slice_cols,
    transpose,
)

import per_op
from conftest import total


def run_backward(build):
    tape = ComputeTape()
    with recording(tape):
        loss = build()
    tape.backward(loss)
    return loss


def test_tensor_is_float32_and_rank_limited():
    t = Tensor([[1.0, 2.0]])
    assert t.data.dtype == np.float32
    assert Tensor(np.zeros((2, 2, 2, 2))).shape == (2, 2, 2, 2)  # a (B, heads, T, d_h) stack
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2, 2, 2)))


def test_matmul_matches_numpy_and_checks_shapes():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4)).astype(np.float32)
    b = rng.standard_normal((4, 5)).astype(np.float32)
    out = matmul(Tensor(a), Tensor(b))
    assert np.array_equal(out.data, a @ b)
    with pytest.raises(ShapeError):
        matmul(Tensor(a), Tensor(a))


def test_stacked_ops_forward_and_shape_errors():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 3, 4)).astype(np.float32)
    b = rng.standard_normal((2, 4, 5)).astype(np.float32)
    assert np.array_equal(matmul(Tensor(a), Tensor(b)).data, a @ b)
    assert np.array_equal(transpose(Tensor(a), (2, 0, 1)).data, a.transpose(2, 0, 1))
    scores = a[:, None]  # two sequences of one head, each weighted as if on its own
    keep = np.stack([np.tri(3, 4, dtype=bool), ~np.tri(3, 4, dtype=bool)])[:, None]
    assert np.array_equal(attention_weights(scores, 0.5, keep)[0][1],
                          attention_weights(scores[1:], 0.5, keep[1:])[0][0])
    assert np.array_equal(attention_weights(scores, 0.5)[0][0],
                          attention_weights(scores[:1], 0.5)[0][0])
    with pytest.raises(ShapeError):  # stacks of different lengths
        matmul(Tensor(a), Tensor(b[:1]))
    with pytest.raises(ShapeError):  # a stack times a matrix
        matmul(Tensor(a), Tensor(b[0]))
    for axes in [(0, 0, 1), (0, 1), (0, 1, 3)]:
        with pytest.raises(ShapeError):
            transpose(Tensor(a), axes)
    a4 = a.reshape(2, 3, 2, 2)  # a (B, heads, T, d_h) stack
    assert np.array_equal(transpose(Tensor(a4), (0, 2, 1, 3)).data, a4.transpose(0, 2, 1, 3))


def test_rank4_stacks_multiply_per_matrix_and_take_a_mask_per_sequence():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)  # 2 sequences of 3 heads
    b = rng.standard_normal((2, 3, 5, 4)).astype(np.float32)
    out = matmul(Tensor(a), Tensor(b)).data
    assert out.shape == (2, 3, 4, 4)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(out[i, j], a[i, j] @ b[i, j])
    for bad in (b[:1], b[:, :2], b[0], b[..., :3, :]):  # leading axes, rank, inner width
        with pytest.raises(ShapeError):
            matmul(Tensor(a), Tensor(bad))
    keep = rng.random((2, 1, 4, 4)) < 0.7  # one mask per sequence, shared by its heads
    for weights in (lambda s, f, k=None: attention_weights(s, f, k)[0],
                    lambda s, f, k=None: per_op.attention_weights(Tensor(s), f, k).data):
        assert weights(out, 0.5, keep).shape == (2, 3, 4, 4)
        with pytest.raises(ShapeError):  # a (B*heads, T_q, T_k) stack
            weights(out.reshape(6, 4, 4), 0.5)
        with pytest.raises(ShapeError):  # rank 5 is no stack of score matrices
            weights(out[None], 0.5)
        # one (T_q, T_k) mask for every matrix, one per matrix, other shapes,
        # and a mask that is not boolean, whose ~ would hide every score
        for mask in (keep[0, 0], keep.repeat(3, axis=1), keep[:1], keep[0], keep[:, :, :1],
                     keep[..., :1], keep.astype(np.int8)):
            with pytest.raises(ShapeError):
                weights(out, 0.5, mask)


# The ops as tensor.py had them before the bias moved into matmul,
# layer_norm and softmax_rows called np.add.reduce, and attention's scale,
# mask_fill and softmax_rows became one op: each returns (forward value,
# backward function). The current kernels must agree with them bit for bit.
def _old_add_bias_matmul(a, b, bias):
    def backward(g):  # add_bias passed g to the product unchanged
        return g @ b.swapaxes(-1, -2), a.swapaxes(-1, -2) @ g, g.sum(axis=0)

    return a @ b + bias, backward


def _old_layer_norm(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.float32(1e-5))
    xhat = (x - mu) * inv

    def backward(g):
        gh = g * gain
        dx = inv * (gh - gh.mean(axis=1, keepdims=True) - xhat * (gh * xhat).mean(axis=1, keepdims=True))
        return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return xhat * gain + bias, backward


def _out_of_place_layer_norm(x, gain, bias):
    """layer_norm from one centred copy, each step in a new array."""
    d = x.shape[1]
    centred = x - np.add.reduce(x, axis=1, keepdims=True) / d
    var = np.add.reduce(centred * centred, axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + np.float32(1e-5))
    xhat = centred * inv

    def backward(g):
        gh = g * gain
        dx = inv * (gh - np.add.reduce(gh, axis=1, keepdims=True) / d
                    - xhat * (np.add.reduce(gh * xhat, axis=1, keepdims=True) / d))
        return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return xhat * gain + bias, backward


def _old_softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return p, backward


def _old_scale(x, factor):
    f = np.float32(factor)
    return x * f, lambda g: (g * f,)


def _old_mask_fill(x, keep):
    return np.where(keep, x, MASK_FILL_VALUE), lambda g: (g * keep,)


def _old_attention_weights(x, factor, keep=None):
    """scale, then mask_fill when there is a mask, then softmax_rows, as the
    tape ran them: the backward passes the gradient through them in reverse."""
    ops = [lambda y: _old_scale(y, factor), _old_softmax_rows]
    if keep is not None:
        ops.insert(1, lambda y: _old_mask_fill(y, keep))
    backwards = []
    for op in ops:
        x, backward = op(x)
        backwards.append(backward)

    def backward(g):
        for step in reversed(backwards):
            (g,) = step(g)
        return (g,)

    return x, backward


def _assert_bitwise_like_old(kernel, old, args, g):
    """kernel's output and input gradients `==` old's."""
    out, backward = kernel(*args)
    expect, expect_backward = old(*args)
    assert out.tobytes() == expect.tobytes()
    got = backward(g)
    for got, want in zip(got if isinstance(got, tuple) else (got,), expect_backward(g),
                         strict=True):
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [1, 9, 256, 288])
@pytest.mark.parametrize("width", [16, 32, 64, 256])
def test_sublayer_kernels_match_their_old_forms_bitwise(rows, width):
    rng = np.random.default_rng(rows * 1000 + width)

    def draw(*shape, loc=0.0):
        return (loc + rng.standard_normal(shape)).astype(np.float32)

    x, w, bias, g = draw(rows, width, loc=3.0), draw(width, width), draw(width), draw(rows, width)
    gain = draw(width, loc=1.0)
    _assert_bitwise_like_old(linear, _old_add_bias_matmul, (x, w, bias), g)
    _assert_bitwise_like_old(layer_norm, _old_layer_norm, (x, gain, bias), g)
    _assert_bitwise_like_old(layer_norm, _out_of_place_layer_norm, (x, gain, bias), g)
    _assert_bitwise_like_old(lambda t: attention_weights(t, 1.0), _old_softmax_rows,
                             (x[None, None],), g[None, None])


# (B, heads, T_q, T_k) score stacks: train-toy self and cross attention, an
# analyze-shape chunk, a decode step, and a tiny test model
@pytest.mark.parametrize("shape", [(32, 2, 9, 9), (32, 2, 9, 6), (8, 4, 8, 8), (8, 8, 1, 13),
                                   (2, 2, 5, 3)])
@pytest.mark.parametrize("mask", ["none", "per_sequence", "fully_masked_row"])
def test_attention_weights_match_scale_mask_fill_softmax_rows_bitwise(shape, mask):
    rng = np.random.default_rng(sum(shape))
    batch, _, t_q, t_k = shape
    x = (4.0 * rng.standard_normal(shape)).astype(np.float32)
    g = rng.standard_normal(shape).astype(np.float32)
    keep = None if mask == "none" else rng.random((batch, 1, t_q, t_k)) < 0.7
    if mask == "fully_masked_row":
        keep[0, 0, -1] = False
    factor = 1.0 / np.sqrt(16)
    _assert_bitwise_like_old(lambda t: attention_weights(t, factor, keep),
                             lambda a: _old_attention_weights(a, factor, keep), (x,), g)


def test_matmul_bias_needs_a_matching_row_vector():
    # matmul takes no bias: the sublayers add theirs in the `linear` kernel,
    # and the per-op reference's matmul keeps the bias the sublayers once took
    a, b = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 5)))
    with pytest.raises(TypeError):
        matmul(a, b, Tensor(np.arange(5)))
    expect = np.broadcast_to(4 + np.arange(5, dtype=np.float32), (3, 5))
    assert np.array_equal(per_op.matmul(a, b, Tensor(np.arange(5))).data, expect)
    for bias in (np.ones(4), np.ones((1, 5))):
        with pytest.raises(ShapeError):
            per_op.matmul(a, b, Tensor(bias))
    with pytest.raises(ShapeError):  # a stacked product takes no bias
        per_op.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 5))), Tensor(np.ones(5)))


def _row_loss(y):
    """Cross-entropy over the rows of y flattened to a matrix, fixed targets."""
    cols = y.shape[-1]
    rows = y.data.size // cols
    return cross_entropy(per_op.reshape(y, (rows, cols)), np.arange(rows), np.arange(rows) % cols)


def _weights_op(factor, keep=None):
    """The attention_weights kernel as a Tensor op of the scores, for grad_check."""
    def op(scores):
        out, backward = attention_weights(scores.data, factor, keep)
        return emit(Tensor(out), (scores,), lambda g: (backward(g),))

    return op


# reshape lives on as the per-op reference's (tests/per_op.py), and
# attention_weights as the kernel inside attention_forward; the sublayers'
# own oracles are tests/test_model.py test_sublayers_pass_grad_check.
@pytest.mark.parametrize("op", ["matmul", "matmul_bias", "transpose", "reshape", "softmax_rows",
                                "mask_fill", "rank4_transpose", "rank4_matmul",
                                "per_sequence_mask_fill"])
def test_stacked_ops_pass_grad_check(op):
    rng = np.random.default_rng(6)
    a = Tensor(rng.standard_normal((2, 3, 4)))
    b = Tensor(rng.standard_normal((2, 4, 3)))
    bias = Tensor(rng.standard_normal(6))
    keep = np.tri(3, 4, dtype=bool)
    reshape = per_op.reshape
    build = {
        "matmul": lambda p: matmul(p[0], p[1]),
        "matmul_bias": lambda p: per_op.matmul(reshape(p[0], (6, 4)), reshape(p[1], (4, 6)),
                                              p[2]),
        "transpose": lambda p: transpose(p[0], (2, 0, 1)),
        "reshape": lambda p: reshape(p[0], (4, 6)),
        # attention_weights, which scales, fills masked scores and takes the
        # softmax of each row: with no mask, or one per sequence of one head
        # or of two
        "softmax_rows": lambda p: _weights_op(0.7)(reshape(p[0], (2, 1, 3, 4))),
        "mask_fill": lambda p: _weights_op(0.7, np.stack([keep, ~keep])[:, None])(
            reshape(p[0], (2, 1, 3, 4))),
        "rank4_transpose": lambda p: transpose(reshape(p[0], (2, 3, 2, 2)), (0, 2, 1, 3)),
        "rank4_matmul": lambda p: matmul(reshape(p[0], (2, 1, 3, 4)), reshape(p[1], (2, 1, 4, 3))),
        "per_sequence_mask_fill": lambda p: _weights_op(0.7, keep[None, None])(
            reshape(p[0], (1, 2, 3, 4))),
    }[op]
    err = grad_check(lambda p: _row_loss(build(p)), [a, b, bias], coords_per_tensor=8)
    assert err < 1e-3


def test_elementwise_forward_oracles():
    x = Tensor([[1.0, -2.0], [0.0, 3.0]])
    assert np.array_equal(per_op.scale(x, 2.0).data, [[2.0, -4.0], [0.0, 6.0]])
    assert np.array_equal(per_op.add(x, x).data, 2 * x.data)
    assert np.array_equal(per_op.matmul(x, Tensor(np.eye(2)), Tensor([10.0, 20.0])).data,
                          [[11.0, 18.0], [10.0, 23.0]])
    assert np.array_equal(transpose(x).data, x.data.T)
    assert np.array_equal(slice_cols(x, 1, 2).data, [[-2.0], [3.0]])
    assert np.array_equal(concat_cols([x, x]).data, np.concatenate([x.data, x.data], axis=1))


def test_softmax_rows_is_stable_and_normalized():
    x = np.array([[[[1000.0, 1000.0, 1000.0], [0.0, 1.0, 2.0]]]], dtype=np.float32)
    p = attention_weights(x, 1.0)[0][0, 0]
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.allclose(p[0], [1 / 3, 1 / 3, 1 / 3])
    e = np.exp([0.0, 1.0, 2.0])
    assert np.allclose(p[1], e / e.sum(), atol=1e-7)
    e = np.exp([0.0, 0.5, 1.0])  # the scale comes before the softmax
    assert np.allclose(attention_weights(x, 0.5)[0][0, 0, 1], e / e.sum(), atol=1e-7)


def test_fully_filled_mask_row_degrades_to_uniform():
    x = np.array([[[[5.0, -1.0, 2.0], [1.0, 2.0, 3.0]]]], dtype=np.float32)
    keep = np.array([[[[False, False, False], [True, False, True]]]])
    p = attention_weights(x, 2.0, keep)[0][0, 0]
    assert np.allclose(p[0], [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(p[1], [1 / (1 + np.exp(4.0)), 0.0, 1 / (1 + np.exp(-4.0))])


def test_layer_norm_normalizes_rows():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 8)).astype(np.float32)
    out, _ = layer_norm(x, np.ones(8, np.float32), np.zeros(8, np.float32))
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-6)
    assert np.allclose(out.var(axis=1), 1.0, atol=1e-3)
    # constant rows have zero variance; eps keeps the output finite (= bias)
    flat, _ = layer_norm(np.full((2, 8), 3.0, np.float32), np.ones(8, np.float32),
                         np.full(8, 7.0, np.float32))
    assert np.allclose(flat, 7.0)


def test_cross_entropy_matches_log_softmax_oracle():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((5, 7)).astype(np.float32)
    targets = [3, 0, 6, 2, 1]
    loss = cross_entropy(Tensor(logits), np.arange(5), targets)
    z = logits.astype(np.float64)
    logp = z - np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) \
        - z.max(axis=1, keepdims=True)
    expect = -np.mean([logp[i, t] for i, t in enumerate(targets)])
    assert abs(float(loss.data) - expect) < 1e-6


def test_cross_entropy_row_and_target_errors():
    logits = Tensor(np.zeros((3, 4), dtype=np.float32))
    full = cross_entropy(logits, [0, 1, 2], [1, 2, 3])
    partial = cross_entropy(logits, [0, 2], [1, 3])
    assert np.isclose(float(full.data), np.log(4)) and np.isclose(float(partial.data), np.log(4))
    for rows, targets in (([], []), ([0, 1], [0]), ([[0, 1]], [[0, 1]]), ([1, 1], [0, 2]),
                          ([0, 3], [0, 1]), ([-1, 0], [0, 1])):
        with pytest.raises(ShapeError):  # no rows, unequal lengths, a repeated or missing row
            cross_entropy(logits, rows, targets)
    for targets in ([0, 4, 1], [0, -1, 1]):
        with pytest.raises(IndexError):
            cross_entropy(logits, [0, 1, 2], targets)


def test_cross_entropy_unscored_rows_get_zero_gradient():
    logits = Tensor(np.random.default_rng(3).standard_normal((4, 5)).astype(np.float32))
    tape = ComputeTape()
    with recording(tape):
        loss = cross_entropy(logits, [2, 0], [1, 4])
    tape.backward(loss)
    assert logits.grad[[1, 3]].tobytes() == np.zeros((2, 5), np.float32).tobytes()  # not -0.0
    assert logits.grad[[0, 2]].all()
    assert np.allclose(logits.grad.sum(axis=1), 0.0, atol=1e-7)  # each scored row: (p - onehot)/n


def test_embedding_lookup_gather_and_scatter():
    table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
    out = per_op.embedding_lookup(table, [2, 0, 2])
    assert np.array_equal(out.data, table.data[[2, 0, 2]])
    tape = ComputeTape()
    with recording(tape):
        loss = total(per_op.embedding_lookup(table, [2, 0, 2]))
    tape.backward(loss)
    # row 2 used twice -> gradient 2, row 0 once, others 0
    assert np.array_equal(table.grad, np.array([[1] * 3, [0] * 3, [2] * 3, [0] * 3], np.float32))
    with pytest.raises(IndexError):
        per_op.embedding_lookup(table, [0, 4])


def test_tape_accumulates_across_reuse():
    x = Tensor([[1.0, 2.0]])
    tape = ComputeTape()
    with recording(tape):
        y = per_op.add(x, x)
        loss = total(y)
    tape.backward(loss)
    assert np.array_equal(x.grad, [[2.0, 2.0]])
    assert y.grad is None and loss.grad is None  # op outputs drop theirs once passed on


def test_backward_requires_finite_scalar():
    x = Tensor([[1.0, 2.0]])
    tape = ComputeTape()
    with recording(tape):
        y = per_op.add(x, x)
    with pytest.raises(ShapeError):
        tape.backward(y)
    bad = Tensor(np.float32(np.inf))
    with pytest.raises(NumericError):
        ComputeTape().backward(bad)


def test_replay_is_bit_deterministic():
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal((6, 6)).astype(np.float32))
    b = Tensor(rng.standard_normal((6, 6)).astype(np.float32))

    def pass_once():
        a.zero_grad()
        b.zero_grad()
        tape = ComputeTape()
        with recording(tape):
            h = per_op.relu(matmul(a, b))
            loss = cross_entropy(per_op.layer_norm(h, Tensor(np.ones(6)), Tensor(np.zeros(6))),
                                 np.arange(6), [0, 1, 2, 3, 4, 5])
        tape.backward(loss)
        return a.grad.tobytes(), b.grad.tobytes()

    assert pass_once() == pass_once()


def test_dropout_zero_rate_is_identity_and_mask_scales():
    x = Tensor(np.ones((50, 40), dtype=np.float32))
    assert per_op.dropout(x, 0.0, np.random.default_rng(0)) is x
    out = per_op.dropout(x, 0.25, np.random.default_rng(0))
    vals = np.unique(out.data)
    assert set(vals.tolist()) <= {0.0, np.float32(1 / 0.75)}
    kept = (out.data != 0).mean()
    assert 0.65 < kept < 0.85
    with pytest.raises(NumericError):
        per_op.dropout(x, 1.0, np.random.default_rng(0))


def test_grad_check_quadratic_is_exact_at_power_of_two_step():
    # All values and the 2^-10 step are exactly representable, so the
    # central difference of a quadratic is exact in float32.
    w = Tensor([[0.5, 0.5]])

    def f(params):
        shifted = per_op.add(params[0], Tensor([[-0.25, -0.25]]))
        return total(matmul(shifted, transpose(shifted)))

    err = grad_check(f, [w], eps=2.0**-10, coords_per_tensor=2, seed=0)
    assert err < 1e-6


def test_grad_check_flags_wrong_gradients():
    # per_op.scale's backward is correct, so a deliberately inconsistent function
    # (fresh randomness per call) must blow up the check
    rng = np.random.default_rng(5)
    w = Tensor([[0.5, 0.25]])

    def noisy(params):
        return total(per_op.scale(params[0], float(rng.standard_normal())))

    assert grad_check(noisy, [w], eps=1e-2) > 1e-3


def test_mask_fill_blocks_gradient():
    """attention_weights passes no gradient to a masked score of any head of
    a sequence; every kept score of a row with two or more kept entries gets
    some."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)  # 2 sequences of 2 heads
    g = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
    causal = np.tri(3, dtype=bool)
    keep = np.stack([causal, ~causal | np.eye(3, dtype=bool)])[:, None]
    grad = attention_weights(x, 0.5, keep)[1](g)
    mask = np.broadcast_to(keep, x.shape)
    assert np.all(grad[~mask] == 0.0)
    several = mask & (mask.sum(axis=-1, keepdims=True) > 1)
    assert np.all(grad[several] != 0.0)
