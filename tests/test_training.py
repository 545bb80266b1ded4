import tracemalloc

import numpy as np
import pytest

import wideffn as w
from wideffn.errors import ConfigError, NumericError
from wideffn.store import ParamStore
from wideffn import training, transformer
from wideffn.tensor import ComputeTape, Tensor, matmul, recording
from wideffn.training import (
    AdamState,
    Schedule,
    adam_step,
    ffn_dim_sweep,
    lr_at,
    token_accuracy,
    train,
)
from wideffn.vocab import generate_toy_task

from conftest import tiny_config, total


def test_lr_schedule_oracles():
    s = Schedule(base_lr=7e-4, warmup_steps=4000)
    # closed form: base * min(step * w^-1.5, step^-0.5) / w^-0.5
    assert lr_at(s, 1) == pytest.approx(7e-4 / 4000, rel=1e-12)
    assert lr_at(s, 4000) == pytest.approx(7e-4, rel=1e-12)
    assert lr_at(s, 16000) == pytest.approx(3.5e-4, rel=1e-12)
    with pytest.raises(ConfigError):
        lr_at(s, 0)


def test_lr_warmup_is_linear_then_decays():
    s = Schedule(base_lr=1e-3, warmup_steps=100)
    assert lr_at(s, 50) == pytest.approx(0.5 * lr_at(s, 100))
    assert lr_at(s, 101) < lr_at(s, 100)
    assert lr_at(s, 400) == pytest.approx(lr_at(s, 100) / 2)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        Schedule(base_lr=0.0)
    with pytest.raises(ConfigError):
        Schedule(warmup_steps=0)


def test_schedule_reads_base_lr_as_a_float():
    for base_lr in ("0.1", True, None):
        with pytest.raises(ConfigError, match="base_lr must be float"):
            Schedule(base_lr=base_lr)
    assert lr_at(Schedule(base_lr=np.float32(0.5), warmup_steps=1), 1) == 0.5


def test_schedule_stores_its_settings_as_typed_returns_them():
    # a numpy float32 base_lr schedules in float64, as its Python float does
    lr = lr_at(Schedule(np.float32(7e-4), 4000), 3)
    assert type(lr) is float
    assert lr == lr_at(Schedule(float(np.float32(7e-4)), 4000), 3)
    s = Schedule(base_lr=np.float32(7e-4), warmup_steps=np.int64(4000))
    assert type(s.base_lr) is float and type(s.warmup_steps) is int
    assert s.warmup_steps == 4000


def _scalar_store(value):
    return ParamStore([("x", ())], flat=np.array([value], dtype=np.float32))


def test_adam_first_step_moves_by_lr():
    # with bias correction, |first update| = lr regardless of gradient scale
    for g in (0.01, 3.0, 250.0):
        store = _scalar_store(1.0)
        store.physical["x"].grad = np.array(g, dtype=np.float32)
        adam_step(store, AdamState(store), lr=0.1)
        assert float(store.physical["x"].data) == pytest.approx(1.0 - 0.1, abs=1e-5)


def test_adam_descends_a_quadratic():
    # minimize (w - 3)^2 elementwise
    store = ParamStore([("w", (4,))])
    state = AdamState(store)
    wt = store.physical["w"]
    for _ in range(400):
        store.zero_grad()
        wt.grad = 2.0 * (wt.data - 3.0)
        adam_step(store, state, lr=0.05)
    assert np.allclose(wt.data, 3.0, atol=0.05)
    assert state.t == 400


def test_adam_rejects_nonfinite_grad_without_mutation():
    store = ParamStore([("a", (2,)), ("b", (1,))], flat=np.array([1.0, 2.0, 3.0], dtype=np.float32))
    store.physical["a"].grad = np.array([0.1, 0.2], dtype=np.float32)
    store.physical["b"].grad = np.array([np.nan], dtype=np.float32)
    state = AdamState(store)
    before = {n: p.data.copy() for n, p in store.physical.items()}
    with pytest.raises(NumericError):
        adam_step(store, state, lr=0.1)
    assert state.t == 0
    for n, p in store.physical.items():
        assert np.array_equal(p.data, before[n])


def test_adam_none_grad_is_zero_grad():
    store = _scalar_store(5.0)
    adam_step(store, AdamState(store), lr=0.1)
    assert float(store.physical["x"].data) == pytest.approx(5.0)
    # after steps with gradients, a None grad still reads as zeros, not as
    # what the last step gathered
    stores = [ParamStore([("a", (3,)), ("b", (2,))]) for _ in range(2)]
    steps = [adam_step, _per_tensor_adam()]
    states = [AdamState(s) for s in stores]
    for grads in ({"a": [1, 2, 3], "b": [4, 5]}, {"a": [1, 1, 1]}, {}):
        for s, step, state in zip(stores, steps, states):
            s.zero_grad()
            for name, g in grads.items():
                s.physical[name].grad = np.array(g, dtype=np.float32)
            step(s, state, lr=0.1)
    assert stores[0].flat.tobytes() == stores[1].flat.tobytes()


def test_adam_matches_reference_trajectory():
    # independent float64 reference implementation, same hyperparameters
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal(6).astype(np.float32)
    a = rng.standard_normal((6, 6)).astype(np.float32)

    store = ParamStore([("w", (6,))], flat=w0.copy())
    state = AdamState(store)
    for _ in range(25):
        store.zero_grad()
        g = (a + a.T) @ store.physical["w"].data
        store.physical["w"].grad = g.astype(np.float32)
        adam_step(store, state, lr=0.01)

    wr = w0.astype(np.float64).copy()
    m = np.zeros(6)
    v = np.zeros(6)
    for t in range(1, 26):
        g = (a + a.T).astype(np.float64) @ wr
        m = 0.9 * m + 0.1 * g
        v = 0.98 * v + 0.02 * g * g
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.98**t)
        wr -= 0.01 * mh / (np.sqrt(vh) + 1e-9)
    assert np.allclose(store.physical["w"].data, wr, atol=1e-4)


def test_train_zero_steps_is_a_noop():
    m = w.build_model(tiny_config(), seed=0)
    before = {n: p.data.copy() for n, p in m.store.physical.items()}
    assert train(m, generate_toy_task("copy", 8, (2, 4), 12, seed=0), 0, 4) == []
    for n, p in m.store.physical.items():
        assert np.array_equal(p.data, before[n])


def test_train_is_deterministic():
    c = generate_toy_task("copy", 32, (2, 5), 12, seed=2)
    for cfg in (tiny_config(), tiny_config(dropout=0.3)):  # dropout draws per padded block
        la = train(w.build_model(cfg, seed=1), c, 6, 8, seed=9)
        lb = train(w.build_model(cfg, seed=1), c, 6, 8, seed=9)
        lc = train(w.build_model(cfg, seed=1), c, 6, 8, seed=10)
        assert la == lb
        assert la != lc
        assert len(la) == 6


def test_a_step_records_one_tape_whatever_its_batch_size(monkeypatch):
    tapes, batches = [], []

    class KeptTape(ComputeTape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    m = w.build_model(tiny_config(dropout=0.1), seed=0)
    loss_for_pair = type(m).loss_for_pair

    def counted(self, pairs, **kwargs):
        batches.append(len(pairs))
        return loss_for_pair(self, pairs, **kwargs)

    masked = []  # per attention_weights call: the tape it records on, and whether masked
    weights = transformer.attention_weights

    def counted_weights(x, f, keep=None):
        masked.append((len(tapes) - 1, keep is not None))
        return weights(x, f, keep)

    monkeypatch.setattr(training, "ComputeTape", KeptTape)
    monkeypatch.setattr(type(m), "loss_for_pair", counted)
    monkeypatch.setattr(transformer, "attention_weights", counted_weights)
    c = generate_toy_task("copy", 64, (2, 7), 12, seed=1)
    train(m, c, 2, 32, seed=0)
    train(m, c, 1, 1, seed=0)
    assert batches == [32, 32, 1]
    assert len(tapes) == 3
    # The same ops in the same order at any batch size, except that a batch
    # of one pads nothing: its only masks are the decoder's causal ones.
    ops = [[fn.__qualname__.split(".")[0] for _, _, fn in tape.nodes] for tape in tapes]
    assert ops[0] == ops[1] == ops[2]
    per_tape = [sum(is_masked for tape, is_masked in masked if tape == i) for i in range(3)]
    assert ops[0].count("attention_forward") == 2 + 2 * 2  # one node per attention sublayer
    assert per_tape == [2 + 2 * 2, 2 + 2 * 2, 2]


RAGGED_BATCH = [([4, 5, 6], [7, 8]), ([9], [4, 5, 6, 7, 8]), ([5, 6, 7, 8, 9, 10], [11]),
                ([4, 4], [6, 6, 6])]


def _loss_and_grads(m, pairs):
    m.store.zero_grad()
    tape = ComputeTape()
    with recording(tape):
        loss, n = m.loss_for_pair(pairs)
    tape.backward(loss)
    grads = {name: np.zeros(p.shape) if p.grad is None else p.grad.astype(np.float64)
             for name, p in m.store.physical.items()}
    return float(loss.data), n, grads


@pytest.mark.parametrize("preset", ["baseline", "SharedEncDec", "NoDec", "OneWideFFN",
                                    "decoder-only baseline"])
def test_batch_loss_and_grads_are_the_token_weighted_per_pair_ones(preset):
    if preset == "decoder-only baseline":
        cfg = tiny_config(n_enc=0, architecture="decoder-only")
    else:
        cfg = w.apply_preset(tiny_config(), preset)
    m = w.build_model(cfg, seed=3)
    loss, n, grads = _loss_and_grads(m, RAGGED_BATCH)
    per_pair = [_loss_and_grads(m, [pair]) for pair in RAGGED_BATCH]
    assert n == sum(n_i for _, n_i, _ in per_pair) == 15
    expect = sum(loss_i * n_i for loss_i, n_i, _ in per_pair) / n
    assert abs(loss - expect) <= 1e-6 * abs(expect)
    # One bound over the whole model, none per tensor: softmax ignores a
    # per-row shift, so each bk's gradient is zero in exact arithmetic and
    # holds roundoff alone, as large as itself between the two paths.
    want = {name: sum(g[name] * n_i for _, n_i, g in per_pair) / n for name in grads}
    bound = 1e-6 * max(np.abs(g).max() for g in want.values())
    for name in grads:
        assert np.abs(grads[name] - want[name]).max() <= bound, name


def test_train_reduces_loss():
    c = generate_toy_task("copy", 64, (2, 5), 12, seed=3)
    m = w.build_model(tiny_config(), seed=0)
    losses = train(m, c, 60, 16, seed=0, schedule=Schedule(2e-3, 30))
    assert np.mean(losses[-10:]) < np.mean(losses[:10]) * 0.7


def test_train_validates_arguments():
    c = generate_toy_task("copy", 4, (2, 3), 12, seed=0)
    m = w.build_model(tiny_config(), seed=0)
    with pytest.raises(ConfigError):
        train(m, c, -1, 4)
    with pytest.raises(ConfigError):
        train(m, c, 1, 0)


def test_resumed_state_continues_step_count():
    c = generate_toy_task("copy", 16, (2, 4), 12, seed=0)
    m = w.build_model(tiny_config(), seed=0)
    state = AdamState(m.store)
    train(m, c, 3, 4, seed=0, state=state)
    assert state.t == 3
    train(m, c, 2, 4, seed=1, state=state)
    assert state.t == 5


def test_token_accuracy_bounds_and_limit():
    c = generate_toy_task("copy", 16, (2, 4), 12, seed=5)
    m = w.build_model(tiny_config(), seed=0)
    acc = token_accuracy(m, c, limit=8)
    assert 0.0 <= acc <= 1.0
    for limit in (0, -1):  # as a slice bound, -1 would drop the last pair
        with pytest.raises(ConfigError, match="limit must be at least 1"):
            token_accuracy(m, c, limit=limit)
    for limit in (True, 2.5, "8"):  # True would score one pair
        with pytest.raises(ConfigError, match="limit must be int"):
            token_accuracy(m, c, limit=limit)
    assert token_accuracy(m, c, limit=np.int64(8)) == acc


def test_matmul_training_smoke():
    # scalar pipeline independent of the transformer: fit sum(xW) to move down
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
    store = ParamStore([("w", (4, 2))], flat=rng.standard_normal(8).astype(np.float32))
    wt = store.physical["w"]
    state = AdamState(store)
    first = None
    for _ in range(50):
        store.zero_grad()
        tape = ComputeTape()
        with recording(tape):
            y = total(matmul(x, wt))
        tape.backward(y)
        adam_step(store, state, lr=0.05)
        if first is None:
            first = float(y.data)
    assert float(total(matmul(x, wt)).data) < first


def test_ffn_dim_sweep_rows():
    c = generate_toy_task("copy", 24, (2, 4), 12, seed=1)
    rows = ffn_dim_sweep(tiny_config(), "decoder", [0, 16, 32], c, steps=2,
                         batch_size=8, seed=0, schedule=Schedule(1e-3, 10))
    assert [r["d_ff"] for r in rows] == [0, 16, 32]
    assert [r["noop"] for r in rows] == [True, False, False]
    assert all(r["side"] == "decoder" for r in rows)
    assert rows[0]["params"] < rows[1]["params"] < rows[2]["params"]
    # width == base d_ff reproduces the baseline parameter count
    base_total, _ = w.count_params(tiny_config())
    assert rows[2]["params"] == base_total


def test_ffn_dim_sweep_requires_individual_stack():
    c = generate_toy_task("copy", 8, (2, 3), 12, seed=0)
    cfg = w.apply_preset(tiny_config(), "SharedEnc")
    with pytest.raises(ConfigError):
        ffn_dim_sweep(cfg, "encoder", [16], c, steps=1, batch_size=4)
    # but the untouched side still sweeps fine
    rows = ffn_dim_sweep(cfg, "decoder", [16], c, steps=1, batch_size=4,
                         schedule=Schedule(1e-3, 10))
    assert rows[0]["side"] == "decoder"


def _per_tensor_adam():
    """Adam as one loop over the physical tensors, with moments per tensor name."""
    moments = {}

    def step(store, state, lr):
        for name, p in store.physical.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericError(f"non-finite gradient in {name}")
        state.t += 1
        b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
        c1 = 1.0 - b1**state.t
        c2 = 1.0 - b2**state.t
        for name, p in store.physical.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m, v = moments.setdefault(name, (np.zeros_like(p.data), np.zeros_like(p.data)))
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            m_hat = m / np.float32(c1)
            v_hat = v / np.float32(c2)
            p.data -= np.float32(lr) * m_hat / (np.sqrt(v_hat) + np.float32(training.ADAM_EPS))

    return step


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("preset", ["baseline", "NoDec", "SharedEncDec", "OneWideFFN", None])
def test_flat_adam_equals_the_per_tensor_loop_bitwise(monkeypatch, preset, dropout):
    if preset is None:
        cfg = tiny_config(n_enc=0, architecture="decoder-only", dropout=dropout)
    else:
        cfg = w.apply_preset(tiny_config(dropout=dropout), preset)
    c = generate_toy_task("copy", 24, (2, 5), 12, seed=3)
    sched = Schedule(base_lr=2e-3, warmup_steps=5)
    flat = w.build_model(cfg, seed=4)
    flat_losses = train(flat, c, 12, 8, seed=1, schedule=sched)
    monkeypatch.setattr(training, "adam_step", _per_tensor_adam())
    ref = w.build_model(cfg, seed=4)
    ref_losses = train(ref, c, 12, 8, seed=1, schedule=sched)
    assert flat_losses == ref_losses
    for name, p in ref.store.physical.items():
        assert p.data.tobytes() == flat.store.physical[name].data.tobytes(), name


@pytest.mark.parametrize("preset", ["baseline", "OneWideFFN"])
def test_adam_step_allocates_less_than_the_parameters(preset):
    """After a warm step, an update at the toy training shape allocates less
    than one copy of the parameters: its arithmetic runs in AdamState's
    scratch buffers, not in parameter-sized temporaries."""
    cfg = w.apply_preset(w.ModelConfig(n_enc=2, n_dec=2, d_model=32, d_ff=64, heads=2,
                                       vocab_size=20, dropout=0.0), preset)
    model = w.build_model(cfg, seed=0)
    state = AdamState(model.store)
    c = generate_toy_task("copy", 32, (3, 8), 20, seed=2)
    train(model, c, 1, 32, seed=0, state=state)
    model.store.zero_grad()
    tape = ComputeTape()
    with recording(tape):
        loss, _ = model.loss_for_pair(c.pairs)
    tape.backward(loss)
    tracemalloc.start()
    try:
        adam_step(model.store, state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.t == 2
    assert peak < model.store.flat.nbytes, (peak, model.store.flat.nbytes)
