"""Optimization: inverse-sqrt schedule, Adam, and the training loop.

Batches are index groups over the corpus. A step runs its batch as one
right-padded block on one tape, and the batch loss is the mean negative
log-likelihood over all predicted (non-pad) positions in the batch, which
equals the token-weighted mean of the per-pair losses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .counting import count_params
from .errors import ConfigError, NumericError
from .sharing import FFNStrategy
from .store import ParamStore
from .tensor import ComputeTape, recording
from .transformer import TransformerModel, build_model
from .vocab import Corpus


@dataclass(frozen=True)
class Schedule:
    base_lr: float = 7e-4
    warmup_steps: int = 4000

    def __post_init__(self):
        if not (np.isfinite(self.base_lr) and self.base_lr > 0) or self.warmup_steps < 1:
            raise ConfigError("schedule needs a finite base_lr > 0 and warmup_steps >= 1")


def lr_at(schedule: Schedule, step: int) -> float:
    """Linear warmup to base_lr at warmup_steps, then inverse-sqrt decay."""
    if step < 1:
        raise ConfigError(f"step must be >= 1, got {step}")
    w = schedule.warmup_steps
    return schedule.base_lr * min(step * w**-1.5, step**-0.5) / w**-0.5


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.98, 1e-9


class AdamState:
    """First/second moment buffers over the store's flat parameters plus the
    step count, and two flat scratch buffers that `adam_step` works in."""

    def __init__(self, store: ParamStore):
        self.t = 0
        self.m, self.v = np.zeros_like(store.flat), np.zeros_like(store.flat)
        self.grad, self.work = np.empty_like(store.flat), np.empty_like(store.flat)


def adam_step(store: ParamStore, state: AdamState, lr: float):
    """One Adam update of the store's flat buffer from its tensors' gradients,
    a None grad reading as zeros. Aborts (mutating nothing) on a non-finite one.
    The arithmetic runs in the state's scratch buffers; its one temporary is
    the finiteness check's boolean mask, a quarter of the parameters' bytes.
    """
    g, work = state.grad, state.work
    at = 0
    for p in store.physical.values():
        n = p.data.size
        g[at : at + n] = 0.0 if p.grad is None else p.grad.ravel()
        at += n
    if not np.isfinite(g).all():
        name = next(n for n, p in store.physical.items()
                    if p.grad is not None and not np.isfinite(p.grad).all())
        raise NumericError(f"non-finite gradient in {name}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    state.m *= b1
    state.m += np.multiply(g, 1.0 - b1, out=work)
    state.v *= b2
    state.v += np.multiply(np.square(g, out=work), 1.0 - b2, out=work)
    # flat -= lr * m_hat / (sqrt(v_hat) + eps), the denominator in g's buffer
    denom = np.sqrt(np.divide(state.v, np.float32(c2), out=g), out=g)
    denom += np.float32(ADAM_EPS)
    step = np.multiply(np.divide(state.m, np.float32(c1), out=work), np.float32(lr), out=work)
    step /= denom
    store.flat -= step


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for at in range(0, n, batch_size):
        yield order[at : at + batch_size]


def train(model: TransformerModel, corpus: Corpus, steps: int, batch_size: int,
          seed: int = 0, schedule: Schedule | None = None,
          state: AdamState | None = None) -> list[float]:
    """Run `steps` optimizer updates; returns the per-step batch losses.

    Deterministic given (model parameters, corpus, steps, batch_size, seed,
    schedule, state): batch order and dropout draw from generators derived
    from `seed`, and each update reads Adam's step count and moments from
    `state` (fresh if None) and its learning rate from `schedule` at that
    count (the default Schedule if None).
    steps=0 returns [] and touches nothing.
    """
    if steps < 0 or batch_size < 1:
        raise ConfigError("need steps >= 0 and batch_size >= 1")
    if len(corpus) == 0:
        raise ConfigError("empty corpus")
    if schedule is None:
        schedule = Schedule()
    if state is None:
        state = AdamState(model.store)
    shuffle_rng = np.random.default_rng([seed, 0])
    dropout_rng = np.random.default_rng([seed, 1])
    losses: list[float] = []
    step = 0
    while step < steps:
        for batch in _batches(len(corpus), batch_size, shuffle_rng):
            if step >= steps:
                break
            step += 1
            model.store.zero_grad()
            tape = ComputeTape()
            with recording(tape):
                batch_loss, _ = model.loss_for_pair([corpus.pairs[int(i)] for i in batch],
                                                    rng=dropout_rng)
            tape.backward(batch_loss)
            adam_step(model.store, state, lr_at(schedule, state.t + 1))
            losses.append(float(batch_loss.data))
    return losses


def token_accuracy(model: TransformerModel, corpus: Corpus, limit: int | None = None) -> float:
    """Teacher-forced next-token accuracy over the corpus (or its first
    `limit` pairs): the share of tgt + <eos> labels that are the argmax of
    their logits row, run in the model's padded evaluation chunks."""
    if limit is not None and limit < 1:
        raise ConfigError(f"limit must be at least 1, got {limit}")
    pairs = corpus.pairs[:limit]
    if not pairs:
        raise ConfigError("empty corpus")
    hit = total = 0
    for chunk, logits, _ in model.eval_chunks(pairs):
        rows, labels = model.target_labels(chunk, logits.shape[0])
        hit += int((logits.data[rows].argmax(axis=1) == labels).sum())
        total += len(rows)
    return hit / total


def ffn_dim_sweep(base_config: ModelConfig, side: str, dims: list[int], corpus: Corpus,
                  steps: int, batch_size: int, seed: int = 0,
                  schedule: Schedule | None = None) -> list[dict]:
    """Train one fresh model per FFN width on the chosen side.

    Width 0 removes that side's FFNs (NoOp); any other width rewidths the
    side's Individual FFNs. Rows report the width, side, teacher-forced
    token accuracy, and exact parameter count. dims=[base d_ff] reproduces
    the unmodified baseline run.
    """
    if side not in ("encoder", "decoder"):
        raise ConfigError(f"side must be 'encoder' or 'decoder', got {side!r}")
    if (base_config.n_enc if side == "encoder" else base_config.n_dec) == 0:
        raise ConfigError(f"the model has no {side} layers, so no {side} FFN to widen")
    attr = "enc_ffn" if side == "encoder" else "dec_ffn"
    strategy = getattr(base_config.sharing, attr)
    if strategy.kind != "Individual":
        raise ConfigError("width sweeps are defined over Individual FFN stacks")
    if min(dims, default=0) < 0:
        raise ConfigError(f"negative width {min(dims)}")
    rows = []
    for dim in dims:
        if dim == 0:
            sharing = dataclasses.replace(base_config.sharing, **{attr: FFNStrategy("NoOp")})
            cfg = dataclasses.replace(base_config, sharing=sharing)
        else:
            key = "d_ff_enc" if side == "encoder" else "d_ff_dec"
            cfg = dataclasses.replace(base_config, **{key: dim})
        model = build_model(cfg, seed=seed)
        train(model, corpus, steps=steps, batch_size=batch_size, seed=seed, schedule=schedule)
        acc = token_accuracy(model, corpus)
        total, _ = count_params(cfg)
        rows.append({
            "d_ff": dim,
            "side": side,
            "token_accuracy": acc,
            "params": total,
            "noop": dim == 0,
        })
    return rows
