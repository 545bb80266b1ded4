"""Transformer blocks, the parameter layout and builder, and forward passes.

Post-norm residual blocks throughout: sublayer output is
layer_norm(x + f(x)). A NoOp FFN removes the whole sublayer, residual and
normalization included, so the layer output is exactly the attention
output. Sharing works by aliasing: shared blocks hold the same Tensor
objects, so the tape accumulates their gradients automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, DataError
from .sharing import resolve_ffn_assignment
from .store import ParamStore
from .tensor import (
    Tensor,
    add,
    add_bias,
    cross_entropy,
    dropout,
    embedding_lookup,
    layer_norm,
    mask_fill,
    matmul,
    relu,
    reshape,
    scale,
    softmax_rows,
    transpose,
)
from .vocab import BOS, EOS, PAD

ATTN_PARTS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "ln_gain", "ln_bias")
FFN_PARTS = ("w1", "b1", "w2", "b2", "ln_gain", "ln_bias")


@dataclass
class AttentionBlock:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln_gain: Tensor
    ln_bias: Tensor


@dataclass
class FFNBlock:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln_gain: Tensor
    ln_bias: Tensor


def _xavier(rng: np.random.Generator, n_in: int, n_out: int) -> Tensor:
    limit = math.sqrt(6.0 / (n_in + n_out))
    return Tensor(rng.uniform(-limit, limit, size=(n_in, n_out)).astype(np.float32))


def sinusoidal_positions(n_positions: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos position table, shape (n_positions, d_model), float32."""
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    idx = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (idx // 2) / d_model)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(np.float32)


def causal_mask(n: int) -> np.ndarray:
    """keep[i, j] is True when position i may attend to position j <= i."""
    return np.tril(np.ones((n, n), dtype=bool))


def prefix_lm_mask(prefix_len: int, suffix_len: int) -> np.ndarray:
    """Bidirectional visibility inside the prefix, causal over the suffix."""
    if prefix_len < 0 or suffix_len < 1:
        raise ConfigError(f"bad prefix mask sizes ({prefix_len}, {suffix_len})")
    n = prefix_len + suffix_len
    keep = causal_mask(n)
    keep[:, :prefix_len] = True
    return keep


class TransformerModel:
    """A built model: config, parameter store, and resolved blocks."""

    def __init__(self, config: ModelConfig, store: ParamStore, embedding: Tensor,
                 enc_attn, enc_ffn, dec_self, dec_cross, dec_ffn):
        self.config = config
        self.store = store
        self.embedding = embedding
        self.enc_attn: list[AttentionBlock] = enc_attn
        self.enc_ffn: list[FFNBlock | None] = enc_ffn
        self.dec_self: list[AttentionBlock] = dec_self
        self.dec_cross: list[AttentionBlock | None] = dec_cross
        self.dec_ffn: list[FFNBlock | None] = dec_ffn

    # -- decode protocol -------------------------------------------------

    def encode(self, src_tokens: list[int]) -> Tensor | None:
        if self.config.architecture == "decoder-only":
            return None
        out, _ = encoder_forward(self, list(src_tokens) + [EOS])
        return out

    def teacher_forced(self, src: list[int], tgt: list[int], enc_out: Tensor | None = None,
                       train: bool = False, rng: np.random.Generator | None = None):
        """Decoder logits and taps with `tgt` fed as the decoder input.

        Encoder-decoder: the encoder sees src + <eos> (skipped when enc_out
        is given) and the decoder sees <bos> + tgt. Decoder-only: one
        sequence src + <eos> + <bos> + tgt whose source span, <eos>
        included, is bidirectional. Either way the last len(tgt) + 1 logit
        rows predict tgt + <eos>.
        """
        if self.config.architecture == "decoder-only":
            seq = list(src) + [EOS, BOS] + list(tgt)
            return decoder_forward(self, None, seq, prefix_len=len(src) + 1,
                                   train=train, rng=rng)
        if enc_out is None:
            enc_out, _ = encoder_forward(self, list(src) + [EOS], train=train, rng=rng)
        return decoder_forward(self, enc_out, [BOS] + list(tgt), train=train, rng=rng)

    def step_logits(self, enc_ctx, src_tokens: list[int], prefix: list[int]) -> np.ndarray:
        """Next-token logits after the given generated prefix."""
        logits, _ = self.teacher_forced(src_tokens, prefix, enc_out=enc_ctx)
        return np.asarray(logits.data[-1], dtype=np.float32)

    # -- training protocol ------------------------------------------------

    def loss_for_pair(self, src: list[int], tgt: list[int], train: bool = False,
                      rng: np.random.Generator | None = None):
        """Teacher-forced loss for one pair; returns (loss, n_predictions).

        The loss covers the predictions of tgt + <eos>; a decoder-only
        model's source rows are padded out of it.
        """
        logits, _ = self.teacher_forced(src, tgt, train=train, rng=rng)
        labels = list(tgt) + [EOS]
        padded = [PAD] * (logits.shape[0] - len(labels)) + labels
        return cross_entropy(logits, padded, ignore_index=PAD), len(labels)

    def predictions_for_pair(self, src: list[int], tgt: list[int]):
        """Teacher-forced argmax ids and gold labels for accuracy counting."""
        logits, _ = self.teacher_forced(src, tgt)
        labels = list(tgt) + [EOS]
        rows = np.asarray(logits.data)[-len(labels):]
        return rows.argmax(axis=1).tolist(), labels


def param_layout(config: ModelConfig):
    """The parameter census of a model, allocating nothing.

    Returns (tensors, aliases). `tensors` lists each physical tensor as
    (canonical name, shape) in creation order, which fixes both the order of
    the initialisation draws and the checkpoint order. `aliases` lists each
    usage site as (site, canonical name) in registration order; layers that
    share a block alias the same canonical names. Attention's
    Individual/SharedAll rules are FFN strategy kinds too, NoOp layers have
    no sites, and a tied decoder FFN aliases the encoder's single FFN, which
    is named under side `encdec`.
    """
    config = config.validate()
    d = config.d_model
    sharing = config.sharing
    tensors = [("embedding", (config.vocab_size, d))]
    aliases = [(site, "embedding") for site in ("src_embed", "tgt_embed", "out_proj")]

    def stack(side: str, kind: str, n_layers: int, strategy, cside: str | None = None,
              new: bool = True):
        if kind == "ffn":
            w = config.ffn_width(side)
            parts = list(zip(FFN_PARTS, ((d, w), (w,), (w, d), (d,), (d,), (d,))))
        else:
            parts = list(zip(ATTN_PARTS, ((d, d), (d,)) * 4 + ((d,), (d,))))
        assignment = resolve_ffn_assignment(strategy, n_layers)
        blocks = [f"{cside or side}.{kind}{m}." for m in range(max(assignment, default=-1) + 1)]
        if new:
            for block in blocks:
                tensors.extend([(block + part, shape) for part, shape in parts])
        for i, m in enumerate(assignment):
            site = f"{side}.layer{i}.{kind}."
            aliases.extend([(site + part, blocks[m] + part) for part, _ in parts])

    tied = "encdec" if sharing.tie_enc_dec_ffn else None
    if config.n_enc > 0:
        stack("enc", "sa", config.n_enc, sharing.enc_self_attn)
        stack("enc", "ffn", config.n_enc, sharing.enc_ffn, tied)
    stack("dec", "sa", config.n_dec, sharing.dec_self_attn)
    if config.architecture == "encoder-decoder":
        stack("dec", "ca", config.n_dec, sharing.dec_cross_attn)
    stack("dec", "ffn", config.n_dec, sharing.dec_ffn, tied, new=not tied)
    return tensors, aliases


def wire_model(config: ModelConfig, store: ParamStore) -> TransformerModel:
    """The model over a store that holds `param_layout(config)`.

    Each layer's block is read through its sites, and layers whose sites
    alias the same tensors share one block object, so tying is object
    identity all the way up. A layer without sites (a NoOp FFN, or cross
    attention in a decoder-only model) gets None.
    """
    made: dict[str, AttentionBlock | FFNBlock] = {}
    physical, aliases = store.physical, store.aliases

    def stack(side: str, kind: str, n_layers: int):
        cls, parts = (FFNBlock, FFN_PARTS) if kind == "ffn" else (AttentionBlock, ATTN_PARTS)
        out = []
        for i in range(n_layers):
            site = f"{side}.layer{i}.{kind}."
            key = aliases.get(site + parts[0])
            if key is not None and key not in made:
                made[key] = cls(*[physical[aliases[site + part]] for part in parts])
            out.append(made.get(key))
        return out

    return TransformerModel(config, store, store.resolve("tgt_embed"),
                            stack("enc", "sa", config.n_enc), stack("enc", "ffn", config.n_enc),
                            stack("dec", "sa", config.n_dec), stack("dec", "ca", config.n_dec),
                            stack("dec", "ffn", config.n_dec))


def build_model(config: ModelConfig, seed: int = 0) -> TransformerModel:
    """Materialize `param_layout(config)` in creation order and wire the model.

    Rank-2 tensors are Xavier-uniform draws from one generator seeded with
    `seed`, layer-norm gains are ones and everything else is zeros.
    """
    config = config.validate()
    rng = np.random.default_rng(seed)
    store = ParamStore()
    tensors, aliases = param_layout(config)
    for name, shape in tensors:
        if len(shape) == 2:
            store.add(name, _xavier(rng, *shape))
        else:
            fill = np.ones if name.endswith(".ln_gain") else np.zeros
            store.add(name, Tensor(fill(shape, dtype=np.float32)))
    for site, canonical in aliases:
        store.bind(site, canonical)
    return wire_model(config, store)


def attention_forward(q_in: Tensor, k_in: Tensor, v_in: Tensor, block: AttentionBlock,
                      mask: np.ndarray | None = None, *, heads: int = 1,
                      dropout_p: float = 0.0, train: bool = False,
                      rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head attention sublayer: projection, residual from q_in, norm.

    Each projection is split by reshape into a stack of heads, so one
    stacked matmul scores every head and one more weights the values.
    A fully masked score row degrades to a uniform attention row, because
    max subtraction inside the softmax cancels the shared fill value.
    """
    t_q, d = q_in.shape
    if d % heads != 0:
        raise ConfigError(f"width {d} not divisible by {heads} heads")
    dh = d // heads

    def split(x: Tensor, w: Tensor, b: Tensor, axes) -> Tensor:
        proj = add_bias(matmul(x, w), b)
        return transpose(reshape(proj, (x.shape[0], heads, dh)), axes)

    q = split(q_in, block.wq, block.bq, (1, 0, 2))  # (heads, t_q, dh)
    k = split(k_in, block.wk, block.bk, (1, 2, 0))  # (heads, dh, t_k)
    v = split(v_in, block.wv, block.bv, (1, 0, 2))  # (heads, t_k, dh)
    scores = scale(matmul(q, k), 1.0 / math.sqrt(dh))
    if mask is not None:
        scores = mask_fill(scores, mask)
    heads_out = matmul(softmax_rows(scores), v)
    merged = reshape(transpose(heads_out, (1, 0, 2)), (t_q, d))
    proj = add_bias(matmul(merged, block.wo), block.bo)
    if train and dropout_p > 0.0:
        proj = dropout(proj, dropout_p, rng)
    return layer_norm(add(q_in, proj), block.ln_gain, block.ln_bias)


def ffn_forward(x: Tensor, block: FFNBlock | None, *, dropout_p: float = 0.0,
                train: bool = False, rng: np.random.Generator | None = None) -> Tensor:
    """Position-wise FFN sublayer; block None is the exact identity."""
    if block is None:
        return x
    h = relu(add_bias(matmul(x, block.w1), block.b1))
    y = add_bias(matmul(h, block.w2), block.b2)
    if train and dropout_p > 0.0:
        y = dropout(y, dropout_p, rng)
    return layer_norm(add(x, y), block.ln_gain, block.ln_bias)


def _embed(model: TransformerModel, ids: list[int], train: bool, rng) -> Tensor:
    cfg = model.config
    if len(ids) == 0:
        raise DataError("empty token sequence")
    if len(ids) > cfg.max_len:
        raise DataError(f"sequence length {len(ids)} exceeds max_len {cfg.max_len}")
    x = embedding_lookup(model.embedding, ids)
    x = scale(x, math.sqrt(cfg.d_model))
    x = add(x, Tensor(sinusoidal_positions(len(ids), cfg.d_model)))
    if train and cfg.dropout > 0.0:
        x = dropout(x, cfg.dropout, rng)
    return x


def encoder_forward(model: TransformerModel, src_ids: list[int], train: bool = False,
                    rng: np.random.Generator | None = None):
    """Run the encoder stack; returns (output, taps keyed '<i>.sa'/'<i>.ffn')."""
    cfg = model.config
    if cfg.architecture != "encoder-decoder":
        raise ConfigError("model has no encoder")
    x = _embed(model, src_ids, train, rng)
    taps: dict[str, Tensor] = {}
    for i in range(cfg.n_enc):
        x = attention_forward(x, x, x, model.enc_attn[i], mask=None, heads=cfg.heads,
                              dropout_p=cfg.dropout, train=train, rng=rng)
        taps[f"{i}.sa"] = x
        block = model.enc_ffn[i]
        if block is not None:
            x = ffn_forward(x, block, dropout_p=cfg.dropout, train=train, rng=rng)
            taps[f"{i}.ffn"] = x
    return x, taps


def decoder_forward(model: TransformerModel, enc_out: Tensor | None, ids: list[int],
                    prefix_len: int = 0, train: bool = False,
                    rng: np.random.Generator | None = None):
    """Run the decoder stack to vocabulary logits.

    Encoder-decoder mode needs enc_out and uses a causal self mask;
    decoder-only mode needs enc_out None and uses a prefix mask when
    prefix_len > 0. Returns (logits, taps keyed '<i>.sa'/'<i>.ca'/'<i>.ffn').
    """
    cfg = model.config
    if cfg.architecture == "encoder-decoder":
        if enc_out is None:
            raise ConfigError("encoder-decoder model needs encoder output")
    else:
        if enc_out is not None:
            raise ConfigError("decoder-only model takes no encoder output")
    x = _embed(model, ids, train, rng)
    n = len(ids)
    if prefix_len > 0:
        if prefix_len >= n:
            raise ConfigError(f"prefix_len {prefix_len} must leave a suffix in {n} positions")
        mask = prefix_lm_mask(prefix_len, n - prefix_len)
    else:
        mask = causal_mask(n)
    taps: dict[str, Tensor] = {}
    for i in range(cfg.n_dec):
        x = attention_forward(x, x, x, model.dec_self[i], mask=mask, heads=cfg.heads,
                              dropout_p=cfg.dropout, train=train, rng=rng)
        taps[f"{i}.sa"] = x
        if model.dec_cross[i] is not None:
            x = attention_forward(x, enc_out, enc_out, model.dec_cross[i], mask=None,
                                  heads=cfg.heads, dropout_p=cfg.dropout, train=train, rng=rng)
            taps[f"{i}.ca"] = x
        block = model.dec_ffn[i]
        if block is not None:
            x = ffn_forward(x, block, dropout_p=cfg.dropout, train=train, rng=rng)
            taps[f"{i}.ffn"] = x
    logits = matmul(x, transpose(model.embedding))
    return logits, taps
