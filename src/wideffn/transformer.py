"""Transformer blocks, the parameter layout and builder, and forward passes.

Post-norm residual blocks throughout: sublayer output is
layer_norm(x + f(x)). A NoOp FFN removes the whole sublayer, residual and
normalization included, so the layer output is exactly the attention
output. Sharing works by aliasing: shared blocks hold the same Tensor
objects, so the tape accumulates their gradients automatically.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=8)
def _position_table(max_len: int, d_model: int) -> np.ndarray:
    """`sinusoidal_positions(max_len, d_model)`, made once and read-only.

    Each row depends only on its own position, so a slice of this table
    equals the table of that many positions bit for bit.
    """
    table = sinusoidal_positions(max_len, d_model)
    table.setflags(write=False)
    return table


def causal_mask(n: int) -> np.ndarray:
    """keep[i, j] is True when position i may attend to position j <= i."""
    return np.tril(np.ones((n, n), dtype=bool))


def prefix_lm_mask(prefix_len: int, suffix_len: int) -> np.ndarray:
    """Bidirectional visibility inside the prefix, causal over the suffix."""
    if prefix_len < 0 or suffix_len < 0:
        raise ConfigError(f"bad prefix mask sizes ({prefix_len}, {suffix_len})")
    n = prefix_len + suffix_len
    keep = causal_mask(n)
    keep[:, :prefix_len] = True
    return keep


class DecodeMemo:
    """Incremental decoding state of one source.

    `entries` maps a decoder input, as a tuple of ids, to each decoder
    layer's self-attention [keys, values] over it. `cross` holds each
    layer's cross-attention [keys, values], projected from the encoder
    output by the first step. Only the two newest input lengths stay: a
    step reads the entry one id shorter than its input, and every
    hypothesis of a beam grows by one id per step, so its parent is kept
    and no rows need reordering. A step whose entry is gone runs its whole
    input again, which is slower but gives the same logits.
    """

    __slots__ = ("entries", "cross")

    def __init__(self, n_layers: int):
        self.entries: dict[tuple, list] = {}
        self.cross: list[list] = [[] for _ in range(n_layers)]

    def run(self, model: "TransformerModel", enc_out: Tensor | None, ids: tuple,
            prefix_len: int) -> Tensor:
        """Logits of the last id of `ids` (one row), running only the
        positions no entry holds; keeps the K/V of `ids` as a new entry."""
        past = self.entries.get(ids[:-1])
        start = 0 if past is None else len(ids) - 1
        selfs = [[] for _ in self.cross] if past is None else [list(layer) for layer in past]
        logits, _ = decoder_forward(model, enc_out, list(ids[start:]), prefix_len,
                                    kv=list(zip(selfs, self.cross)))
        n = len(ids)
        self.entries = {key: kv for key, kv in self.entries.items()
                        if n - 1 <= len(key) <= n}
        self.entries[ids] = selfs
        return logits


class EncodedSource(Tensor):
    """`encode`'s result for an encoder-decoder model: the encoder output,
    usable wherever that Tensor is, plus the source's DecodeMemo."""

    __slots__ = ("memo",)

    def __init__(self, data, memo: DecodeMemo):
        super().__init__(data)
        self.memo = memo


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

    def encode(self, src_tokens: list[int]) -> EncodedSource | DecodeMemo:
        """The decode context of one source, for `step_logits`.

        Encoder-decoder: the encoder output over src + <eos> with a fresh
        memo. Decoder-only: a memo that already holds the K/V of the
        bidirectional source prefix src + <eos>, run once here.
        """
        memo = DecodeMemo(self.config.n_dec)
        if self.config.architecture == "decoder-only":
            ids = tuple(src_tokens) + (EOS,)
            memo.run(self, None, ids, prefix_len=len(ids))
            return memo
        out, _ = encoder_forward(self, list(src_tokens) + [EOS])
        return EncodedSource(out.data, memo)

    def _decoder_input(self, src: list[int], tgt: list[int]) -> tuple[list[int], int]:
        """The decoder ids with `tgt` fed, and the length of their bidirectional prefix."""
        if self.config.architecture == "decoder-only":
            return list(src) + [EOS, BOS] + list(tgt), len(src) + 1
        return [BOS] + list(tgt), 0

    def teacher_forced(self, src: list[int], tgt: list[int], enc_out: Tensor | None = None,
                       train: bool = False, rng: np.random.Generator | None = None):
        """Decoder logits and taps with `tgt` fed as the decoder input.

        Encoder-decoder: the encoder sees src + <eos> (skipped when enc_out
        is given) and the decoder sees <bos> + tgt. Decoder-only: one
        sequence src + <eos> + <bos> + tgt whose source span, <eos>
        included, is bidirectional. Either way the last len(tgt) + 1 logit
        rows predict tgt + <eos>.
        """
        ids, prefix_len = self._decoder_input(src, tgt)
        if self.config.architecture == "decoder-only":
            enc_out = None
        elif enc_out is None:
            enc_out, _ = encoder_forward(self, list(src) + [EOS], train=train, rng=rng)
        return decoder_forward(self, enc_out, ids, prefix_len=prefix_len, train=train, rng=rng)

    def step_logits(self, enc_ctx, src_tokens: list[int], prefix: list[int]) -> np.ndarray:
        """Next-token logits after the given generated prefix.

        With the context `encode` returned, only the positions its memo
        lacks run, normally just the newest one. With enc_ctx None (or a
        bare encoder output) the whole teacher-forced sequence runs again:
        that recompute is the reference the cached path is tested against.
        """
        memo = enc_ctx if isinstance(enc_ctx, DecodeMemo) else getattr(enc_ctx, "memo", None)
        if memo is None:
            logits, _ = self.teacher_forced(src_tokens, prefix, enc_out=enc_ctx)
        else:
            ids, prefix_len = self._decoder_input(src_tokens, prefix)
            enc_out = None if enc_ctx is memo else enc_ctx
            logits = memo.run(self, enc_out, tuple(ids), prefix_len)
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


def attention_forward(q_in: Tensor, k_in: Tensor | None, v_in: Tensor | None,
                      block: AttentionBlock, mask: np.ndarray | None = None, *,
                      heads: int = 1, dropout_p: float = 0.0, train: bool = False,
                      rng: np.random.Generator | None = None,
                      kv: list | None = None) -> Tensor:
    """Multi-head attention sublayer: projection, residual from q_in, norm.

    Each projection is split by reshape into a stack of heads, so one
    stacked matmul scores every head and one more weights the values.
    A fully masked score row degrades to a uniform attention row, because
    max subtraction inside the softmax cancels the shared fill value.

    Incremental decoding passes `kv`, a list holding the [keys, values]
    head stacks of earlier calls, or nothing yet. The projections of
    k_in/v_in are appended to them (k_in None appends nothing) and the list
    is set to the result, so a step projects only its new positions. The
    kept keys and values carry no gradient.
    """
    t_q, d = q_in.shape
    if d % heads != 0:
        raise ConfigError(f"width {d} not divisible by {heads} heads")
    dh = d // heads

    def split(x: Tensor, w: Tensor, b: Tensor, axes) -> Tensor:
        proj = add_bias(matmul(x, w), b)
        return transpose(reshape(proj, (x.shape[0], heads, dh)), axes)

    q = split(q_in, block.wq, block.bq, (1, 0, 2))  # (heads, t_q, dh)
    if k_in is not None:
        k = split(k_in, block.wk, block.bk, (1, 2, 0))  # (heads, dh, t_k)
        v = split(v_in, block.wv, block.bv, (1, 0, 2))  # (heads, t_k, dh)
        if kv:
            k = Tensor(np.concatenate((kv[0].data, k.data), axis=2))
            v = Tensor(np.concatenate((kv[1].data, v.data), axis=1))
    else:
        k, v = kv
    if kv is not None:
        kv[:] = k, v
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


def _embed(model: TransformerModel, ids: list[int], train: bool, rng, offset: int = 0) -> Tensor:
    """Scaled embeddings plus positions offset, ..., offset + len(ids) - 1."""
    cfg = model.config
    if len(ids) == 0:
        raise DataError("empty token sequence")
    end = offset + len(ids)
    if end > cfg.max_len:
        raise DataError(f"sequence length {end} exceeds max_len {cfg.max_len}")
    x = embedding_lookup(model.embedding, ids)
    x = scale(x, math.sqrt(cfg.d_model))
    x = add(x, Tensor(_position_table(cfg.max_len, cfg.d_model)[offset:end]))
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
                    rng: np.random.Generator | None = None, *, kv: list | None = None):
    """Run the decoder stack to vocabulary logits.

    Encoder-decoder mode needs enc_out and uses a causal self mask;
    decoder-only mode needs enc_out None and uses a prefix mask when
    prefix_len > 0. Returns (logits, taps keyed '<i>.sa'/'<i>.ca'/'<i>.ffn').

    Incremental decoding passes `kv`, one (self, cross) pair of
    attention_forward kv lists per layer. `ids` then continue the positions
    the self lists hold, cross attention reuses the source K/V once they
    are projected, and only the last row's logits are computed. A prefix
    may then fill the whole sequence, to keep a decoder-only source's K/V.
    """
    cfg = model.config
    if cfg.architecture == "encoder-decoder":
        if enc_out is None:
            raise ConfigError("encoder-decoder model needs encoder output")
    else:
        if enc_out is not None:
            raise ConfigError("decoder-only model takes no encoder output")
    past = kv[0][0] if kv is not None else None
    offset = past[1].shape[1] if past else 0
    x = _embed(model, ids, train, rng, offset)
    n = offset + len(ids)
    if prefix_len > 0:
        if prefix_len > n or (prefix_len == n and kv is None):
            raise ConfigError(f"prefix_len {prefix_len} must leave a suffix in {n} positions")
        mask = prefix_lm_mask(prefix_len, n - prefix_len)
    else:
        mask = causal_mask(n)
    if offset:
        mask = mask[offset:]
    taps: dict[str, Tensor] = {}
    for i in range(cfg.n_dec):
        self_kv, cross_kv = kv[i] if kv is not None else (None, None)
        x = attention_forward(x, x, x, model.dec_self[i], mask=mask, heads=cfg.heads,
                              dropout_p=cfg.dropout, train=train, rng=rng, kv=self_kv)
        taps[f"{i}.sa"] = x
        if model.dec_cross[i] is not None:
            src = None if cross_kv else enc_out
            x = attention_forward(x, src, src, model.dec_cross[i], mask=None, heads=cfg.heads,
                                  dropout_p=cfg.dropout, train=train, rng=rng, kv=cross_kv)
            taps[f"{i}.ca"] = x
        block = model.dec_ffn[i]
        if block is not None:
            x = ffn_forward(x, block, dropout_p=cfg.dropout, train=train, rng=rng)
            taps[f"{i}.ffn"] = x
    if kv is not None:  # a decode step needs the last row's logits only
        x = Tensor(x.data[-1:])
    # (E x^T)^T spares copying the transposed embedding table
    return transpose(matmul(model.embedding, transpose(x))), taps
