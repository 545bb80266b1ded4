"""Transformer blocks, the parameter layout and builder, and forward passes.

Post-norm residual blocks throughout: sublayer output is
layer_norm(x + f(x)). A NoOp FFN removes the whole sublayer, residual and
normalization included, so the layer output is exactly the attention
output. The embedding and each attention and FFN sublayer is one op that
computes on plain arrays and records one tape node. Sharing works by
aliasing: shared blocks hold the same Tensor objects, so the tape
accumulates their gradients automatically.

`TransformerModel.inputs` turns every (src, tgt) pair into ids, the encoder
and decoder run one layer loop, `attention_mask` builds every attention mask,
and dropout runs exactly when a forward pass gets a generator.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, DataError
from .sharing import resolve_ffn_assignment
from .store import ParamStore
from .tensor import (
    Tensor,
    attention_weights,
    cross_entropy,
    dropout_keep,
    emit,
    layer_norm,
    linear,
    matmul,
    transpose,
)
from .vocab import BOS, EOS, PAD

ATTN_PARTS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "ln_gain", "ln_bias")
FFN_PARTS = ("w1", "b1", "w2", "b2", "ln_gain", "ln_bias")
# padded rows per side in one evaluation batch: 32 pairs of 8 rows run as one
# forward, and an FFN hidden layer d_ff wide takes d_ff KB
EVAL_ROWS = 256
# float64 values per initialisation draw. A wide tensor drawn whole leaves a
# float64 block of tens of MB resident in the malloc heap after it is freed.
DRAW_CHUNK = 1 << 14


AttentionBlock = namedtuple("AttentionBlock", ATTN_PARTS)
FFNBlock = namedtuple("FFNBlock", FFN_PARTS)


@functools.lru_cache(maxsize=8)
def sinusoidal_positions(n_positions: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos position table, shape (n_positions, d_model), float32,
    made once per shape and read-only.

    Each row depends only on its own position, so a slice of a longer table
    equals the table of that many positions bit for bit.
    """
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    idx = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (idx // 2) / d_model)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle)).astype(np.float32)
    table.setflags(write=False)
    return table


class DecodeRows(Tensor):
    """Incremental decoding state of R sequences, one row each: `search`
    steps one for every batch of sources, and `encode` makes one for one.

    A row's source is what `model.inputs(src, [])` holds before <bos>. The
    data is the encoder output over each, S rows per row of which
    `src_lengths` are real (none for a decoder-only model). `layers` holds
    each decoder layer's [self, cross] attention_forward kv lists, indexed
    by row first. A decoder-only model runs the sources, left-padded by
    `pad`, once here, as the K/V columns that every fed id follows."""

    def __init__(self, model: "TransformerModel", srcs: list):
        sources = [model.inputs(src, []) for src in srcs]
        sources = [ids.get("encoder", ids["decoder"][:-1]) for ids in sources]
        lengths = np.array([len(s) for s in sources])
        self.model, self.layers = model, [[[], []] for _ in range(model.config.n_dec)]
        if model.config.architecture == "encoder-decoder":
            super().__init__(encoder_forward(model, sources)[0].data)
            self.src_lengths, self.pad = lengths, 0 * lengths
        else:
            super().__init__(np.zeros((0, model.config.d_model)))
            self.src_lengths, self.pad = None, lengths.max() - lengths
            self.step([[PAD] * p + s for p, s in zip(self.pad, sources)], lengths.max())

    def step(self, ids, prefix_len: int = 0) -> np.ndarray:
        """Feed every row its next ids, one per row or an (R, T) block, and
        return the (R, V) logits after each row's last id."""
        ids = np.asarray(ids).reshape(len(self.pad), -1)
        logits, _ = decoder_forward(self.model, None if self.src_lengths is None else self, ids,
                                    prefix_len, kv=self.layers, src_lengths=self.src_lengths,
                                    pad=self.pad)
        return logits.data

    def keep(self, rows) -> None:
        """Keep the given rows in the given order, repeats allowed: beam search
        reorders by parent, and a finished sequence leaves the batch."""
        for layer in self.layers:
            for kv in layer:
                kv[:] = [t[rows] for t in kv]
        if self.src_lengths is not None:
            d = self.data.shape[1]
            self.data = self.data.reshape(len(self.pad), -1, d)[rows].reshape(-1, d)
            self.src_lengths = self.src_lengths[rows]
        self.pad = self.pad[rows]


@dataclass(eq=False)
class TransformerModel:
    """A built model: config, parameter store, and resolved blocks."""

    config: ModelConfig
    store: ParamStore
    embedding: Tensor
    enc_attn: list[AttentionBlock]
    enc_ffn: list[FFNBlock | None]
    dec_self: list[AttentionBlock]
    dec_cross: list[AttentionBlock | None]
    dec_ffn: list[FFNBlock | None]

    # -- decode protocol -------------------------------------------------

    def decode_rows(self, srcs: list) -> DecodeRows:
        """The decoding state of a batch of sources, one row each: what `search` steps."""
        return DecodeRows(self, srcs)

    def encode(self, src_tokens: list[int]) -> DecodeRows:
        """The one-row decoding state of a source, for `step_logits`."""
        return DecodeRows(self, [src_tokens])

    def inputs(self, src: list[int], tgt: list[int]) -> dict[str, list[int]]:
        """The ids each side of the model reads for the pair (src, tgt), tgt
        fed: the one place a pair becomes ids.

        Encoder-decoder: 'encoder' is src <eos> and 'decoder' is <bos> tgt.
        Decoder-only: 'decoder' is src <eos> <bos> tgt. Either way the first
        len(ids) - len(tgt) - 1 decoder ids are a bidirectional prefix, and
        the last len(tgt) + 1 predict tgt <eos>.
        """
        if self.config.architecture == "decoder-only":
            return {"decoder": [*src, EOS, BOS, *tgt]}
        return {"encoder": [*src, EOS], "decoder": [BOS, *tgt]}

    def teacher_forced(self, pairs: list, *, rng: np.random.Generator | None = None):
        """(logits, {side: taps}) of a batch of (src, tgt) pairs, each side
        reading its `inputs`; dropout runs when `rng` is given. Each side's
        inputs are right-padded to the longest, T, and pair b owns rows
        [b*T, (b+1)*T) of its taps and the decoder's logits."""
        sides = [self.inputs(src, tgt) for src, tgt in pairs]
        ids = [side["decoder"] for side in sides]
        prefix_lens = [len(dec) - len(tgt) - 1 for dec, (_, tgt) in zip(ids, pairs)]
        if self.config.architecture == "decoder-only":
            logits, taps = decoder_forward(self, None, ids, prefix_lens, rng=rng)
            return logits, {"decoder": taps}
        srcs = [side["encoder"] for side in sides]
        enc_out, enc_taps = encoder_forward(self, srcs, rng=rng)
        logits, taps = decoder_forward(self, enc_out, ids, prefix_lens, rng=rng,
                                       src_lengths=[len(s) for s in srcs])
        return logits, {"encoder": enc_taps, "decoder": taps}

    def chunk_pairs(self, pairs: list) -> list[list]:
        """`pairs` cut into consecutive chunks, in order. A chunk takes the next
        pair while each side's padded rows, its pairs times its longest input,
        stay within EVAL_ROWS; a pair over the budget alone is a chunk of its own."""
        chunks, width = [], 0
        for pair in pairs:
            rows = max(map(len, self.inputs(*pair).values()))
            if not chunks or (len(chunks[-1]) + 1) * max(width, rows) > EVAL_ROWS:
                chunks.append([])
                width = 0
            chunks[-1].append(pair)
            width = max(width, rows)
        return chunks

    def eval_chunks(self, pairs: list):
        """(chunk, logits, taps) of `teacher_forced` over `chunk_pairs(pairs)`,
        in order, with dropout off."""
        for chunk in self.chunk_pairs(pairs):
            yield (chunk, *self.teacher_forced(chunk))

    def target_labels(self, pairs: list, rows: int) -> np.ndarray:
        """The label of each of the `rows` logits rows of a `teacher_forced`
        batch: each pair's tgt <eos> on the rows that predict them and PAD
        on every other row."""
        labels = np.full((len(pairs), rows // len(pairs)), PAD)
        for row, (src, tgt) in zip(labels, pairs):
            end = len(self.inputs(src, tgt)["decoder"])
            row[end - len(tgt) - 1 : end] = [*tgt, EOS]
        return labels.reshape(-1)

    def step_logits(self, enc_ctx, src_tokens: list[int], prefix: list[int]) -> np.ndarray:
        """Next-token logits after the given generated prefix.

        With enc_ctx None the whole teacher-forced sequence runs again: that
        recompute is the reference the cached path is tested against. With
        the state `encode` returned, <bos> + prefix runs on it as one block;
        a state that has been stepped already is refused.
        """
        if enc_ctx is None:
            return self.teacher_forced([(src_tokens, prefix)])[0].data[-1]
        past = enc_ctx.layers[0][0]
        if (past[1].shape[-2] if past else 0) != len(self.inputs(src_tokens, [])["decoder"]) - 1:
            raise ConfigError("step_logits needs a state that encode returned and nothing stepped")
        return enc_ctx.step([[BOS, *prefix]])[-1]

    # -- training protocol ------------------------------------------------

    def loss_for_pair(self, pairs: list, *, rng: np.random.Generator | None = None):
        """Teacher-forced loss of a batch of (src, tgt) pairs; returns
        (loss, n_predictions). Dropout runs when `rng` is given.

        The loss is the mean negative log-likelihood over the predictions of
        every tgt + <eos> in the batch, so each pair weighs by its length;
        padding and a decoder-only model's source rows are left out of it.
        """
        logits, _ = self.teacher_forced(pairs, rng=rng)
        loss = cross_entropy(logits, self.target_labels(pairs, logits.shape[0]), ignore_index=PAD)
        return loss, sum(len(tgt) + 1 for _, tgt in pairs)


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
    """Fill a store of `param_layout(config)` in creation order and wire the model.

    Rank-2 tensors are Xavier-uniform draws from one generator seeded with
    `seed`, DRAW_CHUNK at a time; layer-norm gains are ones, the rest zeros.
    """
    rng = np.random.default_rng(seed)
    tensors, aliases = param_layout(config)
    store = ParamStore(tensors, aliases)
    for name, shape in tensors:
        view = store.physical[name].data.reshape(-1)
        if len(shape) == 2:
            limit = math.sqrt(6.0 / sum(shape))
            for part in np.split(view, range(DRAW_CHUNK, view.size, DRAW_CHUNK)):
                part[...] = rng.uniform(-limit, limit, size=part.size)
        elif name.endswith(".ln_gain"):
            view[...] = 1
    return wire_model(config, store)


def attention_mask(key_len, prefix, t_q: int, t_k: int, offset: int = 0, pad=0) -> np.ndarray:
    """attention_forward's (B, 1, t_q, t_k) keep mask, one per sequence for
    all its heads: query i of sequence b, at column offset + i, sees key j
    when pad[b] <= j < key_len[b] and either j < prefix[b] or j <= offset + i.

    prefix = key_len sees every real key (encoder, cross attention), prefix 0
    is causal and one in between is a prefix LM; pad hides leading columns.
    """
    key_len, prefix, pad = (np.asarray(a)[..., None, None, None] for a in (key_len, prefix, pad))
    if (prefix < 0).any():
        raise ConfigError(f"negative prefix length in {prefix.ravel().tolist()}")
    j = np.arange(t_k)
    return (pad <= j) & (j < key_len) & ((j < prefix) | (j <= offset + np.arange(t_q)[:, None]))


def _add_and_norm(x: np.ndarray, y: np.ndarray, block, dropout_p: float, rng):
    """layer_norm(x + y) by the block's norm, with dropout on y when `rng` is
    given, and its backward: g -> (y's gradient, [ln_gain's, ln_bias's, x's])."""
    drop = None if rng is None else dropout_keep(y.shape, dropout_p, rng)
    if drop is not None:
        y *= drop  # y is the sublayer's own product, and no gradient reads it
    out, norm_backward = layer_norm(x + y, block.ln_gain.data, block.ln_bias.data)

    def backward(g):
        g_sum, g_gain, g_bias = norm_backward(g)
        return g_sum if drop is None else g_sum * drop, [g_gain, g_bias, g_sum]

    return out, backward


def attention_forward(q_in: Tensor, kv_in: Tensor | None, block: AttentionBlock,
                      mask: np.ndarray | None = None, *, heads: int = 1, batch: int = 1,
                      dropout_p: float = 0.0, rng: np.random.Generator | None = None,
                      kv: list | None = None) -> Tensor:
    """Multi-head attention sublayer: projection, residual from q_in, norm,
    as one op and one tape node.

    The inputs hold `batch` sequences, B, as equal row blocks: q_in is
    (B*T_q, d) and kv_in, which gives the keys and values, is (B*T_k, d).
    Each projection is split into a (B, heads, T, d_h) stack of heads, so
    one stacked product scores every head of every sequence and one more
    weights the values; the heads then merge back into (B*T_q, d) rows.
    `mask` is None or `attention_mask`'s (B, 1, T_q, T_k) keep mask, one
    per sequence shared by its heads, the only mask `attention_weights`
    takes. A fully masked score row degrades to a uniform attention row,
    because max subtraction inside the softmax cancels the shared fill
    value. Dropout runs on the output projection when `rng` is given. The
    node lists a tensor once per read, in the order the reads' gradients
    arrive, which the backward computes step by step in reverse.

    Incremental decoding passes `kv`, a list holding the [keys, values]
    arrays of earlier calls, (B, heads, d_h, T) and (B, heads, T, d_h), or
    nothing yet. The projections of kv_in are appended to them (kv_in None
    appends nothing) and the list is set to the result, so a step projects
    only its new positions. Keys and values kept from an earlier call carry
    no gradient.
    """
    rows, d = q_in.shape
    if d % heads != 0:
        raise ConfigError(f"width {d} not divisible by {heads} heads")
    dh = d // heads
    x = q_in.data

    def split(x: np.ndarray, w: Tensor, b: Tensor, axes):  # (stack, the projection's backward)
        y, backward = linear(x, w.data, b.data)
        return y.reshape(batch, x.shape[0] // batch, heads, dh).transpose(axes).copy(), backward

    def unsplit(g: np.ndarray, inverse) -> np.ndarray:  # a stack's gradient as projection rows
        return np.ascontiguousarray(g.transpose(inverse)).reshape(-1, d)

    q, q_backward = split(x, block.wq, block.bq, (0, 2, 1, 3))  # (B, heads, t_q, dh)
    fresh = kv_in is not None and not kv  # keys and values all projected here, with gradient
    if kv_in is not None:
        k, k_backward = split(kv_in.data, block.wk, block.bk, (0, 2, 3, 1))  # (B, heads, dh, t_k)
        v, v_backward = split(kv_in.data, block.wv, block.bv, (0, 2, 1, 3))  # (B, heads, t_k, dh)
        if kv:
            k = np.concatenate((kv[0], k), axis=3)
            v = np.concatenate((kv[1], v), axis=2)
    else:
        k, v = kv
    if kv is not None:
        kv[:] = k, v
    weights, weights_backward = attention_weights(q @ k, 1.0 / math.sqrt(dh), mask)
    merged = (weights @ v).transpose(0, 2, 1, 3).copy().reshape(rows, d)
    proj, out_backward = linear(merged, block.wo.data, block.bo.data)
    out, tail_backward = _add_and_norm(x, proj, block, dropout_p, rng)

    def backward_fn(g):
        g_proj, pieces = tail_backward(g)
        g_merged, *g_out = out_backward(g_proj)
        g_heads = np.ascontiguousarray(
            g_merged.reshape(batch, rows // batch, heads, dh).transpose(0, 2, 1, 3))
        g_v = weights.swapaxes(-1, -2) @ g_heads
        g_scores = weights_backward(g_heads @ v.swapaxes(-1, -2))
        g_q, g_k = g_scores @ k.swapaxes(-1, -2), q.swapaxes(-1, -2) @ g_scores
        g_kv = [None] * 6  # kept keys and values pass nothing on
        if fresh:
            g_kv = [*v_backward(unsplit(g_v, (0, 2, 1, 3))),
                    *k_backward(unsplit(g_k, (0, 3, 1, 2)))]
        return [*pieces, *g_out, *g_kv, *q_backward(unsplit(g_q, (0, 2, 1, 3)))]

    return emit(Tensor(out), (block.ln_gain, block.ln_bias, q_in, block.wo, block.bo,
                              kv_in, block.wv, block.bv, kv_in, block.wk, block.bk,
                              q_in, block.wq, block.bq), backward_fn)


def ffn_forward(x: Tensor, block: FFNBlock, *, dropout_p: float = 0.0,
                rng: np.random.Generator | None = None) -> Tensor:
    """Position-wise FFN sublayer, as one op and one tape node. Dropout runs
    on the second projection when `rng` is given. x is an input twice, for
    the residual and the first product."""
    h, first_backward = linear(x.data, block.w1.data, block.b1.data)
    np.maximum(h, np.float32(0.0), out=h)  # relu in place: one copy of the hidden layer
    y, second_backward = linear(h, block.w2.data, block.b2.data)
    out, tail_backward = _add_and_norm(x.data, y, block, dropout_p, rng)

    def backward_fn(g):
        g_y, pieces = tail_backward(g)
        g_h, *g_second = second_backward(g_y)
        return [*pieces, *g_second, *first_backward(g_h * (h > 0))]

    return emit(Tensor(out), (block.ln_gain, block.ln_bias, x, block.w2, block.b2,
                              x, block.w1, block.b1), backward_fn)


def _as_batch(ids) -> tuple[np.ndarray, np.ndarray]:
    """One id sequence (a batch of one) or a list of them, as a (B, T)
    id matrix right-padded with PAD and the length of each sequence."""
    seqs = [ids] if len(ids) == 0 or np.isscalar(ids[0]) else ids
    lengths = [len(s) for s in seqs]
    if min(lengths) == 0:
        raise DataError("empty token sequence")
    width = max(lengths)
    padded = [list(s) + [PAD] * (width - n) for s, n in zip(seqs, lengths)]
    return np.array(padded, dtype=np.int64), np.array(lengths)


def _embed(model: TransformerModel, ids: np.ndarray, rng, start=0) -> Tensor:
    """Scaled embeddings of a (B, T) id matrix as a (B*T, d) row block, plus
    positions start, ..., start + T - 1 in each sequence's T rows, where a left
    pad's negative position reads 0; dropout runs when `rng` is given. One op
    and one tape node, whose only input is the embedding table: the backward
    scatters g * keep * sqrt(d) into the rows the ids read."""
    cfg = model.config
    batch, t = ids.shape
    positions = np.broadcast_to(start, (batch,))[:, None] + np.arange(t)
    end = int(positions.max()) + 1
    if end > cfg.max_len:
        raise DataError(f"sequence length {end} exceeds max_len {cfg.max_len}")
    ids, table = ids.reshape(-1), model.embedding.data
    bad = (ids < 0) | (ids >= len(table))
    if bad.any():
        raise IndexError(f"token id {int(ids[bad][0])} outside embedding table of size "
                         f"{len(table)}")
    f = np.float32(math.sqrt(cfg.d_model))
    x = table[ids] * f
    x += sinusoidal_positions(cfg.max_len, cfg.d_model)[np.maximum(positions, 0).reshape(-1)]
    keep = None if rng is None else dropout_keep(x.shape, cfg.dropout, rng)
    if keep is not None:
        x *= keep

    def backward_fn(g):
        if keep is not None:
            g = g * keep
        full = np.zeros_like(table)
        np.add.at(full, ids, g * f)
        return (full,)

    return emit(Tensor(x), (model.embedding,), backward_fn)


def _run_layers(model: TransformerModel, x: Tensor, layers, batch: int, rng, self_mask,
                cross_mask=None, memory: Tensor | None = None, kv: list | None = None):
    """Run (self-attention, cross-attention or None, FFN or None) block
    triples over x; returns (output, taps keyed '<i>.sa'/'<i>.ca'/'<i>.ffn').
    Cross attention reads `memory`; `kv` is decoder_forward's, per layer. A
    mask that hides nothing is left out: masking with it changes nothing."""
    cfg = model.config
    self_mask, cross_mask = (None if m is None or m.all() else m for m in (self_mask, cross_mask))
    opts = dict(heads=cfg.heads, batch=batch, dropout_p=cfg.dropout, rng=rng)
    taps: dict[str, Tensor] = {}
    for i, (self_attn, cross_attn, ffn) in enumerate(layers):
        self_kv, cross_kv = kv[i] if kv is not None else (None, None)
        x = taps[f"{i}.sa"] = attention_forward(x, x, self_attn, self_mask, kv=self_kv, **opts)
        if cross_attn is not None:
            x = taps[f"{i}.ca"] = attention_forward(x, None if cross_kv else memory, cross_attn,
                                                    cross_mask, kv=cross_kv, **opts)
        if ffn is not None:
            x = taps[f"{i}.ffn"] = ffn_forward(x, ffn, dropout_p=cfg.dropout, rng=rng)
    return x, taps


def encoder_forward(model: TransformerModel, src_ids, *, rng: np.random.Generator | None = None):
    """Run the encoder stack over one source or a list of them; returns
    (output, taps keyed '<i>.sa'/'<i>.ffn'). Dropout runs when `rng` is given.

    A list is right-padded to its longest source, S, and source b owns
    rows [b*S, (b+1)*S) of the output and taps; no query sees a pad key.
    """
    cfg = model.config
    if cfg.architecture != "encoder-decoder":
        raise ConfigError("model has no encoder")
    ids, lengths = _as_batch(src_ids)
    batch, t = ids.shape
    mask = attention_mask(lengths, lengths, t, t)
    return _run_layers(model, _embed(model, ids, rng),
                       zip(model.enc_attn, [None] * cfg.n_enc, model.enc_ffn), batch, rng, mask)


def decoder_forward(model: TransformerModel, enc_out: Tensor | None, ids, prefix_len=0, *,
                    rng: np.random.Generator | None = None, kv: list | None = None,
                    src_lengths=None, pad=0):
    """Run the decoder stack over one id sequence or a list of them to
    vocabulary logits; dropout runs when `rng` is given.

    Encoder-decoder mode needs enc_out and is causal; decoder-only mode
    needs enc_out None and sees its first prefix_len positions
    bidirectionally. Returns (logits, taps keyed '<i>.sa'/'<i>.ca'/'<i>.ffn').

    A list is right-padded to its longest sequence, T, and sequence b owns
    rows [b*T, (b+1)*T) of the logits and taps; no query sees a pad key.
    prefix_len is then one length per sequence (or one for all), and enc_out
    holds one source per sequence as equal row blocks; src_lengths, when
    given, are the sources' unpadded lengths, and cross attention sees no
    key past them.

    Incremental decoding passes `kv`, one (self, cross) pair of
    attention_forward kv lists per layer, and `ids` as one (B, T) block that
    continues the columns the self lists hold; only each sequence's last row
    of logits is computed, and a prefix may fill the whole sequence. `pad`
    counts each sequence's leading pad columns, which no query sees and no
    position counts.
    """
    cfg = model.config
    if cfg.architecture == "encoder-decoder" and enc_out is None:
        raise ConfigError("encoder-decoder model needs encoder output")
    if cfg.architecture == "decoder-only" and enc_out is not None:
        raise ConfigError("decoder-only model takes no encoder output")
    ids, lengths = _as_batch(ids)
    batch, t = ids.shape
    past = kv[0][0] if kv is not None else None
    offset = past[1].shape[-2] if past else 0
    x = _embed(model, ids, rng, offset - pad)
    prefix = np.broadcast_to(prefix_len, (batch,))
    for p, end in zip(prefix, offset + lengths):
        if p > end or (p == end and kv is None):
            raise ConfigError(f"prefix_len {p} must leave a suffix in {end} positions")
    mask = attention_mask(offset + lengths, prefix, t, offset + t, offset, pad)
    cross_mask = None if src_lengths is None else attention_mask(
        src_lengths, src_lengths, t, enc_out.shape[0] // batch)
    x, taps = _run_layers(model, x, zip(model.dec_self, model.dec_cross, model.dec_ffn), batch,
                          rng, mask, cross_mask, enc_out, kv)
    if kv is not None:  # a decode step needs each sequence's last row only
        x = Tensor(x.data.reshape(batch, t, -1)[:, -1])
    # (E x^T)^T spares copying the transposed embedding table
    return transpose(matmul(model.embedding, transpose(x))), taps
