"""Transformer blocks, the parameter layout and builder, and forward passes.

Post-norm residual blocks throughout: sublayer output is
layer_norm(x + f(x)). A NoOp FFN removes the whole sublayer, residual and
normalization included, so the layer output is exactly the attention
output. Sharing works by aliasing: shared blocks hold the same Tensor
objects, so the tape accumulates their gradients automatically.

The encoder and decoder run one layer loop, `attention_mask` builds every
attention mask, and dropout runs exactly when a forward pass gets a generator.
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
EVAL_CHUNK = 8  # pairs per evaluation batch; a larger one costs memory and gains little speed


AttentionBlock = namedtuple("AttentionBlock", ATTN_PARTS)
FFNBlock = namedtuple("FFNBlock", FFN_PARTS)


def _xavier(rng: np.random.Generator, n_in: int, n_out: int) -> Tensor:
    limit = math.sqrt(6.0 / (n_in + n_out))
    return Tensor(rng.uniform(-limit, limit, size=(n_in, n_out)).astype(np.float32))


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
    """Incremental decoding state of R sequences, one row each: `encode`
    makes it for one source, beam search for a batch.

    Its data is the encoder output over each row's src + <eos>, S rows per
    source of which `src_lengths` are real (none for a decoder-only model).
    `layers` holds each decoder layer's [self, cross] attention_forward kv
    lists; row r owns stack entries [r*heads, (r+1)*heads). A decoder-only
    model's rows start out holding the K/V of their sources src + <eos>,
    left-padded by `pad`. `fed` is what `step_logits` fed, <bos> first."""

    def __init__(self, model: "TransformerModel", srcs: list):
        sources = [list(src) + [EOS] for src in srcs]
        lengths = np.array([len(s) for s in sources])
        self.model = model
        self.layers = [[[], []] for _ in range(model.config.n_dec)]
        if model.config.architecture == "encoder-decoder":
            super().__init__(encoder_forward(model, sources)[0].data)
            self.src_lengths, self.pad = lengths, 0 * lengths
        else:
            super().__init__(np.zeros((0, model.config.d_model)))
            self.src_lengths, self.pad = None, lengths.max() - lengths
        self.restart(srcs)

    def restart(self, srcs: list) -> None:
        """Forget every fed id: empty each layer's self K/V, keep the cross K/V,
        and run a decoder-only model's sources src + <eos> again, left-padded."""
        self.fed = ()
        for layer in self.layers:
            layer[0] = []
        if self.src_lengths is None:
            sources = [[PAD] * p + list(s) + [EOS] for p, s in zip(self.pad, srcs)]
            self.step(sources, len(sources[0]))

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
        heads = self.model.config.heads
        stacked = (np.asarray(rows)[:, None] * heads + np.arange(heads)).reshape(-1)
        for layer in self.layers:
            for kv in layer:
                kv[:] = [Tensor(t.data[stacked]) for t in kv]
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

    def encode(self, src_tokens: list[int]) -> DecodeRows:
        """The one-row decoding state of a source, for `step_logits`.

        Encoder-decoder: the encoder output over src + <eos>. Decoder-only:
        no rows, and the K/V of the bidirectional source prefix src + <eos>,
        run once here.
        """
        return DecodeRows(self, [src_tokens])

    def decoder_input(self, src: list[int], tgt: list[int]) -> tuple[list[int], int]:
        """The decoder ids with `tgt` fed, and the length of their bidirectional prefix."""
        if self.config.architecture == "decoder-only":
            return list(src) + [EOS, BOS] + list(tgt), len(src) + 1
        return [BOS] + list(tgt), 0

    def teacher_forced(self, pairs: list, *, rng: np.random.Generator | None = None):
        """(logits, {side: taps}) of a batch of (src, tgt) pairs, each tgt fed
        as its decoder input; dropout runs when `rng` is given.

        Encoder-decoder: side 'encoder' sees src + <eos> and side 'decoder'
        sees <bos> + tgt. Decoder-only: side 'decoder' sees src + <eos> +
        <bos> + tgt, whose source span, <eos> included, is bidirectional. Each
        side's inputs are right-padded to the longest, T, and pair b owns rows
        [b*T, (b+1)*T) of its taps and the decoder's logits; the last
        len(tgt) + 1 rows of its unpadded decoder input predict tgt + <eos>.
        """
        ids, prefix_lens = zip(*[self.decoder_input(src, tgt) for src, tgt in pairs])
        if self.config.architecture == "decoder-only":
            logits, taps = decoder_forward(self, None, ids, prefix_lens, rng=rng)
            return logits, {"decoder": taps}
        srcs = [list(src) + [EOS] for src, _ in pairs]
        enc_out, enc_taps = encoder_forward(self, srcs, rng=rng)
        logits, taps = decoder_forward(self, enc_out, ids, prefix_lens, rng=rng,
                                       src_lengths=[len(s) for s in srcs])
        return logits, {"encoder": enc_taps, "decoder": taps}

    def eval_chunks(self, pairs: list):
        """(chunk, logits, taps) of `teacher_forced` over consecutive chunks of
        EVAL_CHUNK pairs, in order, with dropout off."""
        for at in range(0, len(pairs), EVAL_CHUNK):
            chunk = pairs[at : at + EVAL_CHUNK]
            yield (chunk, *self.teacher_forced(chunk))

    def target_labels(self, pairs: list, rows: int) -> np.ndarray:
        """The label of each of the `rows` logits rows of a `teacher_forced`
        batch: each pair's tgt + <eos> on the rows that predict them and PAD
        on every other row."""
        labels = np.full((len(pairs), rows // len(pairs)), PAD)
        for row, (src, tgt) in zip(labels, pairs):
            ids, start = self.decoder_input(src, tgt)
            row[start : len(ids)] = list(tgt) + [EOS]
        return labels.reshape(-1)

    def step_logits(self, enc_ctx, src_tokens: list[int], prefix: list[int]) -> np.ndarray:
        """Next-token logits after the given generated prefix.

        With the state `encode` returned, one position runs when it holds
        <bos> + prefix[:-1], and otherwise it is refilled. With enc_ctx None
        the whole teacher-forced sequence runs again: that recompute is the
        reference the cached path is tested against.
        """
        if enc_ctx is None:
            return self.teacher_forced([(src_tokens, prefix)])[0].data[-1]
        fed = (BOS, *prefix)
        if enc_ctx.fed != fed[:-1]:
            enc_ctx.restart([src_tokens])
        logits = enc_ctx.step([fed[len(enc_ctx.fed):]])
        enc_ctx.fed = fed
        return logits[-1]

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


def attention_mask(key_len, prefix, t_q: int, t_k: int, heads: int, offset: int = 0,
                   pad=0) -> np.ndarray:
    """attention_forward's (B*heads, t_q, t_k) keep mask, one per sequence
    repeated for its heads: query i of sequence b, at column offset + i, sees
    key j when pad[b] <= j < key_len[b] and either j < prefix[b] or j <= offset + i.

    prefix = key_len sees every real key (encoder, cross attention), prefix 0
    is causal and one in between is a prefix LM; pad hides leading columns.
    """
    key_len, prefix, pad = (np.asarray(a)[..., None, None] for a in (key_len, prefix, pad))
    if (prefix < 0).any():
        raise ConfigError(f"negative prefix length in {prefix.ravel().tolist()}")
    j = np.arange(t_k)
    keep = (pad <= j) & (j < key_len) & ((j < prefix) | (j <= offset + np.arange(t_q)[:, None]))
    return keep.repeat(heads, axis=0)


def attention_forward(q_in: Tensor, kv_in: Tensor | None, block: AttentionBlock,
                      mask: np.ndarray | None = None, *, heads: int = 1, batch: int = 1,
                      dropout_p: float = 0.0, rng: np.random.Generator | None = None,
                      kv: list | None = None) -> Tensor:
    """Multi-head attention sublayer: projection, residual from q_in, norm.

    The inputs hold `batch` sequences, B, as equal row blocks: q_in is
    (B*T_q, d) and kv_in, which gives the keys and values, is (B*T_k, d).
    Each projection is split by reshape into a (B*heads, T, d_h) stack of
    heads, sequence-major, so one stacked matmul scores every head of every
    sequence and one more weights the values. `mask` is None, one (T_q, T_k)
    keep mask for every score matrix, or `attention_mask`'s stack of one per
    score matrix. A fully masked score row degrades to a uniform attention
    row, because max subtraction inside the softmax cancels the shared fill
    value. Dropout runs on the output projection when `rng` is given.

    Incremental decoding passes `kv`, a list holding the [keys, values]
    head stacks of earlier calls, or nothing yet. The projections of
    kv_in are appended to them (kv_in None appends nothing) and the list
    is set to the result, so a step projects only its new positions. The
    kept keys and values carry no gradient.
    """
    rows, d = q_in.shape
    if d % heads != 0:
        raise ConfigError(f"width {d} not divisible by {heads} heads")
    dh = d // heads
    t_q = rows // batch

    def split(x: Tensor, w: Tensor, b: Tensor, axes) -> Tensor:
        proj = add_bias(matmul(x, w), b)
        split4 = transpose(reshape(proj, (batch, x.shape[0] // batch, heads, dh)), axes)
        return reshape(split4, (batch * heads,) + split4.shape[2:])

    q = split(q_in, block.wq, block.bq, (0, 2, 1, 3))  # (B*heads, t_q, dh)
    if kv_in is not None:
        k = split(kv_in, block.wk, block.bk, (0, 2, 3, 1))  # (B*heads, dh, t_k)
        v = split(kv_in, block.wv, block.bv, (0, 2, 1, 3))  # (B*heads, t_k, dh)
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
    heads_out = reshape(matmul(softmax_rows(scores), v), (batch, heads, t_q, dh))
    merged = reshape(transpose(heads_out, (0, 2, 1, 3)), (rows, d))
    proj = add_bias(matmul(merged, block.wo), block.bo)
    if rng is not None:
        proj = dropout(proj, dropout_p, rng)
    return layer_norm(add(q_in, proj), block.ln_gain, block.ln_bias)


def ffn_forward(x: Tensor, block: FFNBlock | None, *, dropout_p: float = 0.0,
                rng: np.random.Generator | None = None) -> Tensor:
    """Position-wise FFN sublayer; block None is the exact identity.
    Dropout runs on the second projection when `rng` is given."""
    if block is None:
        return x
    h = relu(add_bias(matmul(x, block.w1), block.b1))
    y = add_bias(matmul(h, block.w2), block.b2)
    if rng is not None:
        y = dropout(y, dropout_p, rng)
    return layer_norm(add(x, y), block.ln_gain, block.ln_bias)


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
    pad's negative position reads 0; dropout runs when `rng` is given."""
    cfg = model.config
    batch, t = ids.shape
    positions = np.broadcast_to(start, (batch,))[:, None] + np.arange(t)
    end = int(positions.max()) + 1
    if end > cfg.max_len:
        raise DataError(f"sequence length {end} exceeds max_len {cfg.max_len}")
    x = embedding_lookup(model.embedding, ids.reshape(-1))
    x = scale(x, math.sqrt(cfg.d_model))
    table = sinusoidal_positions(cfg.max_len, cfg.d_model)
    x = add(x, Tensor(table[np.maximum(positions, 0).reshape(-1)]))
    if rng is not None:
        x = dropout(x, cfg.dropout, rng)
    return x


def _run_layers(model: TransformerModel, x: Tensor, layers, batch: int, rng, self_mask,
                cross_mask=None, memory: Tensor | None = None, kv: list | None = None):
    """Run (self-attention, cross-attention or None, FFN or None) block
    triples over x; returns (output, taps keyed '<i>.sa'/'<i>.ca'/'<i>.ffn').
    Cross attention reads `memory`; `kv` is decoder_forward's, per layer."""
    cfg = model.config
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
    mask = attention_mask(lengths, lengths, t, t, cfg.heads)
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
    offset = past[1].shape[1] if past else 0
    x = _embed(model, ids, rng, offset - pad)
    prefix = np.broadcast_to(prefix_len, (batch,))
    for p, end in zip(prefix, offset + lengths):
        if p > end or (p == end and kv is None):
            raise ConfigError(f"prefix_len {p} must leave a suffix in {end} positions")
    mask = attention_mask(offset + lengths, prefix, t, offset + t, cfg.heads, offset, pad)
    cross_mask = None if src_lengths is None else attention_mask(
        src_lengths, src_lengths, t, enc_out.shape[0] // batch, cfg.heads)
    if kv is not None:  # a decode step leaves out the masks that hide nothing
        mask, cross_mask = (None if m is None or m.all() else m for m in (mask, cross_mask))
    x, taps = _run_layers(model, x, zip(model.dec_self, model.dec_cross, model.dec_ffn), batch,
                          rng, mask, cross_mask, enc_out, kv)
    if kv is not None:  # a decode step needs each sequence's last row only
        x = Tensor(x.data.reshape(batch, t, -1)[:, -1])
    # (E x^T)^T spares copying the transposed embedding table
    return transpose(matmul(model.embedding, transpose(x))), taps
