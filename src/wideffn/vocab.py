"""Token conventions, vocabularies, and corpus construction.

Ids 0..3 are reserved: pad, sequence start, sequence end, unknown. Toy
task generators emit payload ids starting at 4, so generated pairs never
collide with the reserved range.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import typed
from .errors import ConfigError, DataError

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


@dataclass
class Vocab:
    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        if list(self.id_to_token[:4]) != list(RESERVED_TOKENS):
            raise ConfigError("vocab must start with the 4 reserved tokens")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK) for t in tokens]


@dataclass
class Corpus:
    """Aligned (source ids, target ids) pairs over one shared vocab."""

    pairs: list[tuple[list[int], list[int]]]
    vocab: Vocab

    def __len__(self):
        return len(self.pairs)

    def content_hash(self) -> str:
        """Stable digest of the pair ids; similarity pairings key off this."""
        h = hashlib.sha256()
        for src, tgt in self.pairs:
            h.update(b"s")
            h.update(np.asarray(src, dtype=np.int64).tobytes())
            h.update(b"t")
            h.update(np.asarray(tgt, dtype=np.int64).tobytes())
        return h.hexdigest()


def check_toy_task(kind: str, count: int, len_range: tuple[int, int], vocab_size: int, seed=0):
    """Raise ConfigError unless `generate_toy_task` can build a task from
    these same arguments."""
    if kind not in ("copy", "reverse", "sort"):
        raise ConfigError(f"unknown toy task {kind!r}")
    typed(int, count, "count")
    typed(int, vocab_size, "vocab_size")
    typed(int, seed, "seed", "task seed")
    lo, hi = typed(tuple, len_range, "len_range")
    if not 1 <= lo <= hi:
        raise ConfigError(f"bad length range {len_range}")


def generate_toy_task(kind: str, count: int, len_range: tuple[int, int], vocab_size: int,
                      seed: int = 0) -> Corpus:
    """Build a synthetic seq2seq corpus: copy, reverse, or sort (ascending).

    Sources draw uniformly from the payload ids [4, vocab_size); lengths
    draw uniformly from the inclusive len_range.
    """
    check_toy_task(kind, count, len_range, vocab_size, seed)
    lo, hi = len_range
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        src = rng.integers(4, vocab_size, size=n).astype(np.int64).tolist()
        if kind == "copy":
            tgt = list(src)
        elif kind == "reverse":
            tgt = src[::-1]
        else:
            tgt = sorted(src)
        pairs.append((src, tgt))
    return Corpus(pairs, Vocab(list(RESERVED_TOKENS) + [str(i) for i in range(4, vocab_size)]))


def _read_lines(path: str) -> list[str]:
    """The lines of a text file, or a DataError naming it unless it is UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().splitlines()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from None


def load_parallel_corpus(src_path: str, tgt_path: str) -> Corpus:
    """Read two line-aligned token files (whitespace tokenized).

    Vocabulary is built over both sides, ordered by descending frequency
    with ties broken lexicographically.
    """
    src_lines, tgt_lines = _read_lines(src_path), _read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise DataError(
            f"line counts differ: {len(src_lines)} in {src_path}, "
            f"{len(tgt_lines)} in {tgt_path}"
        )
    if not src_lines:
        raise DataError("empty corpus")
    tokenized = []
    for lineno, (s, t) in enumerate(zip(src_lines, tgt_lines), start=1):
        s_toks, t_toks = s.split(), t.split()
        if not s_toks or not t_toks:
            raise DataError(f"empty source or target at line {lineno}")
        tokenized.append((s_toks, t_toks))
    freq = Counter(tok for pair in tokenized for side in pair for tok in side)
    ordered = sorted(freq, key=lambda t: (-freq[t], t))
    vocab = Vocab(list(RESERVED_TOKENS) + ordered)
    pairs = [(vocab.encode(s), vocab.encode(t)) for s, t in tokenized]
    return Corpus(pairs, vocab)
