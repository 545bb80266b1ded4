"""Binary checkpoints: store census, alias table, raw float32 payloads.

Layout (all integers little-endian):

    magic  b"WFN1"
    u32    number of physical tensors
    per tensor, in store insertion order:
        u16 name length, utf-8 canonical name
        u8  dtype code (0 = float32)
        u8  rank
        u32 * rank  dims
    u32    number of aliases
    per alias, in registration order:
        u16 + utf-8 logical site, u16 + utf-8 canonical name
    payloads: the store's flat buffer, little-endian float32 in header order

Aliased tensors appear once; the alias table is metadata only. A model
checkpoint also writes a '<path>.config.json' sidecar, the config whose
`param_layout` the file must match when the model is wired onto it.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .config import ModelConfig
from .errors import ConfigError, DataError, ShapeError
from .store import ParamStore
from .transformer import param_layout, wire_model

MAGIC = b"WFN1"
DTYPE_F32 = 0


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise DataError(f"name too long: {s[:40]}...")
    return struct.pack("<H", len(raw)) + raw


def _unpack(f, fmt: str) -> tuple:
    """The next struct `fmt` in file `f`; struct.error where the file ends first."""
    return struct.unpack(fmt, f.read(struct.calcsize(fmt)))


def _read_str(f) -> str:
    (n,) = _unpack(f, "<H")
    return _unpack(f, f"<{n}s")[0].decode("utf-8")


def _header_bytes(store: ParamStore) -> bytes:
    parts = [MAGIC, struct.pack("<I", len(store.physical))]
    for name, tensor in store.physical.items():
        parts.append(_pack_str(name))
        parts.append(struct.pack("<BB", DTYPE_F32, tensor.data.ndim))
        parts.append(struct.pack(f"<{tensor.data.ndim}I", *tensor.data.shape))
    parts.append(struct.pack("<I", len(store.aliases)))
    for logical, canonical in store.aliases.items():
        parts.append(_pack_str(logical))
        parts.append(_pack_str(canonical))
    return b"".join(parts)


def checkpoint_bytes(store: ParamStore) -> bytes:
    return _header_bytes(store) + np.ascontiguousarray(store.flat, dtype="<f4").tobytes()


@contextlib.contextmanager
def replacing(path: str, mode: str = "wb", **open_kw):
    """A file opened beside `path` and moved over it once the block ends: a
    write cut short leaves the earlier file whole and no temp file behind."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, **open_kw) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(store: ParamStore, path: str) -> int:
    """`checkpoint_bytes`, written as the header and then the flat buffer
    itself (on a little-endian host); returns the bytes written."""
    with replacing(path) as f:
        f.write(_header_bytes(store))
        f.write(np.ascontiguousarray(store.flat, dtype="<f4"))
        return f.tell()


def load_checkpoint(path: str) -> ParamStore:
    """The store saved at `path`. The header is read field by field, whatever
    its length, and the payload straight into the float32 buffer that
    becomes the store's `flat`; a malformed file raises DataError."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        try:
            headers = []
            for _ in range(_unpack(f, "<I")[0]):
                name = _read_str(f)
                dtype, rank = _unpack(f, "<BB")
                if dtype != DTYPE_F32:
                    raise DataError(f"{path}: unsupported dtype code {dtype}")
                headers.append((name, _unpack(f, f"<{rank}I")))
            aliases = [(_read_str(f), _read_str(f)) for _ in range(_unpack(f, "<I")[0])]
        except (struct.error, UnicodeDecodeError) as e:
            raise DataError(f"{path}: corrupt header ({e})")
        size = 4 * sum(math.prod(shape) for _, shape in headers)
        payload = os.fstat(f.fileno()).st_size - f.tell()
        if payload != size:
            raise DataError(f"{path}: payload is {payload} bytes, header says {size}")
        flat = np.empty(size // 4, dtype="<f4")
        if f.readinto(flat) != size:
            raise DataError(f"{path}: payload ends before the {size} bytes its header says")
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: payload holds non-finite values")
    try:
        return ParamStore(headers, aliases, flat.astype(np.float32, copy=False))
    except (ConfigError, ShapeError) as e:  # a duplicate name, a dangling alias, rank over 4
        raise DataError(f"{path}: {e}") from None


def sidecar_path(path: str) -> str:
    return path + ".config.json"


def write_json(path: str, payload: dict):
    with replacing(path) as f:
        f.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def save_model_checkpoint(model, path: str) -> int:
    n = save_checkpoint(model.store, path)
    write_json(sidecar_path(path), model.config.to_dict())
    return n


def _mismatch(what: str, want: dict, got: dict) -> list[str]:
    """What `got` lacks, adds or holds differently, as message fragments."""
    wrong = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    return [f"{label} {what} {names}" for label, names in (
        ("missing", sorted(want.keys() - got.keys())),
        ("extra", sorted(got.keys() - want.keys())),
        ("mismatched", [f"{k}: file {got[k]} vs config {want[k]}" for k in wrong]),
    ) if names]


def load_model_checkpoint(path: str, config: ModelConfig | None = None):
    """The model saved at `path`, wired onto views of its one loaded buffer.

    The config comes from the sidecar unless one is given. The file's
    tensor names and shapes and its alias table must be exactly those of
    `param_layout(config)`; anything else raises DataError.
    """
    if config is None:
        side = sidecar_path(path)
        try:
            with open(side, encoding="utf-8") as f:
                config = ModelConfig.from_dict(json.load(f))
        except FileNotFoundError:
            raise DataError(f"no config sidecar next to {path}; pass one explicitly") from None
        except (ValueError, ConfigError) as e:
            raise DataError(f"{side}: not a valid model config: {e}") from None
    store = load_checkpoint(path)
    tensors, aliases = param_layout(config)
    shapes = {name: t.data.shape for name, t in store.physical.items()}
    problems = _mismatch("tensors", dict(tensors), shapes)
    problems += _mismatch("aliases", dict(aliases), store.aliases)
    if problems:
        raise DataError(f"{path} does not match its model config: " + "; ".join(problems))
    return wire_model(config, store)
