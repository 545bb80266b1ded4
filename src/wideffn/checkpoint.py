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
from .errors import ConfigError, DataError
from .store import ParamStore
from .transformer import param_layout, wire_model

MAGIC = b"WFN1"
DTYPE_F32 = 0


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise DataError(f"name too long: {s[:40]}...")
    return struct.pack("<H", len(raw)) + raw


def _read_str(buf: bytes, at: int) -> tuple[str, int]:
    (n,) = struct.unpack_from("<H", buf, at)
    at += 2
    return buf[at : at + n].decode("utf-8"), at + n


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
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != MAGIC:
        raise DataError(f"{path}: bad magic {buf[:4]!r}")
    at = 4
    try:
        (n_phys,) = struct.unpack_from("<I", buf, at)
        at += 4
        headers = []
        for _ in range(n_phys):
            name, at = _read_str(buf, at)
            dtype, rank = struct.unpack_from("<BB", buf, at)
            at += 2
            if dtype != DTYPE_F32:
                raise DataError(f"{path}: unsupported dtype code {dtype}")
            shape = struct.unpack_from(f"<{rank}I", buf, at)
            at += 4 * rank
            headers.append((name, shape))
        (n_alias,) = struct.unpack_from("<I", buf, at)
        at += 4
        aliases = []
        for _ in range(n_alias):
            logical, at = _read_str(buf, at)
            canonical, at = _read_str(buf, at)
            aliases.append((logical, canonical))
    except (struct.error, UnicodeDecodeError) as e:
        raise DataError(f"{path}: corrupt header ({e})")
    size = 4 * sum(math.prod(shape) for _, shape in headers)
    if len(buf) - at != size:
        raise DataError(f"{path}: payload is {len(buf) - at} bytes, header says {size}")
    payload = np.frombuffer(buf, dtype="<f4", offset=at)
    if not np.isfinite(payload).all():
        raise DataError(f"{path}: payload holds non-finite values")
    try:
        return ParamStore(headers, aliases, payload.astype(np.float32))
    except ConfigError as e:
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
