import dataclasses
import json
import math
import os
import struct

import numpy as np
import pytest

import wideffn as w
from wideffn import checkpoint, transformer
from wideffn.checkpoint import (
    checkpoint_bytes,
    load_checkpoint,
    load_model_checkpoint,
    save_checkpoint,
    save_model_checkpoint,
    sidecar_path,
)
from wideffn.config import PRESETS, STRATEGY_FIELDS, FFNStrategy, ModelConfig, SharingSpec
from wideffn.errors import DataError
from wideffn.transformer import encoder_forward, param_layout

from conftest import tiny_config


def test_round_trip_preserves_bytes_exactly(tmp_path):
    m = w.build_model(tiny_config(), seed=3)
    p = tmp_path / "m.ckpt"
    save_checkpoint(m.store, str(p))
    loaded = load_checkpoint(str(p))
    assert set(loaded.physical) == set(m.store.physical)
    for name, t in m.store.physical.items():
        assert loaded.physical[name].data.tobytes() == t.data.tobytes(), name
    assert loaded.aliases == m.store.aliases


def test_serialization_is_deterministic():
    m = w.build_model(tiny_config(), seed=3)
    assert checkpoint_bytes(m.store) == checkpoint_bytes(m.store)


def test_header_magic_and_layout():
    m = w.build_model(tiny_config(n_enc=1, n_dec=1), seed=0)
    blob = checkpoint_bytes(m.store)
    assert blob[:4] == b"WFN1"
    (n_physical,) = struct.unpack("<I", blob[4:8])
    assert n_physical == len(m.store.physical)


def test_corrupt_magic_rejected(tmp_path):
    m = w.build_model(tiny_config(), seed=0)
    blob = bytearray(checkpoint_bytes(m.store))
    blob[:4] = b"JUNK"
    p = tmp_path / "bad.ckpt"
    p.write_bytes(bytes(blob))
    with pytest.raises(DataError):
        load_checkpoint(str(p))


def test_truncated_payload_rejected(tmp_path):
    m = w.build_model(tiny_config(), seed=0)
    blob = checkpoint_bytes(m.store)
    p = tmp_path / "short.ckpt"
    p.write_bytes(blob[:-8])
    with pytest.raises(DataError):
        load_checkpoint(str(p))


def test_trailing_garbage_rejected(tmp_path):
    m = w.build_model(tiny_config(), seed=0)
    p = tmp_path / "long.ckpt"
    p.write_bytes(checkpoint_bytes(m.store) + b"\x00\x00")
    with pytest.raises(DataError):
        load_checkpoint(str(p))


def test_corrupt_names_and_non_finite_payloads_rejected(tmp_path):
    blob = checkpoint_bytes(w.build_model(tiny_config(), seed=0).store)
    dangling = bytearray(blob)
    at = blob.index(b"embedding", blob.index(b"src_embed"))
    dangling[at + 8] = ord("G")  # alias target 'embeddinG' does not exist
    duplicate = bytearray(blob)
    duplicate[blob.index(b"enc.sa0.bq") + 8] = ord("w")  # a second 'enc.sa0.wq'
    dtype = bytearray(blob)
    dtype[blob.index(b"embedding") + len(b"embedding")] = 7  # the first tensor's dtype code
    cut = blob[:blob.index(b"embedding") + 4]  # ends inside the first name
    cases = {"dangling": dangling, "duplicate": duplicate, "dtype": dtype, "cut": cut}
    for value in (np.nan, np.inf):
        cases[f"{value}"] = blob[:-4] + struct.pack("<f", value)
    for label, data in cases.items():
        p = tmp_path / f"{label}.ckpt"
        p.write_bytes(bytes(data))
        with pytest.raises(DataError):
            load_checkpoint(str(p))


def _assert_views_of_one_buffer(store, cfg):
    at = 0
    for name, shape in param_layout(cfg)[0]:
        n = math.prod(shape)
        data = store.physical[name].data
        assert data.shape == shape, name
        assert data.ctypes.data == store.flat.ctypes.data + 4 * at, name
        assert np.shares_memory(data, store.flat[at : at + n]), name
        at += n
    assert at == store.flat.size


@pytest.mark.parametrize("preset", ["baseline", "NoDec", "SharedEncDec", "OneWideFFN", None])
def test_every_tensor_is_a_view_of_the_flat_buffer_at_its_layout_offset(tmp_path, preset):
    if preset is None:
        cfg = tiny_config(n_enc=0, architecture="decoder-only")
    else:
        cfg = w.apply_preset(tiny_config(), preset)
    m = w.build_model(cfg, seed=1)
    _assert_views_of_one_buffer(m.store, cfg)
    p = tmp_path / "m.ckpt"
    save_model_checkpoint(m, str(p))
    loaded = load_model_checkpoint(str(p))
    _assert_views_of_one_buffer(loaded.store, cfg)
    assert np.array_equal(loaded.store.flat, m.store.flat)


def test_a_failed_save_leaves_the_earlier_files_whole(tmp_path, monkeypatch):
    p = tmp_path / "m.ckpt"
    save_model_checkpoint(w.build_model(tiny_config(), seed=0), str(p))
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}

    def cut_short(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", cut_short)
    newer = w.build_model(w.apply_preset(tiny_config(), "NoDec"), seed=1)
    with pytest.raises(OSError, match="disk full"):
        save_model_checkpoint(newer, str(p))
    with pytest.raises(OSError, match="disk full"):
        checkpoint.write_json(sidecar_path(str(p)), {"d_model": 0})
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


def test_restore_preserves_tying(tmp_path):
    cfg = w.apply_preset(tiny_config(), "SharedEncDec")
    src = w.build_model(cfg, seed=1)
    p = tmp_path / "tied.ckpt"
    save_checkpoint(src.store, str(p))

    dst = load_model_checkpoint(str(p), config=cfg)
    # values came over
    for name, t in src.store.physical.items():
        assert np.array_equal(dst.store.physical[name].data, t.data)
    # tying survives: one block object behind both layers, holding the store's tensor
    a = dst.store.resolve("enc.layer0.ffn.w1")
    assert a is dst.store.resolve("dec.layer1.ffn.w1")
    assert a is dst.enc_ffn[0].w1
    assert dst.enc_ffn[0] is dst.enc_ffn[1] is dst.dec_ffn[0] is dst.dec_ffn[1]


def test_restore_rejects_shape_mismatch(tmp_path):
    src = w.build_model(tiny_config(), seed=0)
    p = tmp_path / "m.ckpt"
    save_checkpoint(src.store, str(p))
    with pytest.raises(DataError, match="mismatched tensors"):
        load_model_checkpoint(str(p), config=tiny_config(d_ff=64))


def test_restore_rejects_name_mismatch(tmp_path):
    src = w.build_model(tiny_config(), seed=0)
    p = tmp_path / "m.ckpt"
    save_checkpoint(src.store, str(p))
    with pytest.raises(DataError, match="extra tensors"):
        load_model_checkpoint(str(p), config=w.apply_preset(tiny_config(), "NoDec"))


def test_load_rejects_alias_mismatch_with_equal_tensors(tmp_path):
    # Cycle(2) and Sequence(2) over 4 layers make the same two FFNs per side
    # but tie different layers to them.
    def grouped(kind):
        strategy = FFNStrategy.parse(f"{kind}(2)")
        return tiny_config(n_enc=4, n_dec=4,
                           sharing=SharingSpec(enc_ffn=strategy, dec_ffn=strategy))

    src = w.build_model(grouped("Cycle"), seed=0)
    p = tmp_path / "cycle.ckpt"
    save_checkpoint(src.store, str(p))
    with pytest.raises(DataError, match="mismatched aliases"):
        load_model_checkpoint(str(p), config=grouped("Sequence"))


def test_load_builds_no_model(tmp_path, monkeypatch):
    cfg = w.apply_preset(tiny_config(), "OneWideFFN")
    m = w.build_model(cfg, seed=2)
    p = tmp_path / "m.ckpt"
    save_model_checkpoint(m, str(p))

    def refuse(*args, **kwargs):
        raise AssertionError("load_model_checkpoint built a model")

    monkeypatch.setattr(transformer, "build_model", refuse)
    for loaded in (load_model_checkpoint(str(p)), load_model_checkpoint(str(p), config=cfg)):
        assert checkpoint_bytes(loaded.store) == checkpoint_bytes(m.store)
        a, _ = encoder_forward(m, [4, 5, 6])
        b, _ = encoder_forward(loaded, [4, 5, 6])
        assert np.array_equal(a.data, b.data)


def test_model_checkpoint_sidecar_round_trip(tmp_path):
    cfg = w.apply_preset(tiny_config(), "SharedEnc")
    m = w.build_model(cfg, seed=4)
    p = tmp_path / "model.ckpt"
    save_model_checkpoint(m, str(p))
    side = sidecar_path(str(p))
    assert json.loads(open(side).read())["d_model"] == cfg.d_model

    m2 = load_model_checkpoint(str(p))
    assert m2.config == cfg
    src = [4, 5, 6]
    a, _ = encoder_forward(m, src)
    b, _ = encoder_forward(m2, src)
    assert np.array_equal(a.data, b.data)


def test_a_config_given_numpy_numbers_saves_and_reloads(tmp_path):
    # the config stores Python numbers, so its JSON sidecar is written whole
    cfg = dataclasses.replace(tiny_config(), d_ff=np.int64(32), d_ff_enc=np.int32(24),
                              dropout=np.float32(0.25))
    assert (type(cfg.d_ff), type(cfg.d_ff_enc), type(cfg.dropout)) == (int, int, float)
    p = str(tmp_path / "m.bin")
    save_model_checkpoint(w.build_model(cfg, seed=2), p)
    assert load_model_checkpoint(p).config == cfg


# Grouped strategies given numpy group counts, and a sharing given as text.
SHARINGS = {
    "sequence-cycle": {"enc_ffn": FFNStrategy("Sequence", np.int64(2)),
                       "dec_ffn": FFNStrategy("Cycle", np.int32(4))},
    "cyclerev": {"enc_ffn": FFNStrategy("CycleRev", np.uint8(2)),
                 "dec_ffn": FFNStrategy("CycleRev", np.int16(2)), "enc_self_attn": "SharedAll"},
    "text": {"enc_ffn": "Cycle(2)", "dec_ffn": "Sequence(4)", "dec_cross_attn": "SharedAll"},
}


@pytest.mark.parametrize("case", sorted(PRESETS) + sorted(SHARINGS))
def test_every_config_round_trips_through_json_and_its_checkpoint(tmp_path, case):
    if case in PRESETS:
        cfg = w.apply_preset(tiny_config(), case)
    else:
        cfg = tiny_config(n_enc=4, n_dec=4, sharing=SHARINGS[case])
    assert ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    for name in STRATEGY_FIELDS:
        assert type(getattr(cfg.sharing, name).m) in (int, type(None)), name
    p = str(tmp_path / "m.ckpt")
    save_model_checkpoint(w.build_model(cfg, seed=0), p)
    assert load_model_checkpoint(p).config == cfg


def test_sharing_shrinks_checkpoint_by_predicted_bytes():
    cfg = tiny_config(n_enc=4, n_dec=4)
    shared = w.apply_preset(cfg, "SharedEnc")
    blob_a = checkpoint_bytes(w.build_model(cfg, seed=0).store)
    blob_b = checkpoint_bytes(w.build_model(shared, seed=0).store)
    predicted = 4 * (w.count_params(cfg)[0] - w.count_params(shared)[0])
    # payload shrinks by exactly 4 bytes per dropped weight; the header
    # shrinks a little too (fewer physical records, more alias records)
    assert 0 <= (len(blob_a) - len(blob_b)) - predicted < 1024 or \
           0 <= predicted - (len(blob_a) - len(blob_b)) < 1024
