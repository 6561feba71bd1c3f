import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from refine_es.checkpoint import (load_checkpoint, load_json, save_checkpoint,
                                  save_json_atomic)
from refine_es.errors import CheckpointError

_F64 = st.floats(allow_nan=False, allow_infinity=True, allow_subnormal=True,
                 width=64)
_EDGES = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 1e-300,
                   np.nextafter(1.0, 2.0), np.inf, -np.inf])


@settings(max_examples=60, deadline=None)
@given(a=arrays(np.float64, st.integers(0, 40), elements=_F64),
       b=arrays(np.float64, st.integers(0, 5), elements=_F64))
@example(a=_EDGES, b=np.array([-0.0]))
def test_checkpoint_roundtrip_bit_identical(tmp_path_factory, a, b):
    path = str(tmp_path_factory.mktemp("ckpt") / "checkpoint.npz")
    payload = {"stage": "ppo", "params": a, "adam_m": b, "adam_v": a,
               "adam_t": 3, "curve": [{"x": 0.1}]}
    save_checkpoint(path, payload)
    with np.load(path) as npz:
        assert sorted(npz.files) == ["adam_m", "adam_v", "meta", "params"]
    back = load_checkpoint(path)
    assert back["format_version"] == 3
    assert back["stage"] == "ppo" and back["curve"] == [{"x": 0.1}]
    for got, want in ((back["params"], a), (back["adam_m"], b),
                      (back["adam_v"], a)):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert back["adam_t"] == 3


_JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), _F64,
                       st.text(max_size=5))
_JSON = st.recursive(_JSON_LEAF, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=4), kids,
                                                max_size=4)), max_leaves=20)


@settings(max_examples=60, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=4), _JSON, max_size=5))
def test_save_json_atomic_bytes_match_streaming_encoder(tmp_path_factory,
                                                       payload):
    # json.dump streams through the pure-Python encoder; the one-shot C
    # encoder must produce the same bytes, so result files do not change
    streamed = io.StringIO()
    json.dump(payload, streamed)
    path = str(tmp_path_factory.mktemp("json") / "out.json")
    save_json_atomic(path, payload)
    with open(path) as fh:
        assert fh.read() == streamed.getvalue()
    assert load_json(path) == json.loads(streamed.getvalue())


@pytest.mark.parametrize("version", [1, 2])
def test_load_checkpoint_refuses_other_format_version(tmp_path, version):
    path = str(tmp_path / "checkpoint.npz")
    meta = json.dumps({"format_version": version, "stage": "ppo"}).encode()
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(meta, dtype=np.uint8))
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: field 'format_version' is {version}, this version "
            f"reads only 3")):
        load_checkpoint(path)


def test_save_checkpoint_writes_one_file(tmp_path):
    path = str(tmp_path / "checkpoint.npz")
    save_checkpoint(path, {"params": np.arange(3.0)})
    save_checkpoint(path, {"params": np.arange(4.0)})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.npz"]
    assert np.array_equal(load_checkpoint(path)["params"], np.arange(4.0))


def _npz_bytes(**members) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **members)
    return buf.getvalue()


def _npy_bytes() -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.arange(3.0))
    return buf.getvalue()


def _checkpoint_bytes() -> bytes:
    meta = json.dumps({"format_version": 2, "stage": "ppo"}).encode()
    return _npz_bytes(meta=np.frombuffer(meta, dtype=np.uint8))


@pytest.mark.parametrize("content", [
    pytest.param(b"", id="zero-length"),
    pytest.param(_checkpoint_bytes()[:60], id="truncated-zip"),
    pytest.param(_npz_bytes(params=np.arange(3.0)), id="no-meta-member"),
    pytest.param(_npz_bytes(meta=np.frombuffer(b"{not json", dtype=np.uint8)),
                 id="meta-not-json"),
    pytest.param(_npz_bytes(meta=np.frombuffer(b"[2]", dtype=np.uint8)),
                 id="meta-not-an-object"),
    pytest.param(_npy_bytes(), id="npy-not-npz"),
])
def test_unreadable_checkpoint_raises_checkpoint_error(tmp_path, content):
    path = tmp_path / "checkpoint.npz"
    path.write_bytes(content)
    with pytest.raises(CheckpointError,
                       match=r"checkpoint\.npz: unreadable checkpoint"):
        load_checkpoint(str(path))
