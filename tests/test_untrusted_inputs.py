"""Property tests for the readers of untrusted input: checkpoints, BDT1
containers, PGM files and CSV datasets. Any byte string either loads or
raises the reading module's own error type, never a stray exception."""

import io
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bitconv import model as M
from bitconv import quantize as Q
from bitconv import tensor as T
from bitconv import train as TR
from bitconv.layers import BlockTopology

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


def _checkpoint() -> bytes:
    cfg = M.ModelConfig(n_convs=2, stages=((8, 1),), input_shape=(1, 6, 6), classes=3,
                        topology=BlockTopology.PRE_BN_RESIDUAL)
    return M.save(M.checkpoint_of(M.build(cfg, seed=0)))


CHECKPOINT = _checkpoint()
MANIFEST_END = 12 + int(np.frombuffer(CHECKPOINT[8:12], dtype="<u4")[0])
MANIFEST = json.loads(CHECKPOINT[12:MANIFEST_END])
BODY = CHECKPOINT[MANIFEST_END:]


def _with_manifest(m: dict) -> bytes:
    """A checkpoint of the real payload behind the manifest m."""
    raw = json.dumps(m).encode()
    return M.CKPT_MAGIC + struct.pack("<II", M.FORMAT_VERSION, len(raw)) + raw + BODY


@st.composite
def mutated(draw, data: bytes):
    """data with a few bytes overwritten, inserted or deleted, or truncated."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        pos = draw(st.integers(0, max(0, len(out) - 1)))
        if kind == "set" and out:
            out[pos] = draw(st.integers(0, 255))
        elif kind == "insert":
            out[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del out[pos : pos + draw(st.integers(1, 8))]
        else:
            del out[pos:]
    return bytes(out)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def manifests(draw):
    """The real manifest with one field replaced by arbitrary JSON; the
    payload CRC is kept valid, so the entries and config get parsed."""
    m = json.loads(json.dumps(MANIFEST))
    where = draw(st.sampled_from(["config", "entries", "entry", "shape", "name", "crc"]))
    value = draw(JSON)
    if where == "config":
        key = draw(st.sampled_from(sorted(m["config"])))
        m["config"][key] = value
    elif where == "entries":
        m["entries"] = value
    elif where == "crc":
        m["payload_crc32"] = value
    else:
        entry = m["entries"][draw(st.integers(0, len(m["entries"]) - 1))]
        if where == "entry":
            m["entries"][m["entries"].index(entry)] = value
        else:
            entry[where] = draw(st.lists(st.integers(-3, 80), max_size=5) | JSON)
    return _with_manifest(m)


class TestCheckpointLoad:
    def _loads_or_raises(self, data):
        try:
            ckpt = M.load(data)
        except M.CheckpointError:
            return
        manifest = json.loads(data[12 : 12 + int(np.frombuffer(data[8:12], dtype="<u4")[0])])
        declared = {e["name"]: tuple(e["shape"]) for e in manifest["entries"]}
        assert {k: t.shape for k, t in ckpt.tensors.items()} == declared  # never reshaped silently

    @PROPERTY
    @given(st.binary(max_size=64) | mutated(CHECKPOINT))
    def test_bytes(self, data):
        self._loads_or_raises(data)

    @PROPERTY
    @given(manifests())
    def test_manifest_fields(self, data):
        self._loads_or_raises(data)

    def test_deeply_nested_manifest(self):
        raw = b"[" * 100_000
        data = M.CKPT_MAGIC + struct.pack("<II", M.FORMAT_VERSION, len(raw)) + raw
        with pytest.raises(M.CheckpointError):
            M.load(data)

    @pytest.mark.parametrize("shape", [[-1], None])
    def test_inferred_shape_rejected(self, shape):
        m = json.loads(json.dumps(MANIFEST))
        m["entries"][0]["shape"] = shape
        with pytest.raises(M.CheckpointError, match="invalid shape"):
            M.load(_with_manifest(m))

    @pytest.mark.parametrize("key,value", [("n_convs", 2.0), ("n_convs", True), ("classes", 3.0),
                                           ("input_shape", [1.0, 6, 6]), ("stages", [[8.0, 1]]),
                                           ("stages", [[8, 1.0]])])
    def test_non_integer_count_rejected(self, key, value):
        m = json.loads(json.dumps(MANIFEST))
        m["config"][key] = value
        with pytest.raises(M.CheckpointError, match="must hold integers"):
            M.load(_with_manifest(m))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
    def test_non_finite_or_bool_width_rejected(self, value):
        m = json.loads(json.dumps(MANIFEST))
        m["config"]["width_multiplier"] = value
        with pytest.raises(M.CheckpointError, match="width_multiplier must be a finite real > 0"):
            M.load(_with_manifest(m))

    @pytest.mark.parametrize("shape", [[0, 6, 6], [1, -3, 6]])
    def test_non_positive_input_shape_rejected(self, shape):
        m = json.loads(json.dumps(MANIFEST))
        m["config"]["input_shape"] = shape
        with pytest.raises(M.CheckpointError, match="input_shape entries must be >= 1"):
            M.load(_with_manifest(m))


def _container(shape, payload) -> bytes:
    return T.MAGIC + np.asarray(shape, dtype="<u4").tobytes() + payload


@st.composite
def containers(draw):
    shape = draw(st.lists(st.integers(0, 5) | st.integers(0, 2**32 - 1), min_size=4, max_size=4))
    return _container(shape, draw(st.binary(max_size=200)))


class TestContainerRead:
    @PROPERTY
    @given(st.binary(max_size=64) | containers())
    def test_dense(self, data):
        try:
            t = T.read_dense(io.BytesIO(data))
        except T.ContainerError:
            return
        assert t.dtype == np.float32 and t.ndim == 4

    @PROPERTY
    @given(st.binary(max_size=64) | containers())
    def test_bits(self, data):
        try:
            b = T.read_bits(io.BytesIO(data))
        except T.ContainerError:
            return
        assert b.words.shape[:2] == b.shape[:2]


def _read_file(reader, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        return reader(path)


TOKEN = st.sampled_from([b"P5", b"P2", b"255", b"0", b"-3", b"4", b"3", b"65536", b"#c\n", b"x", b""])


@st.composite
def pgms(draw):
    head = b" ".join(draw(st.lists(TOKEN, min_size=0, max_size=6)))
    return head + draw(st.sampled_from([b"\n", b" ", b""])) + draw(st.binary(max_size=40))


class TestPgmRead:
    @PROPERTY
    @given(st.binary(max_size=64) | pgms())
    def test_bytes(self, data):
        try:
            img = _read_file(Q.read_pgm, data)
        except ValueError:
            return
        assert img.dtype == np.uint8 and img.ndim == 2 and img.size >= 1


FIELD = st.sampled_from(["0", "1", "2", "7", "-1", "0.5", "nan", "inf", "1e3", "x", "", " 1", "#", "label",
                         '"1"', '"', "\x00"])


@st.composite
def csvs(draw):
    rows = draw(st.lists(st.lists(FIELD, min_size=0, max_size=6), max_size=5))
    return "\n".join(",".join(r) for r in rows).encode()


class TestCsvRead:
    @PROPERTY
    @given(st.binary(max_size=64) | csvs())
    def test_bytes(self, data):
        try:
            ds = _read_file(lambda p: TR.load_csv_dataset(p, (1, 2, 2), 3), data)
        except ValueError:
            return
        assert ds.x.shape[1:] == (1, 2, 2) and np.all(np.isfinite(ds.x))

    def test_field_over_size_limit(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("0," + "1" * 200_000 + ",1,1,1\n")
        with pytest.raises(ValueError, match="big.csv:1:"):
            TR.load_csv_dataset(path, (1, 2, 2), 3)
