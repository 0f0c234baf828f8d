import hashlib
import json
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from narrative_seq.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from narrative_seq.errors import CheckpointError
from narrative_seq.neural_layers import init_params, model_forward
from narrative_seq.tensor_core import SeededRng
from narrative_seq.zoo import build_spec

FP = "a" * 64  # stand-in vocabulary fingerprint


@pytest.fixture()
def spec_and_params():
    spec = build_spec("GRU-LSTM", embedding_dim=4, hidden_units=5, dense_hidden_units=6)
    params = init_params(spec, 15, SeededRng(3, 2))
    return spec, params


class TestRoundTrip:
    def test_tensors_bit_identical(self, tmp_path, spec_and_params):
        spec, params = spec_and_params
        path = tmp_path / "model.nsck"
        save_checkpoint(params, spec, FP, path)
        loaded_spec, loaded = load_checkpoint(path, FP)
        assert loaded_spec == spec
        assert list(loaded.keys()) == list(params.keys())
        for name in params:
            npt.assert_array_equal(loaded[name], params[name])

    def test_predictions_bit_identical(self, tmp_path, spec_and_params):
        spec, params = spec_and_params
        path = tmp_path / "model.nsck"
        save_checkpoint(params, spec, FP, path)
        _, loaded = load_checkpoint(path, FP)
        rng = np.random.default_rng(8)
        for _ in range(20):
            ids = rng.integers(0, 15, size=7)
            before, _ = model_forward(ids, spec, params)
            after, _ = model_forward(ids, spec, loaded)
            npt.assert_array_equal(before, after)

    def test_save_load_save_byte_identical(self, tmp_path, spec_and_params):
        spec, params = spec_and_params
        first = tmp_path / "first.nsck"
        second = tmp_path / "second.nsck"
        save_checkpoint(params, spec, FP, first)
        loaded_spec, loaded = load_checkpoint(first, FP)
        save_checkpoint(loaded, loaded_spec, FP, second)
        assert first.read_bytes() == second.read_bytes()

    def test_float32_storage_round_trips_as_float64(self, tmp_path, spec_and_params):
        # save_checkpoint writes float64 only; a float32 file, as earlier
        # builds wrote it, is made by re-encoding a float64 file's blob and
        # header, and still loads.
        spec, params = spec_and_params
        path = tmp_path / "half.nsck"
        save_checkpoint(params, spec, FP, path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
        start = len(MAGIC) + 8
        header = json.loads(raw[start:start + header_len])
        blob = np.frombuffer(raw[start + header_len:], dtype="<f8").astype("<f4").tobytes()
        for entry in header["tensors"]:
            entry["offset"] //= 2
        header.update(blob_dtype="float32", blob_bytes=len(blob))
        body = json.dumps(header).encode()
        path.write_bytes(MAGIC + struct.pack("<Q", len(body)) + body + blob)
        _, loaded = load_checkpoint(path, FP)
        assert loaded["embedding"].dtype == np.float64
        npt.assert_allclose(loaded["embedding"], params["embedding"], atol=1e-6)


class TestGuards:
    def test_wrong_fingerprint_refused(self, tmp_path, spec_and_params):
        spec, params = spec_and_params
        path = tmp_path / "model.nsck"
        save_checkpoint(params, spec, FP, path)
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint(path, "b" * 64)

    @pytest.mark.parametrize("expected", [None, "b" * 64], ids=["none", "other"])
    def test_every_load_checks_the_fingerprint(self, tmp_path, spec_and_params, expected):
        spec, params = spec_and_params
        path = tmp_path / "model.nsck"
        save_checkpoint(params, spec, FP, path)
        with pytest.raises(CheckpointError, match="fingerprint mismatch") as info:
            load_checkpoint(path, expected)
        assert "corrupt header" not in str(info.value)

    def test_truncated_blob_names_byte_counts(self, tmp_path, spec_and_params):
        spec, params = spec_and_params
        path = tmp_path / "model.nsck"
        save_checkpoint(params, spec, FP, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match=r"expected \d+ bytes, found \d+"):
            load_checkpoint(path, FP)

    def test_unsupported_version(self, tmp_path, spec_and_params):
        spec, params = spec_and_params
        path = tmp_path / "model.nsck"
        save_checkpoint(params, spec, FP, path)
        raw = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
        start = len(MAGIC) + 8
        header = raw[start:start + header_len].decode()
        bumped = header.replace('"format_version":1', '"format_version":99').encode()
        assert bumped != header.encode()
        path.write_bytes(
            MAGIC + struct.pack("<Q", len(bumped)) + bumped + raw[start + header_len:]
        )
        with pytest.raises(CheckpointError, match="format_version 99"):
            load_checkpoint(path, FP)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.nsck"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path, None)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.nsck", None)

    def test_spec_travels_with_params(self, tmp_path):
        spec = build_spec("GRU", embedding_dim=3, hidden_units=4, dense_hidden_units=4)
        params = init_params(spec, 9, SeededRng(5, 2))
        path = tmp_path / "gru.nsck"
        save_checkpoint(params, spec, FP, path)
        loaded_spec, _ = load_checkpoint(path, FP)
        assert loaded_spec == spec
        assert loaded_spec.recurrent_stack[0].kind.value == "gru"


class TestHeaderBytes:
    # The header of a three-layer checkpoint, byte for byte. Its model_spec
    # carries the skeleton's fixed values (num_classes, both activations,
    # the dense hidden layer, no padding mask) next to the widths and stack.
    SPEC_JSON = (
        '"model_spec":{"cell_activation":"tanh","dense_hidden_units":5,"embedding_dim":3,'
        '"hidden_activation":"relu","mask_padding":false,"name":"GRU-BLSTM-sRNN",'
        '"num_classes":4,"recurrent_stack":['
        '{"bidirectional":false,"hidden_units":4,"kind":"gru","returns_sequence":true},'
        '{"bidirectional":true,"hidden_units":4,"kind":"lstm","returns_sequence":true},'
        '{"bidirectional":false,"hidden_units":4,"kind":"srnn","returns_sequence":false}],'
        '"use_dense_hidden":true}'
    )
    HEADER_SHA256 = "d4f8ac8bfbcf50cf3d3ca0c5c813337857a292a9946d78223d2c959476a5689b"

    def test_header_bytes_are_pinned(self, tmp_path):
        spec = build_spec("GRU-BLSTM-sRNN", embedding_dim=3, hidden_units=4,
                          dense_hidden_units=5)
        path = tmp_path / "model.nsck"
        save_checkpoint(init_params(spec, 10, SeededRng(1, 2)), spec, FP, path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
        header = raw[len(MAGIC) + 8:len(MAGIC) + 8 + header_len]
        assert self.SPEC_JSON.encode() in header
        assert hashlib.sha256(header).hexdigest() == self.HEADER_SHA256


def _rewrite_header(path, edit):
    """Replace the JSON header with ``edit(header)``, keeping the blob."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = len(MAGIC) + 8
    header = edit(json.loads(raw[start:start + header_len]))
    body = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(body)) + body + raw[start + header_len:])


def _without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _drop_tensor(name):
    def edit(header):
        header["tensors"] = [e for e in header["tensors"] if e["name"] != name]
        return header
    return edit


def _set_tensor(name, field, value):
    def edit(header):
        next(e for e in header["tensors"] if e["name"] == name)[field] = value
        return header
    return edit


def _set_spec(field, value):
    def edit(header):
        header["model_spec"][field] = value
        return header
    return edit


class TestMalformedHeader:
    """Every malformed file raises CheckpointError, never a bare struct,
    key or index error."""

    @pytest.mark.parametrize("length", [len(MAGIC), len(MAGIC) + 7])
    def test_shorter_than_magic_and_length(self, tmp_path, length):
        path = tmp_path / "short.nsck"
        path.write_bytes(MAGIC + b"\x00" * (length - len(MAGIC)))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path, FP)

    @pytest.mark.parametrize("edit,match", [
        (lambda header: [header], "not a JSON object"),
        (_without("format_version"), "format_version"),
        (_without("model_spec"), "model_spec"),
        (_without("vocab_fingerprint"), "vocab_fingerprint"),
        (_without("blob_dtype"), "blob_dtype"),
        (_without("blob_bytes"), "blob_bytes"),
        (_without("tensors"), "tensors"),
        (lambda header: dict(header, blob_dtype="float16"), "blob_dtype 'float16'"),
        (_drop_tensor("output.b"), "output.b"),
        (_set_tensor("output.W", "shape", [4, 6]), "output.W"),
        (_set_tensor("output.W", "name", "output.V"), "output.V"),
        (_set_spec("dense_hidden_units", 7), "dense_hidden.W"),
        (_set_spec("recurrent_stack", []), "recurrent_stack"),
        (_set_tensor("output.b", "offset", 10**6), "offset"),
        (_set_tensor("output.b", "shape", 4), "TypeError"),
        # The vocabulary size comes from the embedding's own shape, so only
        # the dimension rule refuses these; -1 would read the whole blob.
        (_set_tensor("embedding", "shape", [-1, 4]), r"below 1 at: \['embedding'\]"),
        (_set_tensor("embedding", "shape", [0, 4]), r"below 1 at: \['embedding'\]"),
        # The skeleton's fixed values: any other value is refused by name.
        (_set_spec("num_classes", 3), "num_classes is fixed"),
        (_set_spec("hidden_activation", "tanh"), "hidden_activation is fixed"),
        (_set_spec("cell_activation", "relu"), "cell_activation is fixed"),
        (_set_spec("use_dense_hidden", False), "use_dense_hidden is fixed"),
        (_set_spec("mask_padding", True), "mask_padding is fixed"),
    ], ids=["list", "no-version", "no-spec", "no-fingerprint", "no-dtype", "no-bytes",
            "no-tensors", "float16", "dropped-tensor", "wrong-shape", "renamed-tensor",
            "spec-width", "empty-stack", "offset-past-blob", "shape-not-list",
            "negative-vocabulary", "empty-vocabulary",
            "fixed-num_classes", "fixed-hidden_activation", "fixed-cell_activation",
            "fixed-use_dense_hidden", "fixed-mask_padding"])
    def test_malformed_header(self, tmp_path, spec_and_params, edit, match):
        spec, params = spec_and_params
        path = tmp_path / "model.nsck"
        save_checkpoint(params, spec, FP, path)
        _rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path, FP)

    # The fixture's spec and params are only read, so sharing them across
    # examples is safe.
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_flipped_byte_before_blob(self, tmp_path_factory, spec_and_params, data):
        # A changed byte in the magic, length or header either still loads
        # or raises CheckpointError; nothing else escapes.
        spec, params = spec_and_params
        path = tmp_path_factory.mktemp("flip") / "model.nsck"
        save_checkpoint(params, spec, FP, path)
        raw = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
        pos = data.draw(st.integers(0, len(MAGIC) + 8 + header_len - 1))
        raw[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path, FP)
        except CheckpointError:
            pass
