import ast
import stat
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import narrative_seq
from narrative_seq import dataset_io
from narrative_seq.checkpoint import save_checkpoint
from narrative_seq.dataset_io import (
    EncodedDataset,
    read_encoded_dataset,
    read_vocab_sidecar,
    vocab_fingerprint,
    write_encoded_dataset,
    write_atomic,
    write_vocab_sidecar,
)
from narrative_seq.errors import CheckpointError, DataError
from narrative_seq.neural_layers import init_params
from narrative_seq.tensor_core import SeededRng
from narrative_seq.text_pipeline import build_vocabulary
from narrative_seq.zoo import build_spec


@pytest.fixture()
def dataset():
    rng = np.random.default_rng(7)
    return EncodedDataset(
        sequences=rng.integers(0, 40, size=(12, 9)).astype(np.uint32),
        labels=rng.integers(0, 4, size=12).astype(np.uint8),
        vocab_size=40,
    )


class TestEncodedDataset:
    def test_round_trip(self, tmp_path, dataset):
        path = tmp_path / "data.nseq"
        write_encoded_dataset(path, dataset)
        loaded = read_encoded_dataset(path)
        npt.assert_array_equal(loaded.sequences, dataset.sequences)
        npt.assert_array_equal(loaded.labels, dataset.labels)
        assert loaded.vocab_size == 40
        assert loaded.seq_len == 9 and len(loaded) == 12

    def test_byte_stable(self, tmp_path, dataset):
        a, b = tmp_path / "a.nseq", tmp_path / "b.nseq"
        write_encoded_dataset(a, dataset)
        write_encoded_dataset(b, dataset)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.nseq"
        path.write_bytes(b"JUNKX" + b"\x00" * 20)
        with pytest.raises(DataError, match="magic"):
            read_encoded_dataset(path)

    def test_truncated_file(self, tmp_path, dataset):
        path = tmp_path / "cut.nseq"
        write_encoded_dataset(path, dataset)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DataError, match="bytes"):
            read_encoded_dataset(path)

    @pytest.mark.parametrize("size", [5, 16])
    def test_shorter_than_header(self, tmp_path, dataset, size):
        path = tmp_path / "short.nseq"
        write_encoded_dataset(path, dataset)
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(DataError, match="header"):
            read_encoded_dataset(path)

    def test_token_id_outside_vocabulary(self, tmp_path, dataset):
        dataset.sequences[3, 4] = dataset.vocab_size
        path = tmp_path / "bad_id.nseq"
        write_encoded_dataset(path, dataset)
        with pytest.raises(DataError, match="token id 40"):
            read_encoded_dataset(path)

    def test_label_outside_damage_levels(self, tmp_path, dataset):
        dataset.labels[5] = 4
        path = tmp_path / "bad_label.nseq"
        write_encoded_dataset(path, dataset)
        with pytest.raises(DataError, match="label 4"):
            read_encoded_dataset(path)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            EncodedDataset(
                sequences=np.zeros((3, 4), dtype=np.uint32),
                labels=np.zeros(2, dtype=np.uint8),
                vocab_size=5,
            )

    def test_empty_dataset_round_trip(self, tmp_path):
        empty = EncodedDataset(
            sequences=np.zeros((0, 7), dtype=np.uint32),
            labels=np.zeros(0, dtype=np.uint8),
            vocab_size=3,
        )
        path = tmp_path / "empty.nseq"
        write_encoded_dataset(path, empty)
        loaded = read_encoded_dataset(path)
        assert len(loaded) == 0 and loaded.seq_len == 7


class TestVocabSidecar:
    @pytest.fixture()
    def vocab(self):
        return build_vocabulary([["pilot", "engine", "pilot"], ["runway"]])

    def test_round_trip(self, tmp_path, vocab):
        path = tmp_path / "vocab.json"
        write_vocab_sidecar(path, vocab)
        loaded = read_vocab_sidecar(path)
        assert loaded.index_of == vocab.index_of
        assert loaded.frequencies == vocab.frequencies

    def test_fingerprint_stable_and_sensitive(self, tmp_path, vocab):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_vocab_sidecar(a, vocab)
        write_vocab_sidecar(b, vocab)
        assert vocab_fingerprint(a) == vocab_fingerprint(b)
        other = build_vocabulary([["different", "tokens"]])
        c = tmp_path / "c.json"
        write_vocab_sidecar(c, other)
        assert vocab_fingerprint(a) != vocab_fingerprint(c)

    def test_reserved_rows_present(self, tmp_path, vocab):
        import json

        path = tmp_path / "vocab.json"
        write_vocab_sidecar(path, vocab)
        entries = json.loads(path.read_text())
        by_index = {e["index"]: e["token"] for e in entries}
        assert by_index[0] == "<pad>" and by_index[1] == "<oov>"

    @pytest.mark.parametrize("entries,match", [
        ({"token": "<pad>"}, "JSON list"),
        ([{"token": "<pad>", "index": 0}], "JSON list"),
        ([{"token": "<pad>", "index": "0", "frequency": 0}], "JSON list"),
        ([{"token": "<pad>", "index": 0, "frequency": 0},
          {"token": "<oov>", "index": 2, "frequency": 0}], "indices"),
        ([{"token": "<oov>", "index": 0, "frequency": 0},
          {"token": "<pad>", "index": 1, "frequency": 0}], "<pad> and <oov>"),
        ([], "<pad> and <oov>"),
        ([{"token": t, "index": i, "frequency": 1}
          for i, t in enumerate(("<pad>", "<oov>", "a", "a"))], "'a' is listed more than once"),
    ], ids=["object", "missing-key", "string-index", "index-gap", "reserved-swapped", "empty",
            "repeated-token"])
    def test_malformed_sidecar_is_data_error(self, tmp_path, entries, match):
        import json

        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(DataError, match=match):
            read_vocab_sidecar(path)
        with pytest.raises(DataError, match=match):
            read_vocab_sidecar(tmp_path / "elsewhere.json", path.read_bytes())

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_vocab_sidecar(tmp_path / "nope.json")
        with pytest.raises(DataError):
            vocab_fingerprint(tmp_path / "nope.json")


class TestWriteAtomic:
    def test_writes_bytes_with_the_plain_file_mode(self, tmp_path):
        path = tmp_path / "a.bin"
        write_atomic(path, b"abc")
        plain = tmp_path / "plain.bin"
        plain.write_bytes(b"abc")
        assert path.read_bytes() == b"abc"
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "plain.bin"]

    @staticmethod
    def _half_then_interrupt(self, data):
        with open(self, "wb") as handle:
            handle.write(data[: len(data) // 2])
        raise KeyboardInterrupt

    @staticmethod
    def _refuse_replace(src, dst):
        raise OSError("injected rename failure")

    @pytest.mark.parametrize("fail", ["write", "replace"])
    def test_failure_leaves_the_earlier_file_and_no_temp(self, tmp_path, monkeypatch, fail):
        path = tmp_path / "a.bin"
        path.write_bytes(b"earlier contents")
        if fail == "write":
            monkeypatch.setattr(Path, "write_bytes", self._half_then_interrupt)
        else:
            monkeypatch.setattr(dataset_io.os, "replace", self._refuse_replace)
        with pytest.raises((KeyboardInterrupt, DataError)):
            write_atomic(path, b"new contents, longer than before")
        monkeypatch.undo()
        assert path.read_bytes() == b"earlier contents"
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_directory_at_the_path_is_a_data_error(self, tmp_path):
        path = tmp_path / "a.bin"
        path.mkdir()
        with pytest.raises(DataError, match="a.bin"):
            write_atomic(path, b"abc")
        assert path.is_dir() and list(path.iterdir()) == []
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_failed_checkpoint_write_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        spec = build_spec("sRNN", embedding_dim=2, hidden_units=2, dense_hidden_units=2)
        path = tmp_path / "model.nsck"
        save_checkpoint(init_params(spec, 6, SeededRng(0)), spec, "a" * 64, path)
        earlier = path.read_bytes()
        monkeypatch.setattr(dataset_io.os, "replace", self._refuse_replace)
        with pytest.raises(CheckpointError, match="injected"):
            save_checkpoint(init_params(spec, 6, SeededRng(1)), spec, "a" * 64, path)
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["model.nsck"]


_WRITE_MODE_CHARS = set("wxa+")


def _writes_a_file(call: ast.Call) -> bool:
    """``write_text``/``write_bytes``, or ``open``/``Path.open`` in a mode
    that writes (a mode that is not a literal counts as writing)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode_at = 1 if isinstance(func, ast.Name) else 0  # open(path, mode) / path.open(mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[mode_at:mode_at + 1]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & _WRITE_MODE_CHARS
               for m in modes)


def test_write_atomic_is_the_only_file_writer():
    # Every artifact byte goes through dataset_io.write_atomic, so how an
    # artifact is written (temp sibling, then rename) is decided once.
    inside, outside = [], []
    for source in sorted(Path(narrative_seq.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        allowed = set()
        if source.name == "dataset_io.py":
            writer = next(n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == "write_atomic")
            allowed = {id(n) for n in ast.walk(writer)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _writes_a_file(node):
                (inside if id(node) in allowed else outside).append(
                    f"{source.name}:{node.lineno}")
    assert inside, "the scan no longer sees write_atomic's own write"
    assert outside == [], f"files written outside dataset_io.write_atomic: {outside}"
