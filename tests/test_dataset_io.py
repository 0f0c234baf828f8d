import numpy as np
import numpy.testing as npt
import pytest

from narrative_seq.dataset_io import (
    EncodedDataset,
    read_encoded_dataset,
    read_vocab_sidecar,
    vocab_fingerprint,
    write_encoded_dataset,
    write_vocab_sidecar,
)
from narrative_seq.errors import DataError
from narrative_seq.text_pipeline import build_vocabulary


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_vocab_sidecar(tmp_path / "nope.json")
        with pytest.raises(DataError):
            vocab_fingerprint(tmp_path / "nope.json")
