"""On-disk formats for preprocessed corpora.

Encoded dataset container (extension ``.nseq``): header is the 5-byte magic
``NSEQ1`` followed by three little-endian uint32 fields (sequence length,
vocabulary size, record count); each record is one label byte followed by
``seq_len`` little-endian uint32 token ids.

The vocabulary sidecar is a JSON array of ``{token, index, frequency}``
objects ordered by index, with the reserved entries serialized as ``<pad>``
and ``<oov>`` at frequency 0. Its byte content is deterministic, so its
SHA-256 serves as the vocabulary fingerprint checkpoints are pinned to.

Every artifact the package writes (these two, checkpoints, histories,
metrics, results and manifests) goes through ``write_atomic``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus_ingest import NUM_CLASSES
from .errors import DataError
from .text_pipeline import Vocabulary

MAGIC = b"NSEQ1"
_HEADER = struct.Struct("<III")
MAX_SEQ_LEN = 2**32 - 1  # the largest sequence length the header's uint32 holds

ENCODED_FILENAME = "encoded.nseq"
VOCAB_FILENAME = "vocab.json"


@dataclass
class EncodedDataset:
    """In-memory form of an encoded corpus."""

    sequences: np.ndarray  # [n, seq_len] uint32
    labels: np.ndarray     # [n] uint8, DamageLabel codes
    vocab_size: int

    def __post_init__(self):
        if self.sequences.ndim != 2:
            raise DataError(
                f"sequences must be 2-D, got shape {self.sequences.shape}"
            )
        if self.sequences.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.sequences.shape[0]} sequences vs {self.labels.shape[0]} labels"
            )

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def seq_len(self) -> int:
        return int(self.sequences.shape[1])


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through the temp sibling ``.<name>.tmp``
    and a rename, so an interrupted write leaves the previous file or none,
    never a partial one. The file gets the usual umask-derived mode. An
    ``OSError`` (say, a directory standing at ``path``) is a ``DataError``
    naming the path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # the temp may never have been made
            tmp.unlink()
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc
        raise


def write_encoded_dataset(path: str | Path, dataset: EncodedDataset) -> None:
    n, seq_len = dataset.sequences.shape
    ids = np.ascontiguousarray(dataset.sequences, dtype="<u4")
    labels = np.ascontiguousarray(dataset.labels, dtype=np.uint8)
    records = np.empty((n, 1 + 4 * seq_len), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = ids.view(np.uint8).reshape(n, 4 * seq_len)
    write_atomic(path, MAGIC + _HEADER.pack(seq_len, dataset.vocab_size, n) + records.tobytes())


def read_encoded_dataset(path: str | Path) -> EncodedDataset:
    """Load an ``.nseq`` file. A short or mis-sized file, a header
    ``seq_len`` of 0, a token id outside the header's vocabulary, or a label
    that is not a damage level raises ``DataError``."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read encoded dataset {path}: {exc}") from exc
    if raw[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: bad magic, not an NSEQ1 file")
    offset = len(MAGIC)
    if len(raw) < offset + _HEADER.size:
        raise DataError(
            f"{path}: {len(raw)} bytes is shorter than the {offset + _HEADER.size}-byte header"
        )
    seq_len, vocab_size, n = _HEADER.unpack_from(raw, offset)
    if seq_len == 0:
        raise DataError(f"{path}: header seq_len is 0; sequences need at least one token")
    offset += _HEADER.size
    record_bytes = 1 + 4 * seq_len
    expected = offset + n * record_bytes
    if len(raw) != expected:
        raise DataError(
            f"{path}: expected {expected} bytes for {n} records, found {len(raw)}"
        )
    records = np.frombuffer(raw, dtype=np.uint8, count=n * record_bytes, offset=offset)
    records = records.reshape(n, record_bytes)
    labels = records[:, 0].copy()
    sequences = records[:, 1:].copy().view("<u4").astype(np.uint32, copy=False)
    if sequences.size and int(sequences.max()) >= vocab_size:
        raise DataError(
            f"{path}: token id {int(sequences.max())} is outside the vocabulary of "
            f"{vocab_size}"
        )
    if labels.size and int(labels.max()) >= NUM_CLASSES:
        raise DataError(
            f"{path}: label {int(labels.max())} is not a damage level (0-{NUM_CLASSES - 1})"
        )
    return EncodedDataset(sequences=sequences, labels=labels, vocab_size=vocab_size)


def vocab_to_json(vocab: Vocabulary) -> str:
    """Deterministic sidecar serialization of a vocabulary."""
    entries = [
        {"token": "<pad>", "index": 0, "frequency": 0},
        {"token": "<oov>", "index": 1, "frequency": 0},
    ]
    for i, token in enumerate(vocab.tokens):
        entries.append(
            {"token": token, "index": i + 2, "frequency": vocab.frequencies[token]}
        )
    return json.dumps(entries, ensure_ascii=True, sort_keys=True, indent=2) + "\n"


def write_vocab_sidecar(path: str | Path, vocab: Vocabulary) -> None:
    write_atomic(path, vocab_to_json(vocab).encode("utf-8"))


# Exact JSON value types: a bool index or frequency is not an int here.
_SIDECAR_TYPES = {"token": str, "index": int, "frequency": int}


def read_vocab_sidecar(path: str | Path, data: bytes | None = None) -> Vocabulary:
    """Load a vocabulary sidecar. ``data``, when given, is the file's bytes,
    already read by a caller that also fingerprints them.

    Anything but a JSON list of ``{token, index, frequency}`` objects with
    indices ``0..n-1`` in order, ``<pad>`` and ``<oov>`` in rows 0 and 1 and
    no token listed twice raises ``DataError``.
    """
    path = Path(path)
    try:
        entries = json.loads(path.read_bytes() if data is None else data)
    except (OSError, RecursionError, ValueError) as exc:  # bad UTF-8 or JSON, too deep
        raise DataError(f"cannot read vocabulary sidecar {path}: {exc}") from exc
    if not (isinstance(entries, list) and all(
            isinstance(e, dict) and {k: type(v) for k, v in e.items()} == _SIDECAR_TYPES
            for e in entries)):
        raise DataError(f"{path}: a vocabulary sidecar is a JSON list of "
                        f"{{token, index, frequency}} objects")
    if [e["index"] for e in entries] != list(range(len(entries))):
        raise DataError(f"{path}: entry indices must run 0..{len(entries) - 1} in order")
    if [e["token"] for e in entries[:2]] != ["<pad>", "<oov>"]:
        raise DataError(f"{path}: rows 0 and 1 must be <pad> and <oov>")
    repeated = [t for t, n in Counter(e["token"] for e in entries).items() if n > 1]
    if repeated:
        raise DataError(f"{path}: token {repeated[0]!r} is listed more than once")
    rest = entries[2:]
    return Vocabulary(tokens=tuple(e["token"] for e in rest),
                      frequencies={e["token"]: e["frequency"] for e in rest},
                      max_size=len(entries))


def vocab_fingerprint(path: str | Path, data: bytes | None = None) -> str:
    """SHA-256 of the sidecar file bytes (``data``, when given); checkpoints
    refuse to load against a different fingerprint."""
    if data is None:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise DataError(f"cannot fingerprint vocabulary {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()
