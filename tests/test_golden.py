"""Golden bit-identity pin for the training path of every zoo model.

Each case trains one model for two epochs at small shapes and a fixed seed,
then hashes the trained parameters (name, shape, dtype and bytes, in
parameter order) and the ``history_to_csv`` text. The digests live in
``golden_digests.json``.

OpenBLAS picks its kernels per CPU, so the digests are keyed by numpy
version, OpenBLAS configuration line and CPU model, like the benchmark's
reference digests. On a build without a recorded key the test skips and
names that key. To record the digests of the current build, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff of the
JSON file; a recorded digest changes only with a re-baseline stated in
CHANGES.md.

The dataset and batch size are chosen so that no training or evaluation
batch has one row: numpy sends one-row products down its gemv path, whose
last bits can differ from a batched GEMM of the same rows.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from narrative_seq.dataset_io import EncodedDataset
from narrative_seq.training import (
    SplitSpec,
    TrainConfig,
    history_to_csv,
    split_dataset,
    train_model,
)
from narrative_seq.zoo import ZOO_NAMES, build_spec

GOLDEN_FILE = Path(__file__).with_name("golden_digests.json")

N_RECORDS = 30      # 6 test, 2 validation, 22 train records
SEQ_LEN = 12
VOCAB_SIZE = 40
BATCH_SIZE = 8      # train batches of 8, 8 and 6 rows
WIDTH = 6           # embedding, hidden and dense widths

CASES = [(name, False) for name in ZOO_NAMES] + [("GRU-BLSTM-sRNN", True)]


def build_key() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"numpy {np.__version__} | {blas.get('openblas configuration', '')} | {cpu}"


def golden_dataset() -> EncodedDataset:
    """Random ids with trailing padding of random length on most records."""
    rng = np.random.default_rng(20250601)
    sequences = rng.integers(1, VOCAB_SIZE, size=(N_RECORDS, SEQ_LEN)).astype(np.uint32)
    lengths = rng.integers(SEQ_LEN // 3, SEQ_LEN + 1, size=N_RECORDS)
    for row, length in enumerate(lengths):
        sequences[row, length:] = 0
    labels = rng.integers(0, 4, size=N_RECORDS).astype(np.uint8)
    return EncodedDataset(sequences=sequences, labels=labels, vocab_size=VOCAB_SIZE)


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name, tensor in params.items():
        h.update(f"{name}:{tensor.shape}:{tensor.dtype.str}\n".encode())
        h.update(np.ascontiguousarray(tensor).tobytes())
    return h.hexdigest()


def case_id(name: str, masked: bool) -> str:
    return f"{name}+mask" if masked else name


def run_case(name: str, masked: bool) -> dict[str, str]:
    spec = build_spec(name, embedding_dim=WIDTH, hidden_units=WIDTH,
                      dense_hidden_units=WIDTH, mask_padding=masked)
    config = TrainConfig(epochs=2, batch_size=BATCH_SIZE, seed=7)
    params, history = train_model(spec, golden_dataset(), config, SplitSpec(seed=3))
    return {
        "params": params_digest(params),
        "history.csv": hashlib.sha256(history_to_csv(history).encode()).hexdigest(),
    }


def test_no_batch_has_one_row():
    train, validation, _ = split_dataset(N_RECORDS, SplitSpec(seed=3))
    assert train.size % BATCH_SIZE != 1 and train.size > 1
    assert validation.size > 1


@pytest.mark.parametrize("name,masked", CASES, ids=[case_id(*c) for c in CASES])
def test_training_is_bit_identical_to_golden(name, masked):
    key = build_key()
    table = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    if key not in table:
        pytest.skip(f"no golden digests for build {key!r}")
    assert run_case(name, masked) == table[key][case_id(name, masked)]


if __name__ == "__main__":
    table = json.loads(GOLDEN_FILE.read_text(encoding="utf-8")) if GOLDEN_FILE.exists() else {}
    table[build_key()] = {case_id(*case): run_case(*case) for case in CASES}
    GOLDEN_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
