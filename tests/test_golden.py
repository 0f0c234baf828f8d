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
import os
import platform
import subprocess
import sys
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

CASES = ZOO_NAMES


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


def run_case(name: str) -> dict[str, str]:
    spec = build_spec(name, embedding_dim=WIDTH, hidden_units=WIDTH,
                      dense_hidden_units=WIDTH)
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


def test_every_recorded_build_covers_exactly_the_cases():
    # A digest must not outlive its case, and every case needs one.
    table = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    for key, digests in table.items():
        assert sorted(digests) == sorted(CASES), key


@pytest.mark.parametrize("name", CASES)
def test_training_is_bit_identical_to_golden(name):
    key = build_key()
    table = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    if key not in table:
        pytest.skip(f"no golden digests for build {key!r}")
    assert run_case(name) == table[key][name]


# One training step at shapes where OpenBLAS splits its GEMMs across threads:
# 43 records split 32/3/8, so the one batch is B=32 in one CHUNK_STEPS chunk
# of 64 steps at E=H=64, and the input projection is [2048, 64] @ [64, 256].
_THREADED_STEP = """
import hashlib
import numpy as np
from narrative_seq.dataset_io import EncodedDataset
from narrative_seq.training import SplitSpec, TrainConfig, history_to_csv, train_model
from narrative_seq.zoo import build_spec
rng = np.random.default_rng(7)
dataset = EncodedDataset(sequences=rng.integers(1, 500, size=(43, 64)).astype(np.uint32),
                         labels=rng.integers(0, 4, size=43).astype(np.uint8), vocab_size=500)
params, history = train_model(build_spec("LSTM"), dataset,
                              TrainConfig(epochs=1, batch_size=32, seed=1), SplitSpec(seed=1))
h = hashlib.sha256(history_to_csv(history).encode())
for name, tensor in params.items():
    h.update(name.encode() + np.ascontiguousarray(tensor).tobytes())
print(h.hexdigest())
"""


def test_training_is_bit_identical_across_blas_threads():
    # One and two OpenBLAS threads train to the same bits. The golden digests
    # above rely on it: they are keyed by build, not by thread count.
    root = Path(__file__).parents[1]
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", _THREADED_STEP], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


if __name__ == "__main__":
    table = json.loads(GOLDEN_FILE.read_text(encoding="utf-8")) if GOLDEN_FILE.exists() else {}
    table[build_key()] = {name: run_case(name) for name in CASES}
    GOLDEN_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
