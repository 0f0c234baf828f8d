"""Byte pins for the evaluation artifacts: ``metrics.json`` as ``write_json``
writes it, ``results_table.txt``, ``results.csv`` and the ``evaluate``
summary text. Also counts ``compute_metrics`` calls: one per evaluation.

Predictions are fixed (``score_records`` and ``train_model`` are stubbed),
so no BLAS call is involved and the bytes are the same on every build. The
labels leave one class without support and the predictions never name
another, so both zero flags and every 0/0 rule reach the output.
"""

import hashlib

import numpy as np
import pytest

from narrative_seq import dataset_io, harness
from narrative_seq.checkpoint import save_checkpoint
from narrative_seq.cli import main
from narrative_seq.evaluation import compute_metrics
from narrative_seq.neural_layers import init_params
from narrative_seq.tensor_core import SeededRng
from narrative_seq.text_pipeline import build_vocabulary
from narrative_seq.training import EpochStats
from narrative_seq.zoo import build_spec

# NO_DAMAGE (3) has no support; MINOR (2) is never predicted.
LABELS = np.tile([1] * 9 + [0] * 4 + [2] * 3 + [1] * 4, 2)
PREDS = np.tile([1, 1, 1, 1, 1, 1, 1, 0, 3, 0, 0, 0, 3, 1, 0, 1, 1, 1, 0, 1], 2)
MODELS = ("sRNN", "GRU", "LSTM")
DIMS = {"embedding_dim": 2, "hidden_units": 2, "dense_hidden_units": 2}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture()
def data_dir(tmp_path):
    out = tmp_path / "data"
    out.mkdir()
    vocab = build_vocabulary([["pilot", "engine", "runway"]])
    dataset = dataset_io.EncodedDataset(
        sequences=np.full((LABELS.size, 3), 2, dtype=np.int64),
        labels=LABELS.astype(np.uint8), vocab_size=vocab.size,
    )
    dataset_io.write_encoded_dataset(out / dataset_io.ENCODED_FILENAME, dataset)
    dataset_io.write_vocab_sidecar(out / dataset_io.VOCAB_FILENAME, vocab)
    return out


@pytest.fixture()
def fixed_scores(monkeypatch):
    """Model k of ``MODELS`` predicts ``PREDS`` rolled by k records."""
    def score(spec, params, dataset, indices):
        shift = MODELS.index(spec.name) if spec.name in MODELS else 0
        return np.roll(PREDS, shift)[np.asarray(indices)], 0.0

    monkeypatch.setattr(harness, "score_records", score)


def _checkpoint(data_dir, path):
    dataset, fingerprint = harness.read_dataset_dir(data_dir)
    spec = build_spec("sRNN", **DIMS)
    params = init_params(spec, dataset.vocab_size, SeededRng(0))
    save_checkpoint(params, spec, fingerprint, path)
    return path


SUMMARY = (
    "Accuracy:                 0.6500\n"
    "Majority-class baseline:  0.6500\n"
    "\n"
    "Class         Precision  Recall      F1  Support\n"
    "Destroyed        0.5000  0.7500  0.6000        8\n"
    "Substantial      0.8333  0.7692  0.8000       26\n"
    "Minor            0.0000  0.0000  0.0000        6  [never-predicted]\n"
    "None             0.0000  0.0000  0.0000        0  [no-support]\n"
    "\n"
    "Aggregate (weighted): precision 0.6417, recall 0.6500, F1 0.6400\n"
    "Aggregate (macro):    precision 0.3333, recall 0.3798, F1 0.3500\n"
)
METRICS_JSON_SHA256 = "ccefdbf19d78c9447693217b500867c95c04a45a3bdcdfe04b1396ddfc637b54"


def test_evaluate_summary_and_metrics_json(data_dir, tmp_path, fixed_scores, capsys):
    model = _checkpoint(data_dir, tmp_path / "checkpoint.nsck")
    out = tmp_path / "eval"
    assert main(["evaluate", "--model-file", str(model), "--data", str(data_dir),
                 "--split", "all", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[0] == "sRNN on the all split (40 records)\n"
    assert "".join(lines[1:-1]) == SUMMARY
    assert lines[-1] == f"metrics written to {out / 'metrics.json'}\n"
    assert _sha256((out / "metrics.json").read_bytes()) == METRICS_JSON_SHA256


RESULTS_TABLE = (
    "Model  Precision(%)  Recall(%)  F1(%)  Accuracy(%)\n"
    "-----  ------------  ---------  -----  -----------\n"
    "sRNN             56         62     58         62.5\n"
    "GRU              50         50     47         50.0\n"
    "LSTM             47         38     42         37.5\n"
)
# Weighted rows for every model, then macro rows; unrounded fractions.
RESULTS_CSV_SHA256 = "b513ae9e02870cefc889b0ca66af320f261370793f62568aa3acb0b92efef443"


@pytest.fixture()
def fixed_training(monkeypatch):
    def train(spec, dataset, config, split):
        history = [EpochStats(train_loss=1.0, train_accuracy=0.5,
                              val_loss=1.0, val_accuracy=0.5)]
        return init_params(spec, dataset.vocab_size, SeededRng(0)), history

    monkeypatch.setattr(harness, "train_model", train)


def _compare(data_dir, out):
    harness.run_experiment(harness.config_from_dict(
        {"data_path": str(data_dir), "output_dir": str(out),
         "model_names": list(MODELS), **DIMS}))


def test_compare_results_table_and_csv(data_dir, tmp_path, fixed_scores, fixed_training):
    out = tmp_path / "out"
    _compare(data_dir, out)
    assert (out / harness.RESULTS_TABLE_FILENAME).read_text(encoding="utf-8") == RESULTS_TABLE
    assert _sha256((out / harness.RESULTS_CSV_FILENAME).read_bytes()) == RESULTS_CSV_SHA256


@pytest.fixture()
def metric_calls(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compute_metrics(*args, **kwargs)

    monkeypatch.setattr(harness, "compute_metrics", counted)
    return calls


def test_one_compute_metrics_call_per_evaluation(data_dir, tmp_path, fixed_scores,
                                                 fixed_training, metric_calls):
    model = _checkpoint(data_dir, tmp_path / "checkpoint.nsck")
    assert main(["evaluate", "--model-file", str(model), "--data", str(data_dir)]) == 0
    assert len(metric_calls) == 1
    _compare(data_dir, tmp_path / "out")
    assert len(metric_calls) == 1 + len(MODELS)
