"""Config-driven experiment orchestration: train and evaluate a set of zoo
models on one preprocessed dataset, then emit the combined artifacts.

Every model in a run shares the same seeded split, so comparisons are
paired. A model that aborts on non-finite loss is recorded as failed
without stopping the others. All artifacts are content-deterministic
(no timestamps), so identical configs produce byte-identical outputs;
the manifest lists every written file with its SHA-256.

``train_and_save`` is the one path that trains a model and writes its
checkpoint and history (and, for ``compare``, its test metrics):
``run_experiment`` calls it per model, and the ``train`` subcommand calls it
once. It creates the model directory before training, so an unusable output
path fails fast. When training or writing fails it removes the artifact
names it would have written, so a failed rerun keeps none of an earlier
run's files. Every artifact is written through ``dataset_io.write_atomic``
(JSON through ``write_json``), so an interrupted run leaves each file whole
or absent.

``split_indices`` (from ``training``) is the one lookup from a split name to
its record indices; it refuses a split the fractions leave empty.
``evaluate_on`` is the one scoring path of ``evaluate`` and ``compare``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dataset_io, zoo
from .checkpoint import save_checkpoint
from .errors import DataError, NumericError
from .evaluation import MetricsReport, compute_metrics, confusion_matrix, render_results_table
from .training import (
    SPLIT_NAMES,
    SplitSpec,
    TrainConfig,
    history_to_csv,
    score_records,
    split_indices,
    train_model,
)

CHECKPOINT_FILENAME = "checkpoint.nsck"
HISTORY_FILENAME = "history.csv"
METRICS_FILENAME = "metrics.json"
RESULTS_TABLE_FILENAME = "results_table.txt"
RESULTS_CSV_FILENAME = "results.csv"
MANIFEST_FILENAME = "manifest.json"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run; unknown keys in a config file are rejected."""

    data_path: str = ""
    output_dir: str = ""
    model_names: tuple[str, ...] = zoo.ZOO_NAMES
    seq_len: int = 2000
    vocab_size: int = 100_000
    pad: str = "post"
    stoplist: str | None = None
    embedding_dim: int = zoo.DEFAULT_EMBEDDING_DIM
    hidden_units: int = zoo.DEFAULT_HIDDEN_UNITS
    dense_hidden_units: int = zoo.DEFAULT_DENSE_HIDDEN_UNITS
    train: TrainConfig = field(default_factory=TrainConfig)
    split: SplitSpec = field(default_factory=SplitSpec)

    def __post_init__(self):
        if not self.model_names:
            raise DataError("model_names must not be empty")
        unknown = [n for n in self.model_names if n not in zoo.ZOO_NAMES]
        if unknown:
            raise DataError(
                f"unknown model names {unknown}; zoo models are {list(zoo.ZOO_NAMES)}"
            )
        repeated = list(dict.fromkeys(n for n in self.model_names if self.model_names.count(n) > 1))
        if repeated:
            raise DataError(f"model names {repeated} are listed more than once")
        # vocab_size counts the reserved padding and OOV ids.
        for name, least in (("seq_len", 1), ("vocab_size", 2), ("embedding_dim", 1),
                            ("hidden_units", 1), ("dense_hidden_units", 1)):
            if getattr(self, name) < least:
                raise DataError(f"{name} must be at least {least}, got {getattr(self, name)!r}")
        if self.pad not in ("pre", "post"):
            raise DataError(f"pad must be 'pre' or 'post', got {self.pad!r}")


_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))
_SPLIT_KEYS = tuple(f.name for f in fields(SplitSpec))
_TOP_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name not in ("train", "split"))
CONFIG_KEYS = frozenset(_TOP_KEYS + _TRAIN_KEYS + _SPLIT_KEYS)

# JSON types accepted per field annotation (a string: these modules use
# postponed annotations). An int may stand for a float; no field is a bool,
# and a bool is never accepted for a number.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str,
               "str | None": (str, type(None)), "tuple[str, ...]": (list, tuple)}
_FIELD_TYPES = {f.name: f.type for cls in (TrainConfig, SplitSpec, ExperimentConfig)
                for f in fields(cls)}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a flat key-value mapping (the config file schema).

    ``seed`` seeds both training and the split so one number pins a run.
    Unknown keys, values of the wrong JSON type and out-of-range values all
    raise ``DataError`` naming the key.
    """
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise DataError(f"unknown config keys {sorted(unknown)}")
    for key, value in data.items():
        annotation = _FIELD_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[annotation]):
            raise DataError(f"config key {key!r} must be {annotation}, got {value!r}")
    top = {k: data[k] for k in _TOP_KEYS if k in data}
    if "model_names" in top:
        top["model_names"] = tuple(top["model_names"])
    try:
        return ExperimentConfig(
            train=TrainConfig(**{k: data[k] for k in _TRAIN_KEYS if k in data}),
            split=SplitSpec(**{k: data[k] for k in _SPLIT_KEYS if k in data}),
            **top,
        )
    except (TypeError, ValueError) as exc:
        raise DataError(f"invalid config: {exc}") from exc


def read_config_file(path: str | Path) -> dict:
    """The JSON object in a config file, unvalidated."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise DataError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path}: config must be a JSON object")
    return data


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_config_file(path))


def make_output_dir(path: str | Path) -> Path:
    """Create the directory ``path`` and its parents unless they exist.

    A file standing where a directory must be is a ``DataError`` naming the
    path, not an ``OSError`` escaping the CLI.
    """
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise DataError(f"cannot create output directory {str(out)!r}: {exc.strerror}") from exc
    return out


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as sorted, indented JSON through ``write_atomic``."""
    dataset_io.write_atomic(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


def read_dataset_dir(path: str | Path) -> tuple[dataset_io.EncodedDataset, str]:
    """The encoded dataset in a ``preprocess`` output directory and the
    fingerprint of its vocabulary sidecar.

    The sidecar is read once: its bytes are validated by
    ``read_vocab_sidecar`` and hashed by ``vocab_fingerprint``. A sidecar
    whose size differs from the ``.nseq`` header's vocabulary size belongs
    to another vocabulary and raises ``DataError``.
    """
    data_dir = Path(path)
    dataset = dataset_io.read_encoded_dataset(data_dir / dataset_io.ENCODED_FILENAME)
    vocab_path = data_dir / dataset_io.VOCAB_FILENAME
    try:
        raw = vocab_path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read vocabulary sidecar {vocab_path}: {exc}") from exc
    vocab = dataset_io.read_vocab_sidecar(vocab_path, raw)
    if vocab.size != dataset.vocab_size:
        raise DataError(f"{vocab_path} holds {vocab.size} entries, but the encoded "
                        f"dataset's vocabulary size is {dataset.vocab_size}")
    return dataset, dataset_io.vocab_fingerprint(vocab_path, raw)


def train_and_save(name: str, config: ExperimentConfig, dataset: dataset_io.EncodedDataset,
                   fingerprint: str, model_dir: str | Path,
                   test_idx: np.ndarray | None = None):
    """Train zoo model ``name`` and write its checkpoint and history into
    ``model_dir``; with ``test_idx``, also score the trained model on those
    records and write its metrics. Returns ``(spec, history, report)``, the
    report ``None`` without ``test_idx``.

    The directory is created, or rejected with a ``DataError``, before
    training starts, so an unusable output path costs no training time. If
    training or writing fails, the artifact names this call would have
    written are unlinked (never a recursive delete), and a directory this
    call created is removed again when it is then empty.
    """
    spec = zoo.build_spec(name, embedding_dim=config.embedding_dim,
                          hidden_units=config.hidden_units,
                          dense_hidden_units=config.dense_hidden_units)
    artifacts = [CHECKPOINT_FILENAME, HISTORY_FILENAME]
    if test_idx is not None:
        artifacts.append(METRICS_FILENAME)
    created = not Path(model_dir).exists()
    model_dir = make_output_dir(model_dir)
    report = None
    try:
        params, history = train_model(spec, dataset, config.train, config.split)
        save_checkpoint(params, spec, fingerprint, model_dir / CHECKPOINT_FILENAME)
        dataset_io.write_atomic(model_dir / HISTORY_FILENAME, history_to_csv(history).encode())
        if test_idx is not None:
            report = evaluate_on(spec, params, dataset, test_idx)
            write_json(model_dir / METRICS_FILENAME, report.to_dict())
    except BaseException:
        # OSError: an artifact name may be a directory, which unlink refuses.
        for artifact in artifacts:
            with contextlib.suppress(OSError):
                (model_dir / artifact).unlink(missing_ok=True)
        if created:
            with contextlib.suppress(OSError):  # rmdir removes only an empty directory
                model_dir.rmdir()
        raise
    return spec, history, report


def evaluate_on(spec, params, dataset, indices) -> MetricsReport:
    """The metrics report of the model over the records at ``indices``."""
    idx = np.asarray(indices)
    preds, _ = score_records(spec, params, dataset, idx)
    return compute_metrics(confusion_matrix(preds, dataset.labels[idx]))


def run_experiment(config: ExperimentConfig) -> dict:
    """Train, evaluate, and serialize every selected model; returns the
    manifest that was also written to the output directory.

    The dataset is read and its validation and test splits checked before
    the output directory is created, so a run that cannot validate or
    evaluate trains nothing. The manifest, results table and CSV of an
    earlier run in the same directory are removed before the first model
    trains, so a run that stops part-way leaves no listing of files it has
    replaced or removed, and the directory's results are this run's.
    """
    dataset, fingerprint = read_dataset_dir(config.data_path)
    split_indices(len(dataset), config.split, "validation")
    test_idx = split_indices(len(dataset), config.split, "test")
    out_dir = make_output_dir(config.output_dir)
    for stale in (MANIFEST_FILENAME, RESULTS_TABLE_FILENAME, RESULTS_CSV_FILENAME):
        with contextlib.suppress(OSError):  # a directory may stand at the name
            (out_dir / stale).unlink(missing_ok=True)

    def run_one(name: str) -> dict:
        try:
            _, _, report = train_and_save(name, config, dataset, fingerprint, out_dir / name,
                                          test_idx)
        except NumericError as exc:
            return {"name": name, "status": "failed", "error": str(exc)}
        return {
            "name": name,
            "status": "ok",
            "report": report,
            "files": [
                f"{name}/{CHECKPOINT_FILENAME}",
                f"{name}/{HISTORY_FILENAME}",
                f"{name}/{METRICS_FILENAME}",
            ],
        }

    outcomes = [run_one(name) for name in config.model_names]

    succeeded = [o for o in outcomes if o["status"] == "ok"]
    written: list[str] = [f for o in succeeded for f in o["files"]]
    if succeeded:
        table_text, csv_text = render_results_table([(o["name"], o["report"]) for o in succeeded])
        dataset_io.write_atomic(out_dir / RESULTS_TABLE_FILENAME, table_text.encode("utf-8"))
        dataset_io.write_atomic(out_dir / RESULTS_CSV_FILENAME, csv_text.encode("utf-8"))
        written += [RESULTS_TABLE_FILENAME, RESULTS_CSV_FILENAME]

    manifest = {
        "config": {
            "model_names": list(config.model_names),
            "seed": config.train.seed,
            "epochs": config.train.epochs,
            "batch_size": config.train.batch_size,
            "learning_rate": config.train.learning_rate,
        },
        "vocab_fingerprint": fingerprint,
        "models": {
            o["name"]: (
                {"status": "ok"}
                if o["status"] == "ok"
                else {"status": "failed", "error": o["error"]}
            )
            for o in outcomes
        },
        "files": {
            rel: hashlib.sha256((out_dir / rel).read_bytes()).hexdigest()
            for rel in sorted(written)
        },
    }
    write_json(out_dir / MANIFEST_FILENAME, manifest)
    return manifest
