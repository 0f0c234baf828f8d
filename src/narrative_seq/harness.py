"""Config-driven experiment orchestration: train and evaluate a set of zoo
models on one preprocessed dataset, then emit the combined artifacts.

Every model in a run shares the same seeded split, so comparisons are
paired. A model that aborts on non-finite loss is recorded as failed
without stopping the others. All artifacts are content-deterministic
(no timestamps), so identical configs produce byte-identical outputs;
the manifest lists every written file with its SHA-256.

``claim_outputs`` is the one owner of a command's output names: before any
work starts it creates the output directory and unlinks whatever an earlier
run left at each name the command may write, and it turns a directory
standing at a name, a file standing where the directory must be or a
permission error into a ``DataError``. So an unusable output path fails
before any training, scoring or preprocessing, and a command that stops
part-way keeps none of an earlier run's files at its names.

``train_and_save`` is the one path that trains a model and writes its
checkpoint and history (and, for ``compare``, its test metrics):
``run_experiment`` calls it per model, and the ``train`` subcommand calls it
once. When training or writing fails it removes the artifact names it would
have written. Every artifact is written through ``dataset_io.write_atomic``
(JSON through ``write_json``), so an interrupted run leaves each file whole
or absent.

The split is the paper's fixed 80/20 + 10% protocol (``training.SplitSpec``),
seeded by the run's one ``seed``: ``ExperimentConfig.split`` derives it.
``split_indices`` (from ``training``) is the one lookup from a split name to
its record indices; it refuses a dataset too small to split.
``evaluate_on`` is the one scoring path of ``evaluate`` and ``compare``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dataset_io, text_pipeline, zoo
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
# What train_and_save writes into a model directory; metrics only with a test split.
MODEL_ARTIFACTS = (CHECKPOINT_FILENAME, HISTORY_FILENAME, METRICS_FILENAME)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run; unknown keys in a config file are rejected."""

    data_path: str = ""
    output_dir: str = ""
    model_names: tuple[str, ...] = zoo.ZOO_NAMES
    seq_len: int = text_pipeline.DEFAULT_SEQUENCE_LENGTH
    vocab_size: int = text_pipeline.DEFAULT_VOCAB_SIZE
    pad: str = "post"
    stoplist: str | None = None
    embedding_dim: int = zoo.DEFAULT_EMBEDDING_DIM
    hidden_units: int = zoo.DEFAULT_HIDDEN_UNITS
    dense_hidden_units: int = zoo.DEFAULT_DENSE_HIDDEN_UNITS
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not self.model_names:
            raise DataError("model_names must not be empty")
        for name in self.model_names:  # zoo's one name rule, as `train --model` meets it
            zoo.build_spec(name)
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

    @property
    def split(self) -> SplitSpec:
        """The paper's split, seeded like training so one ``seed`` pins a run."""
        return SplitSpec(seed=self.train.seed)


_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))
_TOP_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "train")
CONFIG_KEYS = frozenset(_TOP_KEYS + _TRAIN_KEYS)

# JSON types accepted per field annotation (a string: these modules use
# postponed annotations). An int may stand for a float; no field is a bool,
# and a bool is never accepted for a number.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str,
               "str | None": (str, type(None)), "tuple[str, ...]": (list, tuple)}
_FIELD_TYPES = {f.name: f.type for cls in (TrainConfig, ExperimentConfig) for f in fields(cls)}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a flat key-value mapping (the config file schema).

    ``seed`` seeds both training and the split (``ExperimentConfig.split``)
    so one number pins a run.
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
            train=TrainConfig(**{k: data[k] for k in _TRAIN_KEYS if k in data}), **top,
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


def claim_outputs(directory: str | Path, names) -> tuple[Path, bool]:
    """Create ``directory`` (and its parents) and unlink any file an earlier
    run left at each of ``names`` (paths relative to it); returns the
    directory and whether this call created it.

    This is the one place that decides what a command may leave in its
    output directory, and every command calls it before any work starts. A
    directory standing at a name, a file standing where the directory must
    be, or a permission error is a ``DataError`` naming the path.
    """
    out = Path(directory)
    created = not out.is_dir()
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in names:
            (out / name).unlink(missing_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {exc.filename!r}: {exc.strerror}") from exc
    return out, created


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

    The artifact names are claimed (``claim_outputs``) before training
    starts, so an unusable output path costs no training time. If training
    or writing fails, the artifact names are unlinked again (never a
    recursive delete), and a directory this call created is removed again
    when it is then empty.
    """
    spec = zoo.build_spec(name, embedding_dim=config.embedding_dim,
                          hidden_units=config.hidden_units,
                          dense_hidden_units=config.dense_hidden_units)
    artifacts = MODEL_ARTIFACTS if test_idx is not None else MODEL_ARTIFACTS[:2]
    model_dir, created = claim_outputs(model_dir, artifacts)
    report = None
    try:
        params, history = train_model(spec, dataset, config.train, config.split)
        save_checkpoint(params, spec, fingerprint, model_dir / CHECKPOINT_FILENAME)
        dataset_io.write_atomic(model_dir / HISTORY_FILENAME, history_to_csv(history).encode())
        if test_idx is not None:
            report = evaluate_on(spec, params, dataset, test_idx)
            write_json(model_dir / METRICS_FILENAME, report.to_dict())
    except BaseException:
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

    The dataset is read and split (a dataset too small to split is refused
    here), and then every output name of the run is claimed
    (``claim_outputs``): the manifest, results table and CSV, and each
    selected model's checkpoint, history and metrics. So a run that cannot
    validate, evaluate or write trains nothing, and a run that stops
    part-way keeps none of an earlier run's files of the models it selected
    and no listing of them.
    """
    dataset, fingerprint = read_dataset_dir(config.data_path)
    test_idx = split_indices(len(dataset), config.split, "test")
    model_files = [f"{name}/{artifact}" for name in config.model_names
                   for artifact in MODEL_ARTIFACTS]
    out_dir, _ = claim_outputs(config.output_dir, [
        MANIFEST_FILENAME, RESULTS_TABLE_FILENAME, RESULTS_CSV_FILENAME, *model_files])

    models: dict[str, dict] = {}
    reports: list[tuple[str, MetricsReport]] = []
    for name in config.model_names:
        try:
            _, _, report = train_and_save(name, config, dataset, fingerprint, out_dir / name,
                                          test_idx)
        except NumericError as exc:
            models[name] = {"status": "failed", "error": str(exc)}
            continue
        models[name] = {"status": "ok"}
        reports.append((name, report))

    written = [f"{name}/{artifact}" for name, _ in reports for artifact in MODEL_ARTIFACTS]
    if reports:
        table_text, csv_text = render_results_table(reports)
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
        "models": models,
        "files": {
            rel: hashlib.sha256((out_dir / rel).read_bytes()).hexdigest()
            for rel in sorted(written)
        },
    }
    write_json(out_dir / MANIFEST_FILENAME, manifest)
    return manifest
