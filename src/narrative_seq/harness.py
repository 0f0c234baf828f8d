"""Config-driven experiment orchestration: train and evaluate a set of zoo
models on one preprocessed dataset, then emit the combined artifacts.

Every model in a run shares the same seeded split, so comparisons are
paired. A model that aborts on non-finite loss is recorded as failed
without stopping the others. All artifacts are content-deterministic
(no timestamps), so identical configs produce byte-identical outputs;
the manifest lists every written file with its SHA-256.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dataset_io, zoo
from .corpus_ingest import ClassDistribution, DamageLabel
from .checkpoint import save_checkpoint
from .errors import DataError, NumericError
from .evaluation import (
    compute_metrics,
    confusion_matrix,
    majority_baseline,
    metrics_to_dict,
    render_results_table,
)
from .training import (
    SplitSpec,
    TrainConfig,
    history_to_csv,
    score_records,
    split_dataset,
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
# postponed annotations). An int may stand for a float; a bool is not a number.
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
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
        if (isinstance(value, bool) != (annotation == "bool")
                or not isinstance(value, _JSON_TYPES[annotation])):
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


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _evaluate_on(spec, params, dataset, indices, batch_size: int):
    """Confusion matrix and both-mode reports over the given indices."""
    idx = np.asarray(indices)
    labels = dataset.labels[idx].astype(np.int64)
    preds, _ = score_records(spec, params, dataset, idx, batch_size)
    cm = confusion_matrix(preds, labels)
    weighted = compute_metrics(cm, "weighted")
    macro = compute_metrics(cm, "macro")
    counts = {label: int(np.sum(labels == int(label))) for label in DamageLabel}
    baseline = majority_baseline(ClassDistribution(counts=counts, total=idx.size))
    return cm, weighted, macro, baseline


def run_experiment(config: ExperimentConfig) -> dict:
    """Train, evaluate, and serialize every selected model; returns the
    manifest that was also written to the output directory."""
    data_dir = Path(config.data_path)
    out_dir = make_output_dir(config.output_dir)
    dataset = dataset_io.read_encoded_dataset(data_dir / dataset_io.ENCODED_FILENAME)
    fingerprint = dataset_io.vocab_fingerprint(data_dir / dataset_io.VOCAB_FILENAME)
    _, _, test_idx = split_dataset(len(dataset), config.split)

    def run_one(name: str) -> dict:
        spec = zoo.build_spec(
            name,
            embedding_dim=config.embedding_dim,
            hidden_units=config.hidden_units,
            dense_hidden_units=config.dense_hidden_units,
        )
        model_dir = make_output_dir(out_dir / name)
        try:
            params, history = train_model(spec, dataset, config.train, config.split)
        except NumericError as exc:
            return {"name": name, "status": "failed", "error": str(exc)}
        cm, weighted, macro, baseline = _evaluate_on(
            spec, params, dataset, test_idx, config.train.batch_size
        )
        save_checkpoint(params, spec, fingerprint, model_dir / CHECKPOINT_FILENAME)
        (model_dir / HISTORY_FILENAME).write_text(
            history_to_csv(history), encoding="utf-8"
        )
        (model_dir / METRICS_FILENAME).write_text(
            _dump_json(metrics_to_dict(weighted, macro, cm, baseline)),
            encoding="utf-8",
        )
        return {
            "name": name,
            "status": "ok",
            "weighted": weighted,
            "macro": macro,
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
        table_text, _ = render_results_table(
            [(o["name"], o["weighted"]) for o in succeeded]
        )
        _, csv_text = render_results_table(
            [(o["name"], o["weighted"]) for o in succeeded]
            + [(o["name"], o["macro"]) for o in succeeded]
        )
        (out_dir / RESULTS_TABLE_FILENAME).write_text(table_text, encoding="utf-8")
        (out_dir / RESULTS_CSV_FILENAME).write_text(csv_text, encoding="utf-8")
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
    (out_dir / MANIFEST_FILENAME).write_text(_dump_json(manifest), encoding="utf-8")
    return manifest
