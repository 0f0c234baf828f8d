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

``ExperimentConfig`` holds only run settings, the ten keys of
``CONFIG_KEYS``; file paths are arguments. ``train_and_save`` is the one path
that trains a model and writes its checkpoint and history into ``model_dir``
(and, for ``compare``, its test metrics): ``run_experiment(config, data_dir,
out_dir)`` calls it per model, and the ``train`` subcommand calls it once.
When training or writing fails it removes the artifact names it would have
written. Every artifact is written through ``dataset_io.write_atomic``
(JSON through ``write_json``), so an interrupted run leaves each file whole
or absent.

The split is the paper's fixed 80/20 + 10% protocol (``training.SplitSpec``),
seeded by the run's one ``seed``: ``ExperimentConfig.split`` derives it.
``split_indices`` (from ``training``) is the one lookup from a split name to
its record indices; it refuses a dataset too small to split.
``evaluate_on`` is the one scoring path of ``evaluate`` and ``compare``.

``run_experiment`` reads and splits the dataset once and runs each model
as one ``_model_job`` of that prepared run. ``_outcomes`` is the one job
path: with more than one usable CPU and model it runs the jobs in
``_worker_count`` spawned worker processes with one BLAS thread each, which
take the prepared run from the parent and never read the data directory,
else in this process. Either way it yields the outcomes in config order, so
the artifacts do not depend on the number of workers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
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
    """The settings of one experiment run; unknown keys in a config file are
    rejected. File paths are not settings: they reach ``run_experiment`` and
    ``train_and_save`` as arguments."""

    model_names: tuple[str, ...] = zoo.ZOO_NAMES
    seq_len: int = text_pipeline.DEFAULT_SEQUENCE_LENGTH
    vocab_size: int = text_pipeline.DEFAULT_VOCAB_SIZE
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
        if self.seq_len > dataset_io.MAX_SEQ_LEN:
            raise DataError(f"seq_len must be at most {dataset_io.MAX_SEQ_LEN} (the .nseq "
                            f"header's uint32), got {self.seq_len!r}")

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
_JSON_TYPES = {"int": int, "float": (int, float), "tuple[str, ...]": (list, tuple)}
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
    except (OSError, RecursionError, ValueError) as exc:  # bad UTF-8 or JSON, too deep
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
        _discard(model_dir, artifacts, created)
        raise
    return spec, history, report


def _discard(model_dir: Path, artifacts, created: bool) -> None:
    """Unlink ``artifacts`` in ``model_dir`` (never a recursive delete), and
    the directory too when ``created`` and it is then empty."""
    for artifact in artifacts:
        with contextlib.suppress(OSError):
            (model_dir / artifact).unlink(missing_ok=True)
    if created:
        with contextlib.suppress(OSError):  # rmdir removes only an empty directory
            model_dir.rmdir()


def evaluate_on(spec, params, dataset, indices) -> MetricsReport:
    """The metrics report of the model over the records at ``indices``."""
    idx = np.asarray(indices)
    preds, _ = score_records(spec, params, dataset, idx)
    return compute_metrics(confusion_matrix(preds, dataset.labels[idx]))


# A worker process's run, set once by ``_start_worker``: (config, dataset,
# fingerprint, test indices, out_dir), as the parent prepared it.
_worker_run = None


def _worker_count(n_models: int) -> int:
    """The processes a run of ``n_models`` trains in: one per usable CPU, at
    most one per model."""
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), n_models)
    return min(os.cpu_count() or 1, n_models)


def _start_worker(run: tuple, numpy_errors: dict) -> None:
    """Initializer of a worker process: the parent's numpy error handling
    and its prepared run."""
    global _worker_run
    np.seterr(**numpy_errors)
    _worker_run = run


def _model_job(name: str, run=None) -> tuple[dict, MetricsReport | None]:
    """Train, save and score model ``name`` of ``run`` (a worker passes none
    and takes the parent's): its manifest entry and its report, the report
    ``None`` when a ``NumericError`` failed the model."""
    config, dataset, fingerprint, test_idx, out_dir = _worker_run if run is None else run
    try:
        _, _, report = train_and_save(name, config, dataset, fingerprint, out_dir / name,
                                      test_idx)
    except NumericError as exc:
        return {"status": "failed", "error": str(exc)}, None
    return {"status": "ok"}, report


def _outcomes(names, run: tuple):
    """``(name, _model_job(name, run))`` of each model in config order.

    When ``_worker_count`` gives more than one, the models train in that
    many spawned processes with one BLAS thread each, which take ``run`` and
    numpy's error handling from this process; else here, one after another.
    Closing the generator early, or an error in a job, cancels the jobs not
    yet started and waits for the running ones, so no worker outlives it.
    """
    workers = _worker_count(len(names))
    if workers == 1:
        for name in names:
            yield name, _model_job(name, run)
        return

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import resource_tracker

    # The pool's queues start multiprocessing's resource tracker, a process
    # that would outlive the run; it is stopped with the pool unless it
    # already ran.
    tracker = resource_tracker._resource_tracker
    started_tracker = tracker._fd is None
    try:
        with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn"),
                                 _start_worker, (run, np.geterr())) as pool:
            # Workers start inside submit; OpenBLAS reads this as numpy loads in them.
            threads = os.environ.get("OPENBLAS_NUM_THREADS")
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
            try:
                futures = [pool.submit(_model_job, name) for name in names]
            finally:
                if threads is None:
                    del os.environ["OPENBLAS_NUM_THREADS"]
                else:
                    os.environ["OPENBLAS_NUM_THREADS"] = threads
            try:
                for name, future in zip(names, futures):
                    yield name, future.result()
            finally:
                pool.shutdown(cancel_futures=True)
    finally:
        if started_tracker:
            tracker._stop()


def run_experiment(config: ExperimentConfig, data_dir: str | Path, out_dir: str | Path) -> dict:
    """Train, evaluate, and serialize every selected model on the
    ``preprocess`` output in ``data_dir``; returns the manifest that was also
    written to ``out_dir``.

    The dataset is read and split (a dataset too small to split is refused
    here), and then every output name of the run is claimed
    (``claim_outputs``): the manifest, results table and CSV, and each
    selected model's checkpoint, history and metrics. So a run that cannot
    validate, evaluate or write trains nothing, and a run that stops
    part-way keeps none of an earlier run's files of the models it selected
    and no listing of them.

    Each model is one ``_model_job`` of this prepared run, and
    ``_outcomes`` yields their manifest entries and reports in config order,
    whether the jobs ran here or in worker processes that took the run from
    this one. So ``data_dir`` is read once, and every artifact is
    byte-identical to a one-process run. An error other than a
    ``NumericError`` stops the run: the running jobs finish, and the
    artifacts of the failing model and of every later one are removed, as a
    one-process run would never have written them.
    """
    dataset, fingerprint = read_dataset_dir(data_dir)
    test_idx = split_indices(len(dataset), config.split, "test")
    names = config.model_names
    model_files = [f"{name}/{artifact}" for name in names for artifact in MODEL_ARTIFACTS]
    out_dir, _ = claim_outputs(out_dir, [
        MANIFEST_FILENAME, RESULTS_TABLE_FILENAME, RESULTS_CSV_FILENAME, *model_files])
    fresh = {name for name in names if not (out_dir / name).is_dir()}

    outcomes = _outcomes(names, (config, dataset, fingerprint, test_idx, out_dir))
    models: dict[str, dict] = {}
    reports: list[tuple[str, MetricsReport]] = []
    try:
        for name, (entry, report) in outcomes:
            models[name] = entry
            if report is not None:
                reports.append((name, report))
    except BaseException:
        outcomes.close()
        for name in names[len(models):]:
            _discard(out_dir / name, MODEL_ARTIFACTS, name in fresh)
        raise

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
