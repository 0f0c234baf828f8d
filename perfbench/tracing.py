"""Span tracing for the traced run, done entirely from outside the package.

``Tracer.install`` swaps every module attribute in ``narrative_seq`` that
names a traced function for a timing wrapper: the names one module imported
from another (``training.model_forward``, ``harness.save_checkpoint``,
``neural_layers.matmul``, ...) and the defining module's own name, which is
what calls inside that module resolve. ``Tracer.uninstall`` puts the
originals back. No program source is edited.

Each wrapper records one span: name id, start, end and the id of the
enclosing span (-1 at the root). Spans live in flat typed arrays while the
run goes on and are written to one ``.npz`` file when it ends. A span's self
time is its duration minus the durations of its direct children; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import array
import dataclasses
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Forward and backward time is broken out per zoo model. All ten run on
# pipeline_desk; train_paper and eval_paper run a subset and report 0 for the
# rest.
from narrative_seq.zoo import ZOO_NAMES


def _spec_name(index: int):
    def name_of(args, kwargs):
        spec = args[index] if len(args) > index else kwargs["spec"]
        return spec.name
    return name_of


def _path_arg(index: int, keyword: str):
    def path_of(args, kwargs):
        return args[index] if len(args) > index else kwargs[keyword]
    return path_of


def _owned_nbytes(obj) -> int:
    """Bytes held by the arrays reachable from ``obj``, each buffer once.

    Views (the next layer's input is a slice of this layer's states, the
    reverse direction reads ``x[:, ::-1]``) are charged to the array that
    owns the buffer, so shared memory is not counted twice.
    """
    owners: dict[int, int] = {}

    def visit(value):
        if isinstance(value, np.ndarray):
            base = value
            while isinstance(base.base, np.ndarray):
                base = base.base
            owners[id(base)] = base.nbytes
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                visit(getattr(value, f.name))
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)
        elif isinstance(value, dict):
            for item in value.values():
                visit(item)

    visit(obj)
    return sum(owners.values())


def _after_matmul(counters, args, kwargs, result):
    (m, k), (_, n) = args[0].shape, args[1].shape
    counters["tensor_core.matmul.gflop"] += 2.0 * m * k * n / 1e9


def _after_model_forward(counters, args, kwargs, result):
    mb = _owned_nbytes(result[1]) / 1e6
    key = "neural_layers.forward_cache_mb"
    counters[key] = max(counters[key], mb)


def _file_mb(path_of, key):
    def after(counters, args, kwargs, result):
        counters[key] += os.path.getsize(path_of(args, kwargs)) / 1e6
    return after


def _after_process_narrative(counters, args, kwargs, result):
    counters["text_pipeline.preprocess_corpus.tokens"] += len(result)


def _after_load_reports(counters, args, kwargs, result):
    counters["corpus_ingest.load_reports.rows"] += len(result.records) + len(result.warnings)
    counters["corpus_ingest.load_reports.rejected"] += len(result.warnings)


# (defining module, function, span name, per-call name suffix, after-hook)
TARGETS = (
    ("tensor_core", "matmul", "tensor_core.matmul", None, _after_matmul),
    ("tensor_core", "sigmoid", "tensor_core.sigmoid", None, None),
    ("neural_layers", "embedding_forward", "neural_layers.embedding_forward", None, None),
    ("neural_layers", "model_forward", "neural_layers.model_forward",
     _spec_name(1), _after_model_forward),
    ("neural_layers", "model_backward", "neural_layers.model_backward",
     _spec_name(2), None),
    ("training", "train_model", "training.train_model", None, None),
    ("training", "evaluate_model", "training.evaluate_model", None, None),
    ("training", "clip_gradients", "training.clip_gradients", None, None),
    ("training", "adam_update", "training.adam_update", None, None),
    ("harness", "run_experiment", "harness.run_experiment", None, None),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", None,
     _file_mb(_path_arg(3, "path"), "checkpoint.save_checkpoint.mb")),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", None, None),
    ("evaluation", "compute_metrics", "evaluation.compute_metrics", None, None),
    ("dataset_io", "read_encoded_dataset", "dataset_io.read_encoded_dataset", None,
     _file_mb(_path_arg(0, "path"), "dataset_io.read_encoded_dataset.mb")),
    ("dataset_io", "write_encoded_dataset", "dataset_io.write_encoded_dataset", None, None),
    ("dataset_io", "vocab_fingerprint", "dataset_io.vocab_fingerprint", None, None),
    ("text_pipeline", "preprocess_corpus", "text_pipeline.preprocess_corpus", None, None),
    ("text_pipeline", "process_narrative", "text_pipeline.process_narrative", None,
     _after_process_narrative),
    ("corpus_ingest", "load_reports", "corpus_ingest.load_reports", None,
     _after_load_reports),
    ("cli", "main", "cli.main", None, None),
)

# Per-layer metric names in report order, with their units.
PER_LAYER_UNITS: dict[str, str] = {
    "tensor_core.matmul.calls": "count",
    "tensor_core.matmul.busy_s": "s",
    "tensor_core.matmul.gflop": "GFLOP",
    "tensor_core.sigmoid.calls": "count",
    "tensor_core.sigmoid.busy_s": "s",
    **{f"neural_layers.model_forward.{m}.busy_s": "s" for m in ZOO_NAMES},
    **{f"neural_layers.model_backward.{m}.busy_s": "s" for m in ZOO_NAMES},
    "neural_layers.model_forward.self_s": "s",
    "neural_layers.model_backward.self_s": "s",
    "neural_layers.embedding_forward.busy_s": "s",
    "neural_layers.forward_cache_mb": "MB",
    "training.train_model.self_s": "s",
    "training.evaluate_model.busy_s": "s",
    "training.clip_gradients.busy_s": "s",
    "training.adam_update.busy_s": "s",
    "training.adam_update.calls": "count",
    "harness.run_experiment.self_s": "s",
    "checkpoint.save_checkpoint.busy_s": "s",
    "checkpoint.save_checkpoint.mb": "MB",
    "evaluation.compute_metrics.busy_s": "s",
    "checkpoint.load_checkpoint.busy_s": "s",
    "dataset_io.read_encoded_dataset.busy_s": "s",
    "dataset_io.read_encoded_dataset.mb": "MB",
    "dataset_io.vocab_fingerprint.busy_s": "s",
    "dataset_io.write_encoded_dataset.busy_s": "s",
    "text_pipeline.preprocess_corpus.busy_s": "s",
    "text_pipeline.preprocess_corpus.tokens": "count",
    "corpus_ingest.load_reports.busy_s": "s",
    "corpus_ingest.load_reports.rejected_ratio": "ratio",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records spans from the wrappers it installs; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, span_name, name_of, after):
        clock = time.perf_counter
        stack, counters = self._stack, self.counters
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        fixed_nid = self._nid(span_name) if name_of is None else None

        def wrapper(*args, **kwargs):
            nid = fixed_nid
            if nid is None:
                nid = self._nid(f"{span_name}.{name_of(args, kwargs)}")
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package: str = "narrative_seq") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name, span_name, name_of, after in TARGETS:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name, name_of, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays())

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric; layers the traced iteration never reached
        read 0. ``trace.overhead_ratio`` is left at 0 for the caller, which
        also times the untraced iterations.

        A metric named ``<span>.busy_s``, ``<span>.self_s`` or ``<span>.calls``
        sums that statistic over the span and its per-model children
        (``<span>.<model>``); every other metric is a counter of the same name.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        tables = {
            "busy_s": np.bincount(a["name_id"], weights=dur, minlength=n_names),
            "self_s": np.bincount(a["name_id"], weights=dur - child, minlength=n_names),
            "calls": np.bincount(a["name_id"], minlength=n_names),
        }

        def total(table, span):
            return float(sum(table[i] for i, n in enumerate(self.names)
                             if n == span or n.startswith(span + ".")))

        out = {}
        for name in PER_LAYER_UNITS:
            span, _, stat = name.rpartition(".")
            out[name] = total(tables[stat], span) if stat in tables else self.counters[name]
        rows = self.counters["corpus_ingest.load_reports.rows"]
        out["corpus_ingest.load_reports.rejected_ratio"] = (
            self.counters["corpus_ingest.load_reports.rejected"] / rows if rows else 0.0)
        return out
