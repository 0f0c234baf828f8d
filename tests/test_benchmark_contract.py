"""The package names the benchmark under ``perfbench/`` relies on.

``perfbench/tracing.py`` wraps the functions in its ``TARGETS`` by module
and name, and ``perfbench/workloads.py`` calls the package directly. Both
are read here as they stand, never edited, so a rename that would break a
benchmark run or its ``--trace 1`` mode fails these tests instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from narrative_seq import training
from narrative_seq.dataset_io import EncodedDataset
from narrative_seq.text_pipeline import Vocabulary
from narrative_seq.zoo import build_spec

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    """``perfbench/<name>.py`` as a module, registered in ``sys.modules`` (its
    dataclasses resolve their annotations there)."""
    module_name = f"perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


@pytest.fixture(scope="module")
def tracing():
    module = _load("tracing")
    # Tracer.install looks each target up in sys.modules, so every target
    # module must be imported first; perfbench/run.py imports them all
    # through workloads.py.
    for mod_name, *_ in module.TARGETS:
        importlib.import_module(f"narrative_seq.{mod_name}")
    return module


def test_workloads_module_imports():
    # Every package name perfbench/workloads.py imports still exists.
    assert _load("workloads").TRAIN_MODELS


def test_every_target_exists(tracing):
    for mod_name, fn_name, *_ in tracing.TARGETS:
        assert callable(getattr(sys.modules[f"narrative_seq.{mod_name}"], fn_name))


def test_tracer_spans_a_training_run_and_uninstalls(tracing):
    originals = {(mod_name, fn_name): getattr(sys.modules[f"narrative_seq.{mod_name}"], fn_name)
                 for mod_name, fn_name, *_ in tracing.TARGETS}
    rng = np.random.default_rng(3)
    dataset = EncodedDataset(sequences=rng.integers(1, 30, size=(24, 6)).astype(np.uint32),
                             labels=rng.integers(0, 4, size=24).astype(np.uint8), vocab_size=30)
    spec = build_spec("GRU", embedding_dim=4, hidden_units=4, dense_hidden_units=4)
    tracer = tracing.Tracer()
    with tracer:
        # Called through the module, as the workloads call it.
        training.train_model(spec, dataset, training.TrainConfig(epochs=1, batch_size=8),
                             training.SplitSpec(seed=1))
    for (mod_name, fn_name), original in originals.items():
        assert getattr(sys.modules[f"narrative_seq.{mod_name}"], fn_name) is original
    assert training.train_model is originals[("training", "train_model")]

    spans = tracer.arrays()
    duration = spans["end"] - spans["start"]
    busy = {name: float(duration[spans["name_id"] == i].sum())
            for i, name in enumerate(tracer.names)}
    for name in ("training.train_model", f"neural_layers.model_forward.{spec.name}",
                 "training.evaluate_model", "training.adam_update"):
        assert busy.get(name, 0.0) > 0.0, name
    per_layer = tracer.per_layer()
    # 24 records split 18/2/4: training batches of 8, 8 and 2.
    assert per_layer["training.adam_update.calls"] == 3
    assert per_layer[f"neural_layers.model_forward.{spec.name}.busy_s"] > 0.0


def test_package_calls_the_workloads_make():
    split = training.SplitSpec(seed=4)
    assert split.seed == 4
    assert training.SplitSpec().test_fraction == 0.2
    assert training.SplitSpec().validation_fraction_of_train == 0.1
    assert [part.size for part in training.split_dataset(45, split)] == [33, 3, 9]
    tokens = ("w0", "w1", "w2")
    vocab = Vocabulary(tokens=tokens, frequencies={t: 3 - i for i, t in enumerate(tokens)},
                       max_size=5)
    assert vocab.size == 5
