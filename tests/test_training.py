import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import narrative_seq
from narrative_seq import training
from narrative_seq.corpus_ingest import DamageLabel
from narrative_seq.dataset_io import EncodedDataset
from narrative_seq.errors import DataError, DimensionError, NumericError
from narrative_seq.neural_layers import init_params
from narrative_seq.synthetic import separable_dataset
from narrative_seq.tensor_core import SeededRng
from narrative_seq.training import (
    AdamState,
    EpochStats,
    SplitSpec,
    TrainConfig,
    adam_update,
    clip_gradients,
    cross_entropy,
    history_to_csv,
    split_dataset,
    train_model,
)
from narrative_seq.zoo import build_spec, model_zoo


class TestSplitDataset:
    def test_counts_for_100(self):
        train, val, test = split_dataset(100, SplitSpec(seed=1))
        assert len(test) == 20 and len(val) == 8 and len(train) == 72

    def test_deterministic(self):
        a = split_dataset(57, SplitSpec(seed=9))
        b = split_dataset(57, SplitSpec(seed=9))
        for x, y in zip(a, b):
            npt.assert_array_equal(x, y)

    def test_partition_property(self):
        for n in (10, 11, 25, 100, 333):
            for seed in (0, 1, 77):
                train, val, test = split_dataset(n, SplitSpec(seed=seed))
                combined = np.concatenate([train, val, test])
                assert len(combined) == n
                assert set(combined.tolist()) == set(range(n))

    def test_too_small_rejected(self):
        with pytest.raises(DataError):
            split_dataset(9, SplitSpec(seed=0))

    def test_seed_changes_split(self):
        a = split_dataset(50, SplitSpec(seed=1))[2]
        b = split_dataset(50, SplitSpec(seed=2))[2]
        assert not np.array_equal(a, b)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        loss = cross_entropy(np.array([[1.0, 0, 0, 0]]), np.array([DamageLabel.DESTROYED]))
        npt.assert_array_equal(loss, [0.0])

    def test_uniform(self):
        loss = cross_entropy(np.full((1, 4), 0.25), np.array([DamageLabel.MINOR]))
        assert loss[0] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_floor_keeps_confident_miss_finite(self):
        loss = cross_entropy(np.array([[0.0, 1.0, 0, 0]]), np.array([DamageLabel.DESTROYED]))
        assert loss[0] == pytest.approx(-math.log(1e-12), abs=1e-9)
        assert np.all(np.isfinite(loss))

    def test_nonnegative_with_equality_iff_certain(self):
        rng = np.random.default_rng(2)
        raw = rng.uniform(0.05, 1.0, size=(50, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        loss = cross_entropy(probs, np.full(50, DamageLabel.SUBSTANTIAL))
        assert loss.shape == (50,) and np.all(loss > 0.0)
        certain = cross_entropy(np.array([[0, 1.0, 0, 0]]), np.array([DamageLabel.SUBSTANTIAL]))
        npt.assert_array_equal(certain, [0.0])


class TestClipGradients:
    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.3, 0.4])}
        norm = clip_gradients(grads, 5.0)
        assert norm == pytest.approx(0.5)
        npt.assert_array_equal(grads["a"], [0.3, 0.4])

    def test_large_gradients_scaled_to_clip_norm(self):
        grads = {"a": np.array([30.0, 0.0]), "b": np.array([0.0, 40.0])}
        norm = clip_gradients(grads, 5.0)
        assert norm == pytest.approx(50.0)
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total == pytest.approx(5.0)


class TestAdamUpdate:
    def _setup(self, theta=0.0):
        params = {"w": np.array([theta])}
        state = AdamState.initialize(params)
        return params, state, TrainConfig()

    def test_zero_gradient_leaves_params_but_increments_t(self):
        params, state, config = self._setup(theta=1.5)
        adam_update(params, {"w": np.zeros(1)}, state, config)
        assert params["w"][0] == 1.5
        assert state.t == 1

    def test_first_step_scalar_value(self):
        # Hand-computed bias-corrected first step: m_hat = v_hat = 1, so
        # theta moves by -lr / (1 + eps).
        params, state, config = self._setup()
        adam_update(params, {"w": np.ones(1)}, state, config)
        expected = -0.001 / (1.0 + 1e-8)
        assert params["w"][0] == pytest.approx(expected, abs=1e-15)

    def test_identical_grad_streams_identical_params(self):
        rng = np.random.default_rng(5)
        stream = [{"w": rng.normal(size=(3, 2))} for _ in range(10)]
        a, state_a, config = ({"w": np.zeros((3, 2))}, None, TrainConfig())
        state_a = AdamState.initialize(a)
        b = {"w": np.zeros((3, 2))}
        state_b = AdamState.initialize(b)
        for g in stream:
            adam_update(a, {"w": g["w"].copy()}, state_a, config)
            adam_update(b, {"w": g["w"].copy()}, state_b, config)
        npt.assert_array_equal(a["w"], b["w"])

    def test_step_counter_once_per_call_not_per_tensor(self):
        params = {"a": np.zeros(2), "b": np.zeros((2, 2))}
        state = AdamState.initialize(params)
        adam_update(params, {"a": np.ones(2), "b": np.ones((2, 2))}, state, TrainConfig())
        assert state.t == 1

    def test_step_size_bound_first_ten_steps(self):
        # |delta| <= lr / (1 - beta1) plus epsilon slack, with clipped grads.
        params = {"w": np.zeros(4)}
        state = AdamState.initialize(params)
        config = TrainConfig()
        rng = np.random.default_rng(8)
        bound = config.learning_rate / (1.0 - config.beta1) + 1e-9
        for _ in range(10):
            grads = {"w": rng.normal(size=4)}
            clip_gradients(grads, config.clip_norm)
            before = params["w"].copy()
            adam_update(params, grads, state, config)
            assert np.all(np.abs(params["w"] - before) <= bound)

    def test_shape_mismatch_rejected(self):
        params, state, config = self._setup()
        with pytest.raises(DimensionError):
            adam_update(params, {"w": np.zeros(3)}, state, config)
        with pytest.raises(DimensionError):
            adam_update(params, {"other": np.zeros(1)}, state, config)


class TestTrainConfigValidation:
    def test_beta_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(beta2=0.0)

    def test_positive_scalars(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


@pytest.fixture(scope="module")
def tiny_dataset():
    dataset, _ = separable_dataset()
    return dataset


class TestTrainModel:
    SPEC = dict(embedding_dim=8, hidden_units=8, dense_hidden_units=8)

    def test_history_length_equals_epochs(self, tiny_dataset):
        spec = build_spec("GRU", **self.SPEC)
        _, history = train_model(
            spec, tiny_dataset, TrainConfig(epochs=3, seed=1), SplitSpec(seed=1)
        )
        assert len(history) == 3

    def test_bit_identical_history_across_runs(self, tiny_dataset):
        spec = build_spec("LSTM", **self.SPEC)
        config, split = TrainConfig(epochs=2, seed=4), SplitSpec(seed=4)
        params_a, hist_a = train_model(spec, tiny_dataset, config, split)
        params_b, hist_b = train_model(spec, tiny_dataset, config, split)
        assert hist_a == hist_b
        for name in params_a:
            npt.assert_array_equal(params_a[name], params_b[name])

    def test_validation_never_trained_on(self, tiny_dataset, monkeypatch):
        # The epoch-end validation score only reads the parameters: with it
        # stubbed out, training ends at the same parameters, and the train
        # fields still come from the batches. It runs once per epoch of
        # three batches, on the validation records alone.
        spec = build_spec("sRNN", **self.SPEC)
        config, split = TrainConfig(epochs=2, batch_size=8, seed=6), SplitSpec(seed=6)
        with_eval, _ = train_model(spec, tiny_dataset, config, split)
        val_idx = split_dataset(len(tiny_dataset), split)[1]
        scored = []

        def no_evaluation(spec, params, dataset, indices):
            scored.append(np.asarray(indices).copy())
            return 0.0, 0.0

        monkeypatch.setattr(training, "evaluate_model", no_evaluation)
        without_eval, history = train_model(spec, tiny_dataset, config, split)
        assert len(scored) == 2
        for indices in scored:
            npt.assert_array_equal(indices, val_idx)
        assert len(history) == 2
        for stats in history:
            assert stats.train_loss > 0.0 and stats.train_accuracy > 0.0
            assert (stats.val_loss, stats.val_accuracy) == (0.0, 0.0)
        for name in with_eval:
            npt.assert_array_equal(with_eval[name], without_eval[name])

    def test_train_fields_score_the_batch_forward(self, tiny_dataset):
        # One epoch of one batch: its forward runs on the initial parameters,
        # so the train fields equal a frozen-parameter score of the train
        # split at initialisation.
        spec = build_spec("GRU", **self.SPEC)
        split = SplitSpec(seed=2)
        train_idx = split_dataset(len(tiny_dataset), split)[0]
        config = TrainConfig(epochs=1, batch_size=train_idx.size, seed=2)
        initial = init_params(spec, tiny_dataset.vocab_size,
                              SeededRng(config.seed, training._TAG_INIT))
        loss, accuracy = training.evaluate_model(spec, initial, tiny_dataset, train_idx)
        _, history = train_model(spec, tiny_dataset, config, split)
        assert history[0].train_loss == pytest.approx(loss, rel=1e-12, abs=0.0)
        assert history[0].train_accuracy == accuracy

    def test_empty_validation_holdout_rejected_before_training(self, tiny_dataset,
                                                               monkeypatch):
        forwards = []
        monkeypatch.setattr(training, "model_forward", lambda *args: forwards.append(args))
        with pytest.raises(DataError, match="validation_fraction_of_train 0.0"):
            train_model(build_spec("sRNN", **self.SPEC), tiny_dataset, TrainConfig(epochs=1),
                        SplitSpec(validation_fraction_of_train=0.0))
        assert forwards == []

    def test_loss_decreases_on_easy_data_for_every_zoo_model(self, tiny_dataset):
        config, split = TrainConfig(epochs=5, seed=3), SplitSpec(seed=3)
        for spec in model_zoo(embedding_dim=8, hidden_units=8, dense_hidden_units=8):
            _, history = train_model(spec, tiny_dataset, config, split)
            assert history[4].train_loss < history[0].train_loss, spec.name

    def test_non_finite_loss_aborts_with_location(self, tiny_dataset, monkeypatch):
        calls = {"n": 0}

        def poisoned(probs, labels):
            calls["n"] += 1
            return np.full(len(labels), np.nan if calls["n"] >= 2 else 0.5)

        monkeypatch.setattr("narrative_seq.training.cross_entropy", poisoned)
        spec = build_spec("sRNN", **self.SPEC)
        config = TrainConfig(epochs=3, batch_size=8, seed=7)
        with pytest.raises(NumericError, match=r"epoch 1, batch 2"):
            train_model(spec, tiny_dataset, config, SplitSpec(seed=7))

    def test_empty_dataset_rejected(self, tiny_dataset):
        empty = EncodedDataset(
            sequences=np.zeros((0, 4), dtype=np.uint32),
            labels=np.zeros(0, dtype=np.uint8),
            vocab_size=5,
        )
        with pytest.raises(DataError):
            train_model(build_spec("GRU", **self.SPEC), empty,
                        TrainConfig(epochs=1), SplitSpec())

    def test_peak_memory_holds_one_batch_cache(self):
        # One batch's BPTT cache dominates memory at long seq_len. An epoch
        # of three full batches must not hold two caches at once, so it
        # peaks about where a one-batch epoch does.
        def traced_peak(n_records):
            rng = np.random.default_rng(n_records)
            dataset = EncodedDataset(
                sequences=rng.integers(1, 30, size=(n_records, 300)).astype(np.uint32),
                labels=rng.integers(0, 4, size=n_records).astype(np.uint8),
                vocab_size=30,
            )
            spec = build_spec("LSTM", **self.SPEC)
            tracemalloc.start()
            try:
                train_model(spec, dataset, TrainConfig(epochs=1, batch_size=9), SplitSpec())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 12 records train on 9 (one batch), 36 records on 27 (three); both
        # keep a validation record.
        for n_records, n_train in ((12, 9), (36, 27)):
            train, validation, _ = split_dataset(n_records, SplitSpec())
            assert train.size == n_train and validation.size >= 1
        assert traced_peak(36) < 1.3 * traced_peak(12)


def test_history_csv_format():
    history = [
        EpochStats(1.25, 0.5, 1.5, 0.25),
        EpochStats(0.75, 0.875, 1.0, 0.5),
    ]
    csv = history_to_csv(history)
    lines = csv.strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert lines[1] == "1,1.250000,0.500000,1.500000,0.250000"
    assert lines[2] == "2,0.750000,0.875000,1.000000,0.500000"


def _reads_loss_floor(node: ast.AST) -> bool:
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name == "LOSS_FLOOR" and isinstance(node.ctx, ast.Load)


def _calls_argmax(node: ast.AST) -> bool:
    # np.argmax(...) and the array method .argmax() alike.
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "argmax")


@pytest.mark.parametrize("module,owner,found", [
    ("training.py", "cross_entropy", _reads_loss_floor),
    ("neural_layers.py", "predict_classes", _calls_argmax),
])
def test_one_loss_and_one_argmax(module, owner, found):
    # The floored loss is computed in training.cross_entropy alone and the
    # class decision in neural_layers.predict_classes alone, so training,
    # scoring and evaluation cannot drift apart.
    inside, outside = [], []
    for source in sorted(Path(narrative_seq.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        allowed = set()
        if source.name == module:
            func = next(n for n in tree.body
                        if isinstance(n, ast.FunctionDef) and n.name == owner)
            allowed = {id(n) for n in ast.walk(func)}
        for node in ast.walk(tree):
            if found(node):
                (inside if id(node) in allowed else outside).append(
                    f"{source.name}:{node.lineno}")
    assert inside, f"the scan no longer sees {owner}'s own use"
    assert outside == [], f"used outside {module} {owner}: {outside}"
