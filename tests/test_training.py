import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from narrative_seq import training
from narrative_seq.corpus_ingest import DamageLabel
from narrative_seq.dataset_io import EncodedDataset
from narrative_seq.errors import DataError, DimensionError, NumericError
from narrative_seq.synthetic import separable_dataset
from narrative_seq.text_pipeline import one_hot
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
        assert cross_entropy(np.array([1.0, 0, 0, 0]), one_hot(DamageLabel.DESTROYED)) == 0.0

    def test_uniform(self):
        loss = cross_entropy(np.full(4, 0.25), one_hot(DamageLabel.MINOR))
        assert loss == pytest.approx(math.log(4.0), abs=1e-12)

    def test_floor_keeps_confident_miss_finite(self):
        loss = cross_entropy(np.array([0.0, 1.0, 0, 0]), one_hot(DamageLabel.DESTROYED))
        assert loss == pytest.approx(-math.log(1e-12), abs=1e-9)
        assert math.isfinite(loss)

    def test_nonnegative_with_equality_iff_certain(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            raw = rng.uniform(0.05, 1.0, size=4)
            probs = raw / raw.sum()
            loss = cross_entropy(probs, one_hot(DamageLabel.SUBSTANTIAL))
            assert loss > 0.0
        assert cross_entropy(np.array([0, 1.0, 0, 0]), one_hot(DamageLabel.SUBSTANTIAL)) == 0.0


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
        # The epoch-end evaluations only read the parameters: with them
        # stubbed out, training ends at the same parameters.
        spec = build_spec("sRNN", **self.SPEC)
        config, split = TrainConfig(epochs=2, seed=6), SplitSpec(seed=6)
        with_eval, _ = train_model(spec, tiny_dataset, config, split)
        scored = []

        def no_evaluation(spec, params, dataset, indices, batch_size=64):
            scored.append(len(indices))
            return 0.0, 0.0

        monkeypatch.setattr(training, "evaluate_model", no_evaluation)
        without_eval, history = train_model(spec, tiny_dataset, config, split)
        assert len(scored) == 4 and all(scored)
        assert history == [EpochStats(0.0, 0.0, 0.0, 0.0)] * 2
        for name in with_eval:
            npt.assert_array_equal(with_eval[name], without_eval[name])

    def test_loss_decreases_on_easy_data_for_every_zoo_model(self, tiny_dataset):
        config, split = TrainConfig(epochs=5, seed=3), SplitSpec(seed=3)
        for spec in model_zoo(embedding_dim=8, hidden_units=8, dense_hidden_units=8):
            _, history = train_model(spec, tiny_dataset, config, split)
            assert history[4].train_loss < history[0].train_loss, spec.name

    def test_revalidate_per_epoch_mode(self, tiny_dataset):
        spec = build_spec("GRU", **self.SPEC)
        config = TrainConfig(epochs=2, seed=5, revalidate_per_epoch=True)
        _, history = train_model(spec, tiny_dataset, config, SplitSpec(seed=5))
        assert len(history) == 2

    def test_non_finite_loss_aborts_with_location(self, tiny_dataset, monkeypatch):
        calls = {"n": 0}

        def poisoned(probs, labels):
            calls["n"] += 1
            return float("nan") if calls["n"] >= 2 else 0.5

        monkeypatch.setattr("narrative_seq.training.batch_cross_entropy", poisoned)
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
                train_model(spec, dataset, TrainConfig(epochs=1, batch_size=8), SplitSpec())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 10 records train on 8 (one batch), 32 records on 24 (three).
        assert split_dataset(10, SplitSpec())[0].size == 8
        assert split_dataset(32, SplitSpec())[0].size == 24
        assert traced_peak(32) < 1.3 * traced_peak(10)


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
