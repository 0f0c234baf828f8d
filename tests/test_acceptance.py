"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

Desk-scale and property-based by design; the full-corpus comparison run is
criterion 9 and only executes when NSEQ_FULL_CORPUS points at a corpus file
in the documented schema.
"""

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from narrative_seq import dataset_io
from narrative_seq.corpus_ingest import DamageLabel, class_distribution
from narrative_seq.evaluation import (
    compute_metrics,
    confusion_matrix,
    format_evaluation_summary,
    majority_baseline,
    render_results_table,
)
from narrative_seq.harness import config_from_dict, run_experiment
from narrative_seq.neural_layers import (
    CellKind,
    ModelSpec,
    RecurrentLayerSpec,
    init_params,
    model_forward,
)
from narrative_seq.checkpoint import load_checkpoint, save_checkpoint
from narrative_seq.synthetic import (
    NTSB_2005_2020_DAMAGE_COUNTS,
    generate_fixture_corpus,
    make_synthetic_corpus,
    separable_dataset,
)
from narrative_seq.tensor_core import SeededRng
from narrative_seq.text_pipeline import (
    build_vocabulary,
    decode_sequence,
    encode_sequence,
    preprocess_corpus,
)
from narrative_seq.training import SplitSpec, TrainConfig, train_model
from narrative_seq.zoo import ZOO_NAMES, model_zoo

from gradcheck import max_relative_error
from test_evaluation import oracle_metrics


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    print(f"[criterion {number}] PASS  {description}")


# -------------------------------------------------------------------- 1 ---

def test_c1_gradient_correctness():
    with criterion(1, "BPTT matches central finite differences (<1e-5) for "
                      "all kinds x directions x depths 1-3"):
        label = DamageLabel.SUBSTANTIAL
        ids = np.array([1, 4, 2, 7, 9], dtype=np.uint32)  # L=5, vocab=10
        seed = 300
        for kind in (CellKind.SRNN, CellKind.LSTM, CellKind.GRU):
            for bidirectional in (False, True):
                for depth in (1, 2, 3):
                    stack = tuple(
                        RecurrentLayerSpec(
                            kind=kind,
                            hidden_units=4,
                            bidirectional=bidirectional,
                            returns_sequence=i < depth - 1,
                        )
                        for i in range(depth)
                    )
                    spec = ModelSpec(
                        name=f"{kind.value}-d{depth}-{'bi' if bidirectional else 'uni'}",
                        embedding_dim=3,
                        recurrent_stack=stack,
                        dense_hidden_units=4,
                    )
                    seed += 1
                    params = init_params(spec, 10, SeededRng(seed, 2))
                    worst, where = max_relative_error(spec, params, ids, label,
                                                      eps=1e-5)
                    assert worst < 1e-5, (
                        f"{spec.name}: rel err {worst:.3e} at {where}"
                    )


# -------------------------------------------------------------------- 2 ---

def test_c2_every_zoo_model_overfits_separable_data():
    with criterion(2, "all ten zoo models reach 100% train accuracy on the "
                      "32-record separable set within 200 epochs"):
        dataset, _ = separable_dataset()
        assert len(dataset) == 32
        config = TrainConfig(epochs=200, seed=0)  # batch 32, lr 0.001 defaults
        split = SplitSpec(seed=0)
        for spec in model_zoo():
            _, history = train_model(spec, dataset, config, split)
            best = max(stats.train_accuracy for stats in history)
            assert best == 1.0, f"{spec.name} peaked at {best:.3f}"


# -------------------------------------------------------------------- 3 ---

def test_c3_metrics_agree_with_brute_force_oracle():
    with criterion(3, "compute_metrics matches the counting oracle to 1e-12 "
                      "on 1,000 random sets, both averaging modes"):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            preds = rng.integers(0, 4, size=n).tolist()
            labels = rng.integers(0, 4, size=n).tolist()
            cm = confusion_matrix(preds, labels)
            report = compute_metrics(cm)
            for mode in ("macro", "weighted"):
                per_class, accuracy, agg = oracle_metrics(preds, labels, mode)
                assert abs(report.accuracy - accuracy) < 1e-12
                assert abs(report.aggregates[mode]["precision"] - agg[0]) < 1e-12
                assert abs(report.aggregates[mode]["recall"] - agg[1]) < 1e-12
                assert abs(report.aggregates[mode]["f1"] - agg[2]) < 1e-12
                for c, (p, r, f1, support) in zip(report.per_class, per_class):
                    assert abs(c.precision - p) < 1e-12
                    assert abs(c.recall - r) < 1e-12
                    assert abs(c.f1 - f1) < 1e-12
                    assert c.support == support
        # Hand-checked four-pair example holds exactly.
        cm = confusion_matrix([0, 1, 1, 2], [0, 1, 2, 2])
        report = compute_metrics(cm)
        assert report.accuracy == 0.75
        assert report.per_class[2].recall == 0.5
        assert report.per_class[1].precision == 0.5


# -------------------------------------------------------------------- 4 ---

def test_c4_compare_runs_are_byte_identical(tmp_path):
    with criterion(4, "two identical-config compare runs on the bundled "
                      "fixture emit byte-identical metrics and histories"):
        records = generate_fixture_corpus()
        sequences, labels, vocab = preprocess_corpus(
            records, vocab_size=400, seq_len=24
        )
        data_dir = tmp_path / "encoded"
        data_dir.mkdir()
        dataset_io.write_encoded_dataset(
            data_dir / dataset_io.ENCODED_FILENAME,
            dataset_io.EncodedDataset(
                sequences=sequences, labels=labels, vocab_size=vocab.size
            ),
        )
        dataset_io.write_vocab_sidecar(data_dir / dataset_io.VOCAB_FILENAME, vocab)

        def run(out):
            config = config_from_dict({
                "epochs": 2,
                "seed": 17,
                "embedding_dim": 16,
                "hidden_units": 16,
                "dense_hidden_units": 16,
            })
            run_experiment(config, data_dir, out)
            return out

        first = run(tmp_path / "run_a")
        second = run(tmp_path / "run_b")
        for name in ZOO_NAMES:
            for artifact in ("metrics.json", "history.csv"):
                a = (first / name / artifact).read_bytes()
                b = (second / name / artifact).read_bytes()
                assert a == b, f"{name}/{artifact} differs between runs"
        assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()


# -------------------------------------------------------------------- 5 ---

def test_c5_encoding_invariants_hold_on_random_inputs():
    with criterion(5, "10,000 random token lists (lengths 0-5,000) encode to "
                      "exactly 2000 in-bounds ids and round-trip"):
        vocab = build_vocabulary([[f"tok{i:03d}"] * (i + 1) for i in range(50)])
        in_vocab = list(vocab.index_of)
        mixed = in_vocab + ["unseen1", "unseen2"]
        rng = np.random.default_rng(77)
        round_tripped = 0
        for draw in range(10_000):
            pool = in_vocab if draw % 4 == 0 else mixed
            length = int(rng.integers(0, 5001))
            idx = rng.integers(0, len(pool), size=length)
            tokens = [pool[i] for i in idx]
            ids = encode_sequence(tokens, vocab)
            assert ids.shape == (2000,)
            assert np.all(ids < vocab.size)
            if length <= 2000 and all(t in vocab.index_of for t in tokens):
                assert decode_sequence(ids, vocab) == tokens
                round_tripped += 1
        assert round_tripped > 500  # the round-trip branch genuinely ran


# -------------------------------------------------------------------- 6 ---

def test_c6_checkpoint_round_trip_for_every_zoo_model(tmp_path):
    with criterion(6, "save->load yields bit-identical predictions on 100 "
                      "random inputs for every zoo model"):
        vocab_size = 30
        rng = np.random.default_rng(55)
        inputs = rng.integers(0, vocab_size, size=(100, 12))
        for i, spec in enumerate(
            model_zoo(embedding_dim=6, hidden_units=6, dense_hidden_units=6)
        ):
            params = init_params(spec, vocab_size, SeededRng(900 + i, 2))
            path = tmp_path / f"{spec.name}.nsck"
            save_checkpoint(params, spec, "f" * 64, path)
            loaded_spec, loaded = load_checkpoint(path, "f" * 64)
            assert loaded_spec == spec
            before, _ = model_forward(inputs, spec, params)
            after, _ = model_forward(inputs, loaded_spec, loaded)
            npt.assert_array_equal(before, after)


# -------------------------------------------------------------------- 7 ---

def test_c7_majority_baseline_surfaced_next_to_accuracy():
    with criterion(7, "synthetic corpus at the published class ratios yields "
                      "baseline 0.8962 +- 0.0001, printed beside accuracy"):
        records = make_synthetic_corpus(NTSB_2005_2020_DAMAGE_COUNTS, seed=5)
        dist = class_distribution(records)
        assert dist.total == 16_919
        baseline = majority_baseline(dist)
        assert abs(baseline - 0.8962) <= 1e-4
        # Majority-vote predictions give a full report to render.
        labels = [int(r.damage_level) for r in records]
        preds = [int(DamageLabel.SUBSTANTIAL)] * len(labels)
        report = compute_metrics(confusion_matrix(preds, labels))
        assert report.majority_baseline == baseline
        for mode in ("macro", "weighted"):
            _, _, agg = oracle_metrics(preds, labels, mode)
            got = report.aggregates[mode]
            for value, expected in zip((got["precision"], got["recall"], got["f1"]), agg):
                assert abs(value - expected) < 1e-12
        text = format_evaluation_summary(report)
        lines = text.splitlines()
        assert lines[0].startswith("Accuracy")
        assert "baseline" in lines[1].lower() and f"{baseline:.4f}" in lines[1]


# -------------------------------------------------------------------- 8 ---

def test_c8_results_table_reproduces_reference_row():
    with criterion(8, "aggregates 0.87/0.89/0.88/0.889 render as the row "
                      "'87 89 88 88.9'"):
        from narrative_seq.evaluation import ClassMetrics, MetricsReport

        per_class = tuple(
            ClassMetrics(label=DamageLabel(i), precision=0.87, recall=0.89,
                         f1=0.88, support=1)
            for i in range(4)
        )
        aggregate = {"precision": 0.87, "recall": 0.89, "f1": 0.88}
        report = MetricsReport(confusion=confusion_matrix([1], [1]), per_class=per_class,
                               accuracy=0.889, majority_baseline=1.0,
                               aggregates={"weighted": aggregate, "macro": aggregate})
        text, _ = render_results_table([("LSTM", report)])
        row = [line for line in text.splitlines() if line.startswith("LSTM")][0]
        assert row.split() == ["LSTM", "87", "89", "88", "88.9"]


# -------------------------------------------------------------------- 9 ---

@pytest.mark.skipif(
    not os.environ.get("NSEQ_FULL_CORPUS"),
    reason="full-scale mode needs NSEQ_FULL_CORPUS pointing at a corpus file",
)
def test_c9_optional_full_scale_comparison(tmp_path):
    with criterion(9, "user-supplied corpus completes all ten models and "
                      "emits the combined comparison table"):
        from narrative_seq.corpus_ingest import filter_completed, load_reports

        corpus = Path(os.environ["NSEQ_FULL_CORPUS"])
        fmt = "csv" if corpus.suffix.lower() == ".csv" else "json"
        records = filter_completed(load_reports(corpus, fmt).records)
        sequences, labels, vocab = preprocess_corpus(records)
        data_dir = tmp_path / "encoded"
        data_dir.mkdir()
        dataset_io.write_encoded_dataset(
            data_dir / dataset_io.ENCODED_FILENAME,
            dataset_io.EncodedDataset(
                sequences=sequences, labels=labels, vocab_size=vocab.size
            ),
        )
        dataset_io.write_vocab_sidecar(data_dir / dataset_io.VOCAB_FILENAME, vocab)
        config = config_from_dict({"seed": 0})
        manifest = run_experiment(config, data_dir, tmp_path / "results")
        assert set(manifest["models"]) == set(ZOO_NAMES)
        table = (tmp_path / "results" / "results_table.txt").read_text()
        assert len(table.splitlines()) == 2 + sum(
            1 for m in manifest["models"].values() if m["status"] == "ok"
        )
        # No accuracy tolerance asserted: preprocessing and hyperparameters
        # here legitimately differ from any published figures.
