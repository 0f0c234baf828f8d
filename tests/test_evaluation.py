import numpy as np
import numpy.testing as npt
import pytest

from narrative_seq.corpus_ingest import ClassDistribution, DamageLabel
from narrative_seq.errors import DimensionError
from narrative_seq.evaluation import (
    compute_metrics,
    confusion_matrix,
    format_evaluation_summary,
    majority_baseline,
    render_results_table,
)

# ---------------------------------------------------------------------------
# Brute-force counting oracle: per-class tallies by looping over pairs,
# metrics recomputed from first principles.
# ---------------------------------------------------------------------------

def oracle_metrics(preds, labels, mode):
    per_class = []
    for c in range(4):
        tp = sum(1 for p, t in zip(preds, labels) if p == c and t == c)
        fp = sum(1 for p, t in zip(preds, labels) if p == c and t != c)
        fn = sum(1 for p, t in zip(preds, labels) if p != c and t == c)
        support = sum(1 for t in labels if t == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1, support))
    total = len(labels)
    accuracy = sum(1 for p, t in zip(preds, labels) if p == t) / total
    if mode == "macro":
        agg = tuple(sum(c[i] for c in per_class) / 4 for i in range(3))
    else:
        agg = tuple(sum(c[i] * c[3] for c in per_class) / total for i in range(3))
    return per_class, accuracy, agg


class TestConfusionMatrix:
    def test_all_correct_is_diagonal(self):
        preds = labels = [0, 1, 2, 3, 1, 1]
        cm = confusion_matrix(preds, labels)
        npt.assert_array_equal(cm.counts, np.diag([1, 3, 1, 1]))

    def test_hand_counted_four_pairs(self):
        cm = confusion_matrix([0, 1, 1, 2], [0, 1, 2, 2])
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 0] = 1
        expected[1, 1] = 1
        expected[2, 1] = 1
        expected[2, 2] = 1
        npt.assert_array_equal(cm.counts, expected)
        assert cm.total == 4

    def test_single_pair(self):
        cm = confusion_matrix([3], [3])
        assert cm.counts[3, 3] == 1 and cm.total == 1

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            confusion_matrix([0, 1], [0])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            confusion_matrix([], [])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        preds = rng.integers(0, 4, size=60)
        labels = rng.integers(0, 4, size=60)
        base = confusion_matrix(preds, labels)
        order = rng.permutation(60)
        shuffled = confusion_matrix(preds[order], labels[order])
        npt.assert_array_equal(base.counts, shuffled.counts)


class TestComputeMetrics:
    def test_perfect_predictions(self):
        cm = confusion_matrix([0, 1, 2, 3], [0, 1, 2, 3])
        report = compute_metrics(cm)
        assert report.accuracy == 1.0
        assert list(report.aggregates) == ["weighted", "macro"]
        for agg in report.aggregates.values():
            assert agg == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        assert all(c.precision == c.recall == c.f1 == 1.0 for c in report.per_class)

    def test_hand_checked_four_pair_example(self):
        cm = confusion_matrix([0, 1, 1, 2], [0, 1, 2, 2])
        report = compute_metrics(cm)
        assert report.confusion is cm
        assert report.accuracy == 0.75
        assert report.per_class[2].recall == 0.5
        assert report.per_class[1].precision == 0.5

    def test_zero_support_class_flagged(self):
        cm = confusion_matrix([0, 0, 1], [0, 0, 1])  # classes 2, 3 unseen
        report = compute_metrics(cm)
        assert report.per_class[3].zero_support
        assert report.per_class[3].recall == 0.0
        assert report.per_class[3].zero_predictions
        # Weighted aggregation weights the empty class by zero support.
        assert report.aggregates["weighted"]["recall"] == 1.0

    def test_majority_baseline_is_largest_row_share(self):
        # True labels 1, 1, 1, 0, 2: class 1 holds 3 of 5 rows.
        report = compute_metrics(confusion_matrix([0, 0, 0, 0, 0], [1, 1, 1, 0, 2]))
        assert report.majority_baseline == 3 / 5
        assert report.accuracy == 1 / 5

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 60))
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

    def test_micro_identity(self):
        # Micro precision = micro recall = accuracy for single-label
        # multiclass; checked against the confusion matrix directly.
        rng = np.random.default_rng(41)
        preds = rng.integers(0, 4, size=200)
        labels = rng.integers(0, 4, size=200)
        cm = confusion_matrix(preds, labels)
        tp = float(np.trace(cm.counts))
        micro_p = tp / cm.counts.sum(axis=0).sum()
        micro_r = tp / cm.counts.sum(axis=1).sum()
        accuracy = compute_metrics(cm).accuracy
        assert micro_p == pytest.approx(accuracy, abs=1e-15)
        assert micro_r == pytest.approx(accuracy, abs=1e-15)


class TestMajorityBaseline:
    def _dist(self, counts):
        mapping = dict(zip(DamageLabel, counts))
        return ClassDistribution(counts=mapping, total=sum(counts))

    def test_uniform(self):
        assert majority_baseline(self._dist([5, 5, 5, 5])) == 0.25

    def test_reference_counts(self):
        dist = self._dist([1409, 15163, 195, 152])
        assert majority_baseline(dist) == pytest.approx(15163 / 16919)

    def test_single_class(self):
        assert majority_baseline(self._dist([0, 9, 0, 0])) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_baseline(self._dist([0, 0, 0, 0]))


def _report(precision, recall, f1, accuracy, macro=(0.5, 0.6, 0.55)):
    from narrative_seq.evaluation import ClassMetrics, MetricsReport

    per_class = tuple(
        ClassMetrics(label=DamageLabel(i), precision=precision, recall=recall,
                     f1=f1, support=10)
        for i in range(4)
    )
    keys = ("precision", "recall", "f1")
    return MetricsReport(
        confusion=confusion_matrix([0], [0]), per_class=per_class, accuracy=accuracy,
        majority_baseline=0.8962,
        aggregates={"weighted": dict(zip(keys, (precision, recall, f1))),
                    "macro": dict(zip(keys, macro))},
    )


class TestRenderResultsTable:
    def test_reference_row_formatting(self):
        text, _ = render_results_table([("LSTM", _report(0.87, 0.89, 0.88, 0.889))])
        row = [line for line in text.splitlines() if line.startswith("LSTM")][0]
        assert row.split() == ["LSTM", "87", "89", "88", "88.9"]

    def test_golden_single_row(self):
        text, _ = render_results_table([("GRU", _report(0.85, 0.89, 0.88, 0.89))])
        assert text == (
            "Model  Precision(%)  Recall(%)  F1(%)  Accuracy(%)\n"
            "-----  ------------  ---------  -----  -----------\n"
            "GRU              85         89     88         89.0\n"
        )

    def test_csv_round_trips_full_precision(self):
        # Weighted rows for every model, then macro rows, unrounded.
        rows = [("sRNN", _report(1 / 3, 2 / 3, 0.123456789012345, 0.999999999999,
                                 macro=(1 / 7, 2 / 7, 3 / 7))),
                ("GRU", _report(0.9, 0.8, 0.7, 0.6))]
        _, csv_text = render_results_table(rows)
        lines = [line.split(",") for line in csv_text.strip().split("\n")[1:]]
        assert [(line[0], line[5]) for line in lines] == [
            ("sRNN", "weighted"), ("GRU", "weighted"), ("sRNN", "macro"), ("GRU", "macro")]
        for line in lines:
            report = dict(rows)[line[0]]
            agg = report.aggregates[line[5]]
            assert [float(v) for v in line[1:5]] == [
                agg["precision"], agg["recall"], agg["f1"], report.accuracy]

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            render_results_table([])


def test_summary_prints_baseline_next_to_accuracy():
    text = format_evaluation_summary(_report(0.8, 0.9, 0.85, 0.896))
    assert "0.8962" in text and "Accuracy" in text and "baseline" in text.lower()
    lines = text.splitlines()
    assert lines[0].startswith("Accuracy")
    assert "baseline" in lines[1].lower()
