"""Confusion matrices, precision/recall/F1/accuracy, and results rendering.

One evaluation makes one ``MetricsReport``: ``compute_metrics(cm)`` walks
the confusion matrix once and returns the per-class metrics, accuracy, the
majority-class baseline (largest row sum over the total) and the aggregates
under both weighted and macro averaging, since the reported numbers do not
pin the mode. ``MetricsReport.to_dict`` is the ``metrics.json`` payload,
``format_evaluation_summary`` prints a report, and ``render_results_table``
shows the weighted aggregates, which behave consistently with accuracy
under heavy class imbalance. Any 0/0 is defined as 0 and flagged rather
than NaN so aggregation never silently poisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus_ingest import NUM_CLASSES, ClassDistribution, DamageLabel
from .errors import DimensionError

_AGGREGATE_KEYS = ("precision", "recall", "f1")


@dataclass(frozen=True)
class ConfusionMatrix:
    """4x4 counts; rows are true labels, columns are predictions."""

    counts: np.ndarray

    def __post_init__(self):
        if self.counts.shape != (NUM_CLASSES, NUM_CLASSES):
            raise DimensionError(
                f"confusion matrix must be {NUM_CLASSES}x{NUM_CLASSES}, "
                f"got {self.counts.shape}"
            )

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ClassMetrics:
    label: DamageLabel
    precision: float
    recall: float
    f1: float
    support: int
    zero_support: bool = False     # no true instances of this class
    zero_predictions: bool = False  # the class was never predicted


@dataclass(frozen=True)
class MetricsReport:
    """Everything one evaluation reports, computed once by ``compute_metrics``.

    ``aggregates`` maps ``"weighted"`` and then ``"macro"`` to a
    ``{precision, recall, f1}`` dict; ``majority_baseline`` is the accuracy
    of always predicting the class with the most true instances.
    """

    confusion: ConfusionMatrix
    per_class: tuple[ClassMetrics, ...]
    accuracy: float
    majority_baseline: float
    aggregates: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        """The per-model ``metrics.json`` payload."""
        return {
            "accuracy": self.accuracy,
            "majority_baseline": self.majority_baseline,
            "confusion": self.confusion.counts.tolist(),
            "per_class": [
                {
                    "label": c.label.display_name,
                    "precision": c.precision,
                    "recall": c.recall,
                    "f1": c.f1,
                    "support": c.support,
                    "zero_support": c.zero_support,
                    "zero_predictions": c.zero_predictions,
                }
                for c in self.per_class
            ],
            "aggregates": self.aggregates,
        }


def confusion_matrix(preds: Sequence[DamageLabel | int],
                     labels: Sequence[DamageLabel | int]) -> ConfusionMatrix:
    """Count (true, predicted) pairs into a 4x4 matrix."""
    if len(preds) != len(labels):
        raise DimensionError(
            f"{len(preds)} predictions vs {len(labels)} labels"
        )
    if len(preds) == 0:
        raise DimensionError("confusion_matrix needs at least one pair")
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(
        counts,
        (np.asarray(labels, dtype=np.int64), np.asarray(preds, dtype=np.int64)),
        1,
    )
    return ConfusionMatrix(counts=counts)


def compute_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Per-class precision/recall/F1, accuracy, the majority-class baseline
    and the weighted and macro aggregates of one confusion matrix."""
    counts = cm.counts
    total = cm.total
    if total < 1:
        raise ValueError("cannot compute metrics over an empty confusion matrix")
    per_class = []
    for c in range(NUM_CLASSES):
        tp = int(counts[c, c])
        col = int(counts[:, c].sum())
        row = int(counts[c, :].sum())
        precision = tp / col if col else 0.0
        recall = tp / row if row else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(
            ClassMetrics(
                label=DamageLabel(c),
                precision=precision,
                recall=recall,
                f1=f1,
                support=row,
                zero_support=row == 0,
                zero_predictions=col == 0,
            )
        )
    return MetricsReport(
        confusion=cm,
        per_class=tuple(per_class),
        accuracy=float(np.trace(counts)) / total,
        majority_baseline=max(c.support for c in per_class) / total,
        aggregates={
            "weighted": {k: sum(getattr(c, k) * c.support for c in per_class) / total
                         for k in _AGGREGATE_KEYS},
            "macro": {k: sum(getattr(c, k) for c in per_class) / NUM_CLASSES
                      for k in _AGGREGATE_KEYS},
        },
    )


def majority_baseline(dist: ClassDistribution) -> float:
    """Accuracy of always predicting the most frequent class: the honest
    floor to compare model accuracy against on imbalanced data."""
    if dist.total < 1:
        raise ValueError("majority baseline needs a nonempty distribution")
    return max(dist.counts.values()) / dist.total


_TABLE_HEADERS = ("Model", "Precision(%)", "Recall(%)", "F1(%)", "Accuracy(%)")


def render_results_table(rows: Sequence[tuple[str, MetricsReport]]) -> tuple[str, str]:
    """(text table, CSV sibling) for a list of (model name, report) rows.

    The text table shows the weighted aggregates as integer percentages and
    accuracy to one decimal. The CSV carries the unrounded fractions, one
    weighted row per model and then one macro row per model.
    """
    if not rows:
        raise ValueError("render_results_table needs at least one row")
    formatted = [
        (name, *(f"{report.aggregates['weighted'][k] * 100:.0f}" for k in _AGGREGATE_KEYS),
         f"{report.accuracy * 100:.1f}")
        for name, report in rows
    ]
    widths = [
        max(len(_TABLE_HEADERS[col]), max(len(r[col]) for r in formatted))
        for col in range(5)
    ]
    def line(cells):
        first = cells[0].ljust(widths[0])
        rest = "  ".join(cells[i].rjust(widths[i]) for i in range(1, 5))
        return f"{first}  {rest}"

    text_lines = [line(_TABLE_HEADERS), line(tuple("-" * w for w in widths))]
    text_lines += [line(r) for r in formatted]
    text = "\n".join(text_lines) + "\n"

    csv_lines = ["model,precision,recall,f1,accuracy,averaging"]
    for mode in ("weighted", "macro"):
        for name, report in rows:
            agg = report.aggregates[mode]
            csv_lines.append(f"{name},{agg['precision']!r},{agg['recall']!r},"
                             f"{agg['f1']!r},{report.accuracy!r},{mode}")
    return text, "\n".join(csv_lines) + "\n"


def format_evaluation_summary(report: MetricsReport) -> str:
    """Human-readable evaluation block; prints the majority baseline right
    next to model accuracy so imbalanced wins cannot masquerade as skill."""
    lines = [
        f"Accuracy:                 {report.accuracy:.4f}",
        f"Majority-class baseline:  {report.majority_baseline:.4f}",
        "",
        "Class         Precision  Recall      F1  Support",
    ]
    for c in report.per_class:
        flags = []
        if c.zero_support:
            flags.append("no-support")
        if c.zero_predictions:
            flags.append("never-predicted")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"{c.label.display_name:<12}  {c.precision:9.4f}  {c.recall:6.4f}  "
            f"{c.f1:6.4f}  {c.support:7d}{suffix}"
        )
    lines.append("")
    for mode, agg in report.aggregates.items():
        lines.append(f"{f'Aggregate ({mode}):':<21} precision {agg['precision']:.4f}, "
                     f"recall {agg['recall']:.4f}, F1 {agg['f1']:.4f}")
    return "\n".join(lines) + "\n"
