"""Classification metrics: precision / recall / F1 and report construction.

The paper evaluates every method with per-class precision, recall and
F1-score plus an "Overall" row (Tables IV and V).  The overall row in the
paper is the class-weighted (support-weighted) average of the per-class
values, which is what :func:`classification_report` computes by default.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.types import PRF, ClassificationReport, RelationType


def precision_recall_f1(
    y_true: Sequence[int] | np.ndarray,
    y_pred: Sequence[int] | np.ndarray,
    label: int,
) -> PRF:
    """Precision, recall and F1 of a single class ``label``."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    tp = int(np.sum((y_true == label) & (y_pred == label)))
    fp = int(np.sum((y_true != label) & (y_pred == label)))
    fn = int(np.sum((y_true == label) & (y_pred != label)))
    return PRF.from_counts(tp=tp, fp=fp, fn=fn)


def accuracy(y_true: Sequence[int] | np.ndarray, y_pred: Sequence[int] | np.ndarray) -> float:
    """Plain accuracy."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise DimensionMismatchError(
            f"y_true and y_pred shapes differ: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size == 0:
        return 0.0
    return float(np.mean(y_true == y_pred))


def weighted_prf(
    y_true: Sequence[int] | np.ndarray,
    y_pred: Sequence[int] | np.ndarray,
    labels: Sequence[int],
) -> PRF:
    """Support-weighted average of per-class precision / recall / F1."""
    y_true = np.asarray(y_true, dtype=np.int64)
    supports = np.array([np.sum(y_true == label) for label in labels], dtype=np.float64)
    total = supports.sum()
    if total == 0:
        return PRF(0.0, 0.0, 0.0)
    per_class = [precision_recall_f1(y_true, y_pred, label) for label in labels]
    precision = float(sum(s * p.precision for s, p in zip(supports, per_class)) / total)
    recall = float(sum(s * p.recall for s, p in zip(supports, per_class)) / total)
    f1 = float(sum(s * p.f1 for s, p in zip(supports, per_class)) / total)
    return PRF(precision=precision, recall=recall, f1=f1)


def classification_report(
    y_true: Sequence[int] | np.ndarray,
    y_pred: Sequence[int] | np.ndarray,
    labels: Sequence[RelationType] = RelationType.classification_targets(),
) -> ClassificationReport:
    """Build the per-class + overall report used in Tables IV and V."""
    per_class = {
        label: precision_recall_f1(y_true, y_pred, int(label)) for label in labels
    }
    overall = weighted_prf(y_true, y_pred, [int(label) for label in labels])
    return ClassificationReport(per_class=per_class, overall=overall)


def format_report(report: ClassificationReport, algorithm: str = "") -> str:
    """Render a report as an aligned text table matching the paper layout."""
    header = f"{'Algorithm':<12} {'Community Type':<16} {'Precision':>9} {'Recall':>7} {'F1-score':>9}"
    lines = [header, "-" * len(header)]
    for name, precision, recall, f1 in report.as_rows():
        lines.append(
            f"{algorithm:<12} {name:<16} {precision:>9.3f} {recall:>7.3f} {f1:>9.3f}"
        )
    return "\n".join(lines)
