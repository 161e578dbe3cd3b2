"""Shared infrastructure for the paper-experiment modules.

Every experiment module exposes a ``run(...)`` function that returns an
:class:`ExperimentResult` — a small, renderable container with the experiment
id, a human-readable title and a list of result rows (dicts).  The benchmark
harness times these ``run`` functions, the examples print them, and
EXPERIMENTS.md records their output next to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.baselines import Economix, ProbWP, XGBoostEdgeClassifier
from repro.core import LoCEC, LoCECConfig
from repro.exceptions import ExperimentError
from repro.ml.metrics import classification_report
from repro.synthetic.workloads import ExperimentWorkload
from repro.types import ClassificationReport, LabeledEdge, RelationType


@dataclass
class ExperimentResult:
    """The output of one experiment run."""

    experiment_id: str
    title: str
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def to_text(self) -> str:
        """Render the result as an aligned text table."""
        if not self.rows:
            return f"== {self.experiment_id}: {self.title} ==\n(no rows)"
        columns = list(self.rows[0].keys())
        widths = {
            column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in self.rows))
            for column in columns
        }
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(str(column).ljust(widths[column]) for column in columns))
        lines.append("  ".join("-" * widths[column] for column in columns))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns)
            )
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def report_to_rows(algorithm: str, report: ClassificationReport) -> list[dict[str, object]]:
    """Convert a classification report into Table IV/V-style rows."""
    rows: list[dict[str, object]] = []
    for name, precision, recall, f1 in report.as_rows():
        rows.append(
            {
                "Algorithm": algorithm,
                "Community Type": name,
                "Precision": precision,
                "Recall": recall,
                "F1-score": f1,
            }
        )
    return rows


# --------------------------------------------------------------------- methods
EDGE_METHODS = ("ProbWP", "Economix", "XGBoost", "LoCEC-XGB", "LoCEC-CNN")


def evaluate_method(
    method: str,
    workload: ExperimentWorkload,
    train_edges: Sequence[LabeledEdge] | None = None,
    k: int = 20,
    cnn_epochs: int = 40,
    seed: int = 0,
) -> ClassificationReport:
    """Train one edge-classification method and evaluate it on the test split.

    Parameters
    ----------
    method:
        One of :data:`EDGE_METHODS`.
    workload:
        The dataset + survey + split.
    train_edges:
        Overrides the workload's training edges (used by the Figure 11
        label-fraction sweep); defaults to the full training split.
    k:
        LoCEC feature-matrix row count (ignored by baselines).
    cnn_epochs:
        CommCNN training epochs (benchmarks lower this to bound run time).
    """
    dataset = workload.dataset
    train = list(train_edges) if train_edges is not None else list(workload.train_edges)
    test = list(workload.test_edges)
    if not train or not test:
        raise ExperimentError("workload must provide non-empty train and test splits")
    test_edges = [item.edge for item in test]
    y_true = np.array([int(item.label) for item in test])

    if method == "ProbWP":
        model = ProbWP(num_hashes=20, seed=seed)
        model.fit(dataset.graph, train)
        y_pred = np.array([int(label) for label in model.predict(test_edges)])
    elif method == "Economix":
        model = Economix()
        model.fit(dataset.graph, dataset.interactions, train)
        y_pred = np.array([int(label) for label in model.predict(test_edges)])
    elif method == "XGBoost":
        model = XGBoostEdgeClassifier()
        model.fit(dataset.features, dataset.interactions, train)
        y_pred = np.array([int(label) for label in model.predict(test_edges)])
    elif method in {"LoCEC-XGB", "LoCEC-CNN"}:
        variant = "xgb" if method == "LoCEC-XGB" else "cnn"
        config = LoCECConfig(community_model=variant, k=k)
        config.cnn.epochs = cnn_epochs
        pipeline = LoCEC(config)
        pipeline.fit(
            dataset.graph,
            dataset.features,
            dataset.interactions,
            train,
            division=workload.division(),
        )
        y_pred = np.array([int(label) for label in pipeline.predict_edges(test_edges)])
    else:
        raise ExperimentError(f"unknown method {method!r}; available: {EDGE_METHODS}")

    return classification_report(y_true, y_pred)


def evaluate_all_methods(
    workload: ExperimentWorkload,
    methods: Sequence[str] = EDGE_METHODS,
    train_edges: Sequence[LabeledEdge] | None = None,
    cnn_epochs: int = 40,
    seed: int = 0,
) -> dict[str, ClassificationReport]:
    """Evaluate several methods on the same workload and splits."""
    return {
        method: evaluate_method(
            method,
            workload,
            train_edges=train_edges,
            cnn_epochs=cnn_epochs,
            seed=seed,
        )
        for method in methods
    }


def overall_f1(report: ClassificationReport) -> float:
    """The support-weighted overall F1 of a report (0 when undefined)."""
    return report.overall.f1 if report.overall is not None else 0.0


def per_class_f1(report: ClassificationReport, relation: RelationType) -> float:
    """F1 of one class (0 when the class is absent from the report)."""
    if relation not in report.per_class:
        return 0.0
    return report.per_class[relation].f1
