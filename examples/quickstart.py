"""Quickstart: classify the relationships of a synthetic WeChat-like network.

Generates a small synthetic social network with a survey-style labeled-edge
subset, fits the LoCEC-CNN pipeline, evaluates it on held-out edges (the
Table IV protocol) and prints a few example predictions.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import LoCEC, LoCECConfig
from repro.ml.metrics import format_report
from repro.synthetic import make_workload


def main() -> None:
    # A ~300-user synthetic network plus a simulated user survey, split 80/20.
    workload = make_workload("small", seed=0)
    dataset = workload.dataset
    print(
        f"network: {dataset.num_users} users, {dataset.num_edges} edges, "
        f"{len(workload.labeled_edges)} labeled edges "
        f"({workload.labeled_fraction:.0%} of all edges)"
    )
    print(f"interaction sparsity: {dataset.interaction_sparsity():.0%} of pairs are silent")

    # LoCEC-CNN: Girvan-Newman local communities + CommCNN + logistic regression.
    config = LoCECConfig.locec_cnn()
    pipeline = LoCEC(config)
    pipeline.fit(
        dataset.graph,
        dataset.features,
        dataset.interactions,
        workload.train_edges,
    )
    summary = pipeline.fit_summary_
    print(
        f"\nPhase I found {summary.num_communities} local communities in "
        f"{summary.num_egos} ego networks "
        f"({summary.num_labeled_communities} of them carry a survey label)"
    )

    report = pipeline.evaluate(workload.test_edges)
    print("\nHeld-out edge classification (Table IV protocol):")
    print(format_report(report, "LoCEC-CNN"))

    print("\nExample predictions:")
    for item in workload.test_edges[:5]:
        predicted = pipeline.predict_edge(item.u, item.v)
        print(
            f"  edge ({item.u}, {item.v}): predicted={predicted.display_name:<15} "
            f"true={item.label.display_name}"
        )


if __name__ == "__main__":
    main()
