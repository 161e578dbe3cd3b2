"""Figure 14 — social-advertising performance of LoCEC-CNN vs Relation targeting."""

from __future__ import annotations

import random

from repro.ads import AdCategory, AdSimulator, Campaign
from repro.core import LoCEC, LoCECConfig
from repro.experiments.common import ExperimentResult
from repro.synthetic.workloads import ExperimentWorkload, make_workload
from repro.types import Edge, RelationType


def run(
    workload: ExperimentWorkload | None = None,
    scale: str = "small",
    seed: int = 0,
    num_seeds: int = 40,
    audience_size: int = 150,
    use_predicted_labels: bool = True,
    cnn_epochs: int = 40,
) -> ExperimentResult:
    """Regenerate Figure 14.

    Two campaigns (furniture and mobile game) are run with both targeting
    policies on the same network and the same CTR scorer.  Expected shape:
    LoCEC-CNN targeting beats Relation on click rate for both categories, and
    by a wider relative margin on interact rate.

    ``use_predicted_labels=False`` uses ground-truth edge types instead of
    LoCEC-CNN predictions (an upper bound that skips the expensive fit).
    """
    workload = workload or make_workload(scale=scale, seed=seed)
    dataset = workload.dataset

    if use_predicted_labels:
        config = LoCECConfig.locec_cnn()
        config.cnn.epochs = cnn_epochs
        pipeline = LoCEC(config)
        pipeline.fit(
            dataset.graph,
            dataset.features,
            dataset.interactions,
            workload.train_edges,
            division=workload.division(),
        )
        edge_labels: dict[Edge, RelationType] = pipeline.classify_network().edge_label_map()
        label_source = "LoCEC-CNN predictions"
    else:
        edge_labels = dict(dataset.edge_types)
        label_source = "ground-truth labels (upper bound)"

    simulator = AdSimulator(dataset, edge_labels, seed=seed)
    rng = random.Random(seed)
    nodes = [node for node in dataset.graph.nodes() if dataset.graph.degree(node) >= 3]

    rows: list[dict[str, object]] = []
    for category in (AdCategory.FURNITURE, AdCategory.MOBILE_GAME):
        seeds = rng.sample(nodes, min(num_seeds, len(nodes)))
        campaign = Campaign(category=category, seeds=seeds, audience_size=audience_size)
        outcomes = simulator.compare_policies(campaign)
        for policy in ("LoCEC-CNN", "Relation"):
            outcome = outcomes[policy]
            rows.append(
                {
                    "Ad Category": category.value,
                    "Policy": policy,
                    "Click Rate (%)": outcome.click_rate * 100,
                    "Interact Rate (%)": outcome.interact_rate * 100,
                    "Audience": outcome.audience_size,
                }
            )
    return ExperimentResult(
        experiment_id="fig14",
        title="Performance in social advertising",
        rows=rows,
        notes=f"edge labels from {label_source}; {num_seeds} seeds per campaign",
    )
