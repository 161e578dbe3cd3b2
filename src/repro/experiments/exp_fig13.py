"""Figure 13 — distribution of predicted community and relationship types."""

from __future__ import annotations

from repro.analysis.community_stats import mean_size_by_type, type_distributions
from repro.core import LoCEC, LoCECConfig
from repro.experiments.common import ExperimentResult
from repro.synthetic.workloads import ExperimentWorkload, make_workload
from repro.types import RelationType


def run(
    workload: ExperimentWorkload | None = None,
    scale: str = "small",
    seed: int = 0,
    cnn_epochs: int = 40,
) -> ExperimentResult:
    """Regenerate Figure 13 by applying LoCEC-CNN to the whole network.

    Expected shape: colleagues' share is larger among *edges* than among
    *communities* (and family's smaller), because family communities are much
    smaller than colleague communities.
    """
    workload = workload or make_workload(scale=scale, seed=seed)
    dataset = workload.dataset
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
    result = pipeline.classify_network()
    distributions = type_distributions(result)
    sizes = mean_size_by_type(result)

    rows: list[dict[str, object]] = []
    for level in ("community", "relationship"):
        for relation in RelationType.classification_targets():
            rows.append(
                {
                    "Level": level,
                    "Type": relation.display_name,
                    "Share": distributions[level].get(relation, 0.0),
                }
            )
    notes = "mean predicted community size: " + ", ".join(
        f"{relation.display_name}={size:.1f}" for relation, size in sizes.items()
    )
    return ExperimentResult(
        experiment_id="fig13",
        title="Distribution of predicted community and relationship types",
        rows=rows,
        notes=notes,
    )
