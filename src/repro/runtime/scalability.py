"""Scalability experiment driver (Table VI, Figure 12).

Combines the two halves of the scalability story:

1. **Measured** — run the product (:class:`repro.core.pipeline.LoCEC`) on a
   synthetic network and read the phase wall-clock it reports about itself;
   nothing here re-implements a phase to time it.
2. **Projected** — feed per-item costs (either measured or back-solved from
   the paper) into :class:`repro.runtime.cost_model.CostModel` to regenerate
   the WeChat-scale numbers of Table VI and Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clock import Clock, SystemClock
from repro.core.config import LoCECConfig
from repro.core.pipeline import LoCEC
from repro.runtime.cost_model import (
    ClusterSpec,
    CostCalibration,
    CostModel,
    RuntimeEstimate,
    WorkloadSpec,
)
from repro.synthetic.workloads import ExperimentWorkload


@dataclass
class MeasuredPhaseTimes:
    """Wall-clock seconds of one local ``LoCEC.fit`` + edge classification."""

    num_nodes: int
    num_edges: int
    num_communities: int
    training_seconds: float
    phase1_seconds: float
    phase2_seconds: float
    phase3_seconds: float

    def to_calibration(self) -> CostCalibration:
        """Turn the measurements into a cost-model calibration.

        Training does not decompose per item, so ``training_seconds`` is
        reported but not projected: the calibration keeps the paper's 4.5 h.
        """
        return CostCalibration.from_measurements(
            phase1_seconds=self.phase1_seconds,
            num_nodes=self.num_nodes,
            phase2_seconds=self.phase2_seconds,
            num_communities=self.num_communities,
            phase3_seconds=self.phase3_seconds,
            num_edges=self.num_edges,
        )


def measure_phases(
    workload: ExperimentWorkload,
    config: LoCECConfig | None = None,
    max_egos: int | None = None,
    clock: Clock | None = None,
) -> MeasuredPhaseTimes:
    """Time the LoCEC phases by running the product on a workload.

    Runs ``LoCEC(config, clock=clock).fit`` on the workload's training edges
    and reports what that fit recorded about itself
    (``fit_summary_.timings``): Phase I is ``division``, Phase II
    ``aggregation`` (feature aggregation + community scoring), training the
    community-classifier fit.  Phase III — applying the fitted labeler — is
    one ``predict_edge_proba`` call over the edges incident to the processed
    egos, bracketed by ``clock``.  ``max_egos`` limits Phase I to a node
    sample so the measurement fits a benchmark budget; ``fit`` raises its
    typed :class:`~repro.exceptions.PipelineError` when no community of the
    sample has a labeled edge.  ``config`` defaults to ``LoCECConfig()``
    (LoCEC-CNN, the variant Table VI reports); tests inject a ``FakeClock``.
    """
    clock = clock or SystemClock()
    dataset = workload.dataset
    egos = list(dataset.graph.nodes())[:max_egos]
    processed = set(egos)
    edges = [edge for edge in dataset.graph.edges() if not processed.isdisjoint(edge)]
    with LoCEC(config, clock=clock) as pipeline:
        pipeline.fit(
            dataset.graph,
            dataset.features,
            dataset.interactions,
            workload.train_edges,
            egos=egos,
        )
        start = clock.perf_counter()
        pipeline.predict_edge_proba(edges)
        phase3_seconds = clock.perf_counter() - start
        summary = pipeline.fit_summary_
    assert summary is not None
    return MeasuredPhaseTimes(
        num_nodes=len(egos),
        num_edges=len(edges),
        num_communities=summary.num_communities,
        training_seconds=summary.timings.training,
        phase1_seconds=summary.timings.division,
        phase2_seconds=summary.timings.aggregation,
        phase3_seconds=phase3_seconds,
    )


@dataclass
class ScalabilityStudy:
    """Generates the Table VI / Figure 12 numbers from a cost model."""

    calibration: CostCalibration = field(default_factory=CostCalibration)

    def table6(self) -> RuntimeEstimate:
        """Table VI: full WeChat network on 100 servers."""
        model = CostModel(self.calibration)
        return model.estimate(WorkloadSpec(), ClusterSpec(num_servers=100))

    def figure12a(
        self, node_counts_millions: list[int] = (100, 200, 500, 1000)
    ) -> list[tuple[int, RuntimeEstimate]]:
        """Figure 12(a): run time vs number of input nodes (50 servers)."""
        model = CostModel(self.calibration)
        return model.sweep_nodes(
            [count * 1_000_000 for count in node_counts_millions],
            ClusterSpec(num_servers=50),
        )

    def figure12b(
        self, server_counts: list[int] = (100, 150, 200)
    ) -> list[tuple[int, RuntimeEstimate]]:
        """Figure 12(b): run time vs number of servers (full network)."""
        model = CostModel(self.calibration)
        return model.sweep_servers(list(server_counts))
