"""Calibrated cost model projecting LoCEC run time to WeChat scale.

The paper's scalability results (Table VI, Figure 12) are measured on the
full WeChat network (≈10⁹ nodes, ≈1.4·10¹¹ edges) on 50–200 servers.  We
cannot run that workload, but LoCEC's phases are all per-node / per-edge
streaming computations, so the total cost decomposes as

``time(phase) = per_item_cost(phase) × num_items / (servers × cores × efficiency)``

The per-item costs are *calibrated* from real measurements on the local
simulator (:class:`CostCalibration` can be produced by timing a real run) or
taken from defaults back-solved from the paper's own Table VI, which is what
keeps the projected shapes (linear in nodes, inverse in servers, Phase I
dominating) faithful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ModelConfigError

#: Reference WeChat-scale workload reported by the paper.
WECHAT_NUM_NODES = 1_000_000_000
WECHAT_NUM_EDGES = 140_000_000_000
WECHAT_NUM_COMMUNITIES = 5_200_000_000
REFERENCE_SERVERS = 100
REFERENCE_CORES_PER_SERVER = 12


@dataclass
class CostCalibration:
    """Per-item processing costs (in core-seconds).

    The defaults are back-solved from Table VI of the paper: with 100 servers
    × 12 cores, Phase I took 46.5 h over 10⁹ nodes, Phase II 15.3 h over
    5.2·10⁹ communities and Phase III 7.4 h over 1.4·10¹¹ edges.
    """

    phase1_per_node: float = 46.5 * 3600 * REFERENCE_SERVERS * REFERENCE_CORES_PER_SERVER / WECHAT_NUM_NODES
    phase2_per_community: float = 15.3 * 3600 * REFERENCE_SERVERS * REFERENCE_CORES_PER_SERVER / WECHAT_NUM_COMMUNITIES
    phase3_per_edge: float = 7.4 * 3600 * REFERENCE_SERVERS * REFERENCE_CORES_PER_SERVER / WECHAT_NUM_EDGES
    training_hours: float = 4.5
    parallel_efficiency: float = 1.0

    def validate(self) -> None:
        if min(self.phase1_per_node, self.phase2_per_community, self.phase3_per_edge) <= 0:
            raise ModelConfigError("per-item costs must be positive")
        if not 0.0 < self.parallel_efficiency <= 1.0:
            raise ModelConfigError("parallel_efficiency must be in (0, 1]")

    @classmethod
    def from_measurements(
        cls,
        phase1_seconds: float,
        num_nodes: int,
        phase2_seconds: float,
        num_communities: int,
        phase3_seconds: float,
        num_edges: int,
        training_hours: float = 4.5,
    ) -> "CostCalibration":
        """Calibrate per-item costs from a measured local (single-core) run."""
        if min(num_nodes, num_communities, num_edges) <= 0:
            raise ModelConfigError("calibration item counts must be positive")
        return cls(
            phase1_per_node=phase1_seconds / num_nodes,
            phase2_per_community=phase2_seconds / num_communities,
            phase3_per_edge=phase3_seconds / num_edges,
            training_hours=training_hours,
        )


@dataclass
class ClusterSpec:
    """A compute cluster: servers × cores per server."""

    num_servers: int = REFERENCE_SERVERS
    cores_per_server: int = REFERENCE_CORES_PER_SERVER

    @property
    def total_cores(self) -> int:
        return self.num_servers * self.cores_per_server


@dataclass
class WorkloadSpec:
    """A network-scale workload: node/edge/community counts."""

    num_nodes: int = WECHAT_NUM_NODES
    num_edges: int = WECHAT_NUM_EDGES
    num_communities: int = WECHAT_NUM_COMMUNITIES

    @classmethod
    def scaled_wechat(cls, num_nodes: int) -> "WorkloadSpec":
        """A workload with WeChat-like edge/community densities at ``num_nodes``."""
        scale = num_nodes / WECHAT_NUM_NODES
        return cls(
            num_nodes=num_nodes,
            num_edges=int(WECHAT_NUM_EDGES * scale),
            num_communities=int(WECHAT_NUM_COMMUNITIES * scale),
        )


@dataclass
class RuntimeEstimate:
    """Projected wall-clock hours per phase (Table VI layout)."""

    training_hours: float
    phase1_hours: float
    phase2_hours: float
    phase3_hours: float

    @property
    def total_hours(self) -> float:
        return (
            self.training_hours
            + self.phase1_hours
            + self.phase2_hours
            + self.phase3_hours
        )

    def as_row(self) -> dict[str, float]:
        return {
            "Training": round(self.training_hours, 1),
            "Phase I": round(self.phase1_hours, 1),
            "Phase II": round(self.phase2_hours, 1),
            "Phase III": round(self.phase3_hours, 1),
            "Total": round(self.total_hours, 1),
        }


@dataclass
class CostModel:
    """Projects LoCEC run time for a workload on a cluster."""

    calibration: CostCalibration = field(default_factory=CostCalibration)

    def __post_init__(self) -> None:
        self.calibration.validate()

    def estimate(
        self,
        workload: WorkloadSpec,
        cluster: ClusterSpec,
        include_training: bool = True,
    ) -> RuntimeEstimate:
        """Projected per-phase hours of one LoCEC-CNN run."""
        effective_cores = cluster.total_cores * self.calibration.parallel_efficiency
        if effective_cores <= 0:
            raise ModelConfigError("cluster must have at least one effective core")
        to_hours = 1.0 / 3600.0
        return RuntimeEstimate(
            training_hours=self.calibration.training_hours if include_training else 0.0,
            phase1_hours=self.calibration.phase1_per_node
            * workload.num_nodes
            / effective_cores
            * to_hours,
            phase2_hours=self.calibration.phase2_per_community
            * workload.num_communities
            / effective_cores
            * to_hours,
            phase3_hours=self.calibration.phase3_per_edge
            * workload.num_edges
            / effective_cores
            * to_hours,
        )

    def sweep_nodes(
        self,
        node_counts: list[int],
        cluster: ClusterSpec,
    ) -> list[tuple[int, RuntimeEstimate]]:
        """Figure 12(a): run time as the number of input nodes grows."""
        return [
            (count, self.estimate(WorkloadSpec.scaled_wechat(count), cluster, include_training=False))
            for count in node_counts
        ]

    def sweep_servers(
        self,
        server_counts: list[int],
        workload: WorkloadSpec | None = None,
        cores_per_server: int = REFERENCE_CORES_PER_SERVER,
    ) -> list[tuple[int, RuntimeEstimate]]:
        """Figure 12(b): run time as the number of servers grows."""
        workload = workload or WorkloadSpec()
        return [
            (
                count,
                self.estimate(
                    workload,
                    ClusterSpec(num_servers=count, cores_per_server=cores_per_server),
                    include_training=False,
                ),
            )
            for count in server_counts
        ]
