"""Sharded Phase I execution: fault-tolerant community division over shards.

The production system streams nodes through 50–200 servers; this executor
reproduces the decomposition (shard → per-ego work → merge) at laptop scale.
What is Phase I's own lives here:

* the node set is split into deterministic **shards**
  (:func:`repro.runtime.sharding.shard_nodes`),
* completed shard results optionally **checkpoint** to disk, and
  ``run(resume_from=...)`` skips fingerprint-matching shards so a killed run
  resumes instead of recomputing,
* shard results **merge** into one
  :class:`~repro.core.division.DivisionResult`.

Everything that makes the run survivable — retries, per-shard timeouts,
broken-pool rebuild, degrade-to-serial and ``on_shard_failure`` semantics —
is the shared :class:`~repro.runtime.supervisor.ShardSupervisor`, opened for
the duration of each ``run`` so no pool outlives it.  Its payload is the
graph's :class:`~repro.graph.csr.CSRGraph` snapshot, built once per run in
this process and handed to every pool worker as is.

The invariant throughout: any fault schedule that eventually succeeds yields
a merged :class:`~repro.core.division.DivisionResult` bit-identical to the
clean serial run — supervision changes *when* work happens, never *what* it
computes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ResilienceConfig
from repro.core.division import DivisionResult, divide
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.runtime.faultinject import FaultPlan
from repro.runtime.resilience import (
    Clock,
    ShardCheckpointStore,
    SystemClock,
    graph_value_digest,
)
from repro.runtime.sharding import Shard, shard_nodes, validate_shards
from repro.runtime.supervisor import (
    ShardOutcome,
    ShardSupervisor,
    ShardTask,
    SupervisionReport,
    reset_worker_state,
)
from repro.types import Node


# ------------------------------------------------- supervisor specialisation
def _divide_shard(graph: CSRGraph, shard: Shard, detector: str) -> DivisionResult:
    return divide(graph, egos=shard.egos, detector=detector)


# ----------------------------------------------------------------- reporting
@dataclass
class ShardReport:
    """Timing, size and supervision information for one processed shard."""

    shard_id: int
    num_egos: int
    num_communities: int
    seconds: float
    attempts: int = 1
    """Total attempts made (1 = succeeded first try)."""
    timeouts: int = 0
    """How many of the failed attempts were per-shard timeouts."""
    from_checkpoint: bool = False
    """True when the result was loaded from a checkpoint, not recomputed."""

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class ExecutionReport(SupervisionReport[ShardReport]):
    """Result of a sharded Phase I execution.

    Partial results are first-class: under ``on_shard_failure="skip"`` the
    merged ``division`` covers every shard that succeeded and
    ``failed_shards`` names the ones that did not (with attempt counts and
    the final error), so callers can re-drive exactly the missing work.
    """

    division: DivisionResult

    @property
    def makespan_seconds(self) -> float:
        """Parallel wall-clock estimate: the slowest shard dominates."""
        if not self.shard_reports:
            return 0.0
        return max(report.seconds for report in self.shard_reports)

    def mean_seconds_per_ego(self) -> float:
        egos = sum(report.num_egos for report in self.shard_reports)
        return self.total_seconds / egos if egos else 0.0


# ------------------------------------------------------------------ executor
class ShardedDivisionExecutor:
    """Run LoCEC Phase I shard by shard under supervision.

    Parameters
    ----------
    num_shards:
        Number of shards the node set is split into.
    num_workers:
        1 for serial (deterministic) execution; >1 uses a process pool.
    detector:
        Community detector to run inside each ego network.
    strategy:
        Sharding strategy (see :func:`repro.runtime.sharding.shard_nodes`).
    resilience:
        Fault-tolerance knobs (:class:`repro.core.config.ResilienceConfig`):
        retry budget and backoff, per-shard timeout, ``on_shard_failure``
        mode, checkpoint directory, pool-rebuild budget.
    fault_plan:
        Optional :class:`~repro.runtime.faultinject.FaultPlan` injecting
        deterministic faults into shard attempts (tests / chaos runs).
    clock:
        Injectable time source for backoff sleeps and simulated hangs;
        defaults to the system clock.  Tests inject
        :class:`~repro.runtime.resilience.FakeClock` so no retry path ever
        wall-sleeps.
    """

    def __init__(
        self,
        num_shards: int = 4,
        num_workers: int = 1,
        detector: str = "girvan_newman",
        strategy: str = "round_robin",
        resilience: ResilienceConfig | None = None,
        fault_plan: FaultPlan | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.num_shards = num_shards
        self.num_workers = num_workers
        self.detector = detector
        self.strategy = strategy
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.resilience.validate()
        self.fault_plan = fault_plan
        self.clock = clock if clock is not None else SystemClock()

    def run(
        self,
        graph: Graph,
        egos: list[Node] | None = None,
        resume_from: str | None = None,
    ) -> ExecutionReport:
        """Execute Phase I over all (or the given) egos and merge shard results.

        ``resume_from`` names a checkpoint directory from a previous run:
        shards whose checkpoint fingerprint (id + ego list + detector +
        graph identity) matches are loaded instead of recomputed, so a killed
        run resumes where it stopped and a run over a changed graph starts
        over.  When ``resilience.checkpoint_dir`` is set, every completed
        shard spills there as it finishes.
        """
        nodes = list(graph.nodes()) if egos is None else list(egos)
        shards = {
            shard.shard_id: shard
            for shard in validate_shards(
                shard_nodes(nodes, self.num_shards, strategy=self.strategy)
            )
        }
        report = ExecutionReport(division=DivisionResult())

        # A checkpoint belongs to one graph, identified by value — hashed
        # only when a store is opened, the hash is O(V + E).
        graph_id = None
        if self.resilience.checkpoint_dir or resume_from:
            graph_id = graph_value_digest(graph)
        write_store = (
            ShardCheckpointStore(self.resilience.checkpoint_dir, graph_id=graph_id)
            if self.resilience.checkpoint_dir
            else None
        )
        resume_store = (
            ShardCheckpointStore(resume_from, graph_id=graph_id) if resume_from else None
        )

        def spill(outcome: ShardOutcome[DivisionResult]) -> None:
            if write_store is not None:
                write_store.save(
                    shards[outcome.shard_id], self.detector, outcome.result, outcome.seconds
                )

        resumed: list[ShardOutcome[DivisionResult]] = []
        tasks: list[ShardTask] = []
        for shard in shards.values():
            checkpoint = resume_store.load(shard, self.detector) if resume_store else None
            if checkpoint is None:
                tasks.append((shard.shard_id, (shard, self.detector)))
            else:
                # attempts=0 marks a result that was loaded, never run.
                resumed.append(
                    ShardOutcome(
                        shard.shard_id,
                        checkpoint.division,
                        checkpoint.seconds,
                        attempts=0,
                        timeouts=0,
                    )
                )

        computed: list[ShardOutcome[DivisionResult]] = []
        if tasks:
            # One O(V + E) snapshot per run, not per shard or per worker.
            snapshot = (
                graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
            )
            with ShardSupervisor(
                snapshot,
                shard_fn=_divide_shard,
                num_workers=self.num_workers,
                resilience=self.resilience,
                fault_plan=self.fault_plan,
                clock=self.clock,
            ) as supervisor:
                computed = supervisor.run(tasks, report, on_result=spill)

        for outcome in sorted(resumed + computed, key=lambda item: item.shard_id):
            report.division = report.division.merge(outcome.result)
            report.shard_reports.append(
                ShardReport(
                    shard_id=outcome.shard_id,
                    num_egos=outcome.result.num_egos,
                    num_communities=outcome.result.num_communities,
                    seconds=outcome.seconds,
                    attempts=outcome.attempts,
                    timeouts=outcome.timeouts,
                    from_checkpoint=outcome.attempts == 0,
                )
            )
        return report

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Reset the module-level worker globals.

        The supervisor (pool and snapshot) is opened and closed inside each
        ``run``, so nothing is held between runs; this is the close surface
        callers already use.  Idempotent and safe to call at any point; the
        context-manager form calls it on exit.
        """
        reset_worker_state()

    def __enter__(self) -> "ShardedDivisionExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
