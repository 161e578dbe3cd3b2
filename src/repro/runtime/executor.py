"""Sharded Phase I execution: supervised community division over shards.

The production system streams nodes through 50–200 servers; this executor
reproduces the decomposition (shard → per-ego work → merge) in one process:

* the node set is split into deterministic **shards**
  (:func:`repro.runtime.sharding.shard_nodes`), the unit of a fault,
* each shard divides against one :class:`~repro.graph.csr.CSRGraph`
  snapshot of the graph, built once per run,
* a failed attempt is **retried** under a
  :class:`~repro.runtime.resilience.RetryPolicy` (backoff on the injected
  clock), and a shard whose attempts run out is **skipped**: it lands in
  ``ExecutionReport.failed_shards`` and the merge covers the rest,
* shard results **merge** into one
  :class:`~repro.core.division.DivisionResult`.

The invariant throughout: any fault schedule that eventually succeeds yields
a merged :class:`~repro.core.division.DivisionResult` bit-identical to the
clean run — supervision changes *when* work happens, never *what* it
computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import ResilienceConfig
from repro.core.division import DivisionResult, divide
from repro.exceptions import ShardTimeoutError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.runtime.faultinject import FaultPlan
from repro.runtime.resilience import Clock, RetryPolicy, ShardFailure, SystemClock
from repro.runtime.sharding import Shard, shard_nodes, validate_shards
from repro.types import Node


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
    """How many of the failed attempts were simulated hangs."""

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class ExecutionReport:
    """Result of a sharded Phase I execution.

    Partial results are first-class: the merged ``division`` covers every
    shard that succeeded and ``failed_shards`` names the ones that did not
    (with attempt counts and the final error), so callers can re-drive
    exactly the missing work.
    """

    division: DivisionResult
    shard_reports: list[ShardReport] = field(default_factory=list)
    failed_shards: list[ShardFailure] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Compute seconds summed over shards (the serial-equivalent)."""
        return sum(report.seconds for report in self.shard_reports)

    @property
    def makespan_seconds(self) -> float:
        """Parallel wall-clock estimate: the slowest shard dominates."""
        return max((report.seconds for report in self.shard_reports), default=0.0)

    @property
    def total_retries(self) -> int:
        retried = sum(report.retries for report in self.shard_reports)
        return retried + sum(max(0, item.attempts - 1) for item in self.failed_shards)

    @property
    def total_timeouts(self) -> int:
        timed_out = sum(report.timeouts for report in self.shard_reports)
        return timed_out + sum(item.timeouts for item in self.failed_shards)


# ------------------------------------------------------------------ executor
class ShardedDivisionExecutor:
    """Run LoCEC Phase I shard by shard under supervision, in this process.

    Parameters
    ----------
    num_shards:
        Number of shards the node set is split into.
    detector:
        Community detector to run inside each ego network.
    resilience:
        Retry budget and backoff schedule
        (:class:`repro.core.config.ResilienceConfig`).
    fault_plan:
        Optional :class:`~repro.runtime.faultinject.FaultPlan` injecting
        deterministic faults into shard attempts (tests / chaos runs).
    clock:
        Injectable time source for shard timings, backoff sleeps and
        simulated hangs; defaults to the system clock.  Tests inject
        :class:`~repro.runtime.resilience.FakeClock` so no retry path ever
        wall-sleeps.
    """

    def __init__(
        self,
        num_shards: int = 4,
        detector: str = "girvan_newman",
        resilience: ResilienceConfig | None = None,
        fault_plan: FaultPlan | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.num_shards = num_shards
        self.detector = detector
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.resilience.validate()
        self.retry_policy = RetryPolicy.from_config(self.resilience)
        self.fault_plan = fault_plan
        self.clock = clock if clock is not None else SystemClock()

    def run(self, graph: Graph, egos: list[Node] | None = None) -> ExecutionReport:
        """Execute Phase I over all (or the given) egos and merge shard results."""
        nodes = list(graph.nodes()) if egos is None else list(egos)
        shards = validate_shards(shard_nodes(nodes, self.num_shards))
        report = ExecutionReport(division=DivisionResult())
        if shards:
            # One O(V + E) snapshot per run, not per shard.
            snapshot = (
                graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
            )
            for shard in shards:
                self._run_shard(snapshot, shard, report)
        return report

    def _run_shard(self, snapshot: CSRGraph, shard: Shard, report: ExecutionReport) -> None:
        """Retry one shard in place until it succeeds or its attempts run out.

        Faults are simulated: a hang advances the injected clock and raises
        ``ShardTimeoutError``, a kill raises ``WorkerCrashError``.
        """
        attempt = timeouts = 0
        while True:
            try:
                if self.fault_plan is not None:
                    self.fault_plan.apply(shard.shard_id, attempt, self.clock)
                start = self.clock.perf_counter()
                result = divide(snapshot, egos=shard.egos, detector=self.detector)
                seconds = self.clock.perf_counter() - start
            except Exception as exc:  # noqa: BLE001 — supervision boundary
                attempt += 1
                timeouts += isinstance(exc, ShardTimeoutError)
                if self._should_retry(exc, attempt):
                    self.clock.sleep(self.retry_policy.delay(attempt, key=shard.shard_id))
                    continue
                report.failed_shards.append(
                    ShardFailure.from_error(shard.shard_id, attempt, exc, timeouts)
                )
                return
            report.division = report.division.merge(result)
            report.shard_reports.append(
                ShardReport(
                    shard_id=shard.shard_id,
                    num_egos=result.num_egos,
                    num_communities=result.num_communities,
                    seconds=seconds,
                    attempts=attempt + 1,
                    timeouts=timeouts,
                )
            )
            return

    def _should_retry(self, exc: Exception, attempts: int) -> bool:
        return (
            self.retry_policy.is_retryable(exc)
            and attempts < self.retry_policy.max_attempts
        )

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Nothing to release: the executor holds no pool, file or snapshot
        between runs.  Kept with the context-manager form so callers can
        scope an executor the same way whatever it holds."""

    def __enter__(self) -> "ShardedDivisionExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
