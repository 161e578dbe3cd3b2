"""Sharded Phase I execution: supervised community division over shards.

The production system streams nodes through 50–200 servers; this executor
reproduces the decomposition (shard → per-ego work → merge) in one process:

* the node set is split into deterministic **shards**
  (:func:`repro.runtime.sharding.shard_nodes`), the unit of a fault,
* the run proceeds in **supervision rounds**: every pending shard applies
  its own fault-plan entry for its current attempt, and the shards that
  pass are divided together in one lockstep
  :func:`~repro.core.division.divide` call against one
  :class:`~repro.graph.csr.CSRGraph` snapshot of the graph, built once per
  run, so their egos share Girvan-Newman rounds,
* a failed attempt is **retried** in the next round after the shard's own
  backoff (:func:`backoff_delay`) on the injected clock, and a shard whose
  attempts run out is **skipped**: it lands in
  ``ExecutionReport.failed_shards`` and the merge covers the rest.  An
  error raised by the lockstep call itself counts as one failed attempt of
  every shard that call carried,
* the round's result is split back per shard and shard results **merge**
  into one :class:`~repro.core.division.DivisionResult` in shard-id order.

The invariant throughout: any fault schedule that eventually succeeds yields
a merged :class:`~repro.core.division.DivisionResult` bit-identical to the
clean run — supervision changes *when* work happens, never *what* it
computes (an ego's division does not depend on which egos share its call).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.clock import Clock, SystemClock
from repro.core.config import ResilienceConfig
from repro.core.division import DivisionResult, LocalCommunity, divide
from repro.exceptions import ShardTimeoutError, WorkerCrashError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.runtime.faultinject import FaultPlan
from repro.runtime.sharding import Shard, shard_nodes, validate_shards
from repro.types import Node


# ------------------------------------------------------------------ retries
#: Exception types retried: the simulated hang and kill, and the builtin
#: ``TimeoutError`` / ``ConnectionError`` / ``OSError`` that model infra
#: flakiness in a shard's own code.
RETRYABLE: tuple[type[BaseException], ...] = (
    ShardTimeoutError,
    WorkerCrashError,
    TimeoutError,
    ConnectionError,
    OSError,
)

#: The backoff before retry ``n`` (1-based) of a shard is
#: ``min(BACKOFF_BASE * BACKOFF_FACTOR**(n-1), BACKOFF_MAX)`` seconds plus a
#: jitter of up to ``JITTER`` times that.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 2.0
JITTER = 0.1


def is_retryable(error: BaseException) -> bool:
    """True when ``error`` is one of :data:`RETRYABLE` or carries a truthy
    ``transient`` attribute (the fault injector marks its synthetic
    transient errors that way)."""
    return bool(getattr(error, "transient", False)) or isinstance(error, RETRYABLE)


def backoff_delay(attempt: int, shard_id: int, seed: int) -> float:
    """Seconds to wait before retry ``attempt`` (1-based) of ``shard_id``.

    The jitter is drawn from ``Random(f"{seed}:{shard_id}:{attempt}")``, a
    pure function of the run's seed and the (shard, attempt) pair, so two
    runs of one fault schedule sleep identically.
    """
    base = min(BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1), BACKOFF_MAX)
    rng = random.Random(f"{seed}:{shard_id}:{attempt}")
    return base + rng.uniform(0.0, JITTER * base)


# ----------------------------------------------------------------- reporting
@dataclass
class ShardReport:
    """Size and supervision information for one processed shard."""

    shard_id: int
    num_egos: int
    num_communities: int
    attempts: int = 1
    """Total attempts made (1 = succeeded first try)."""
    timeouts: int = 0
    """How many of the failed attempts were simulated hangs."""

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class ShardFailure:
    """Record of a shard whose attempts ran out; the executor skips it."""

    shard_id: int
    attempts: int
    error: str
    timeouts: int = 0
    """How many of the failed attempts were simulated hangs."""


@dataclass
class ExecutionReport:
    """Result of a sharded Phase I execution.

    Partial results are first-class: the merged ``division`` covers every
    shard that succeeded and ``failed_shards`` names the ones that did not
    (with attempt counts and the final error), so callers can re-drive
    exactly the missing work.  Both lists are sorted by shard id.
    """

    division: DivisionResult
    shard_reports: list[ShardReport] = field(default_factory=list)
    failed_shards: list[ShardFailure] = field(default_factory=list)
    seconds: float = 0.0
    """Time spent in the run's lockstep ``divide`` calls, on the executor's
    clock.  One call carries many shards, so there is no per-shard time."""

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
    """Run LoCEC Phase I over shards under supervision, in this process.

    Parameters
    ----------
    num_shards:
        Number of shards the node set is split into.
    detector:
        Community detector to run inside each ego network.
    resilience:
        Attempt budget and backoff jitter seed
        (:class:`repro.core.config.ResilienceConfig`).
    fault_plan:
        Optional :class:`~repro.runtime.faultinject.FaultPlan` injecting
        deterministic faults into shard attempts (tests / chaos runs).
    clock:
        Injectable time source for the ``divide`` timing, backoff sleeps and
        simulated hangs; defaults to the system clock.  Tests inject
        :class:`~repro.clock.FakeClock` so no retry path ever
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
        self.fault_plan = fault_plan
        self.clock = clock if clock is not None else SystemClock()

    def run(self, graph: Graph, egos: list[Node] | None = None) -> ExecutionReport:
        """Execute Phase I over all (or the given) egos in supervision rounds.

        Each round is one lockstep ``divide`` call over the pending shards
        whose fault-plan entry let them through; a shard that failed (its
        own fault, or an error of the call that carried it) backs off on the
        injected clock and joins the next round, until it succeeds or its
        attempts run out and it is skipped.
        """
        nodes = list(graph.nodes()) if egos is None else list(egos)
        shards = validate_shards(shard_nodes(nodes, self.num_shards))
        report = ExecutionReport(division=DivisionResult())
        if not shards:
            return report
        # One O(V + E) snapshot per run, not per shard or round.
        snapshot = graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
        attempts = {shard.shard_id: 0 for shard in shards}
        timeouts = dict(attempts)
        failures: dict[int, ShardFailure] = {}
        communities: dict[Node, list[LocalCommunity]] = {}
        pending = shards
        while pending:
            errors = self._round(snapshot, pending, attempts, communities, report)
            retry: list[Shard] = []
            for shard in pending:
                if shard.shard_id not in errors:
                    continue
                sid, error = shard.shard_id, errors[shard.shard_id]
                attempts[sid] += 1
                timeouts[sid] += isinstance(error, ShardTimeoutError)
                if is_retryable(error) and attempts[sid] < self.resilience.max_attempts:
                    self.clock.sleep(backoff_delay(attempts[sid], sid, self.resilience.seed))
                    retry.append(shard)
                else:
                    failures[sid] = ShardFailure(sid, attempts[sid], repr(error), timeouts[sid])
            pending = retry
        for shard in shards:
            sid = shard.shard_id
            if sid in failures:
                report.failed_shards.append(failures[sid])
                continue
            result = DivisionResult({ego: communities[ego] for ego in shard.egos})
            report.division = report.division.merge(result)
            report.shard_reports.append(
                ShardReport(
                    shard_id=sid,
                    num_egos=result.num_egos,
                    num_communities=result.num_communities,
                    attempts=attempts[sid] + 1,
                    timeouts=timeouts[sid],
                )
            )
        return report

    def _round(
        self,
        snapshot: CSRGraph,
        pending: list[Shard],
        attempts: dict[int, int],
        communities: dict[Node, list[LocalCommunity]],
        report: ExecutionReport,
    ) -> dict[int, Exception]:
        """One supervision round; returns the error of each shard that failed.

        Every pending shard applies its fault-plan entry for its current
        attempt (a hang advances the injected clock and raises
        ``ShardTimeoutError``, a kill raises ``WorkerCrashError``).  The
        shards that pass are divided in one ``divide`` call, in shard order;
        if that call raises, the error is the failed attempt of every shard
        it carried.
        """
        errors: dict[int, Exception] = {}
        carried: list[Shard] = []
        for shard in pending:
            try:
                if self.fault_plan is not None:
                    self.fault_plan.apply(shard.shard_id, attempts[shard.shard_id], self.clock)
            except Exception as exc:  # noqa: BLE001 — supervision boundary
                errors[shard.shard_id] = exc
            else:
                carried.append(shard)
        if carried:
            start = self.clock.perf_counter()
            try:
                result = divide(
                    snapshot,
                    egos=[ego for shard in carried for ego in shard.egos],
                    detector=self.detector,
                )
            except Exception as exc:  # noqa: BLE001 — supervision boundary
                errors.update((shard.shard_id, exc) for shard in carried)
            else:
                communities.update(result.communities_by_ego)
            report.seconds += self.clock.perf_counter() - start
        return errors

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Nothing to release: the executor holds no pool, file or snapshot
        between runs.  Kept with the context-manager form so callers can
        scope an executor the same way whatever it holds."""

    def __enter__(self) -> "ShardedDivisionExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
