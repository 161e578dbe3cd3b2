"""Sharded Phase II execution: multi-core feature aggregation.

Phase I has run multi-core since PR 6; this module makes Phase II (community
feature aggregation, :mod:`repro.graph.phase2`) the second pipeline phase to
do so.  The shape is slice-and-merge:

* the compiled :class:`~repro.graph.phase2.Phase2Kernel` is published to
  POSIX shared memory **once** (:meth:`repro.graph.shm.SharedPhase2Kernel.
  publish`); every pool worker attaches the O(1)
  :class:`~repro.graph.shm.Phase2ShmHandle` and sees the interaction CSR and
  dense feature matrix zero-copy,
* the community batch is partitioned into deterministic shards bucketed by
  total member count (LPT greedy, ties broken by community position) so
  shard costs balance,
* each worker computes only its community slice — batch rows, statistic
  vectors or the CommCNN input tensor — and the parent merges the blocks
  positionally into the exact arrays the serial path produces.

Bit-identity is the contract, not an aspiration: every per-community
reduction in the kernel is independent of batch composition (community-
strided keys, per-community segment sums), so a shard's block equals the
corresponding slice of the full-batch result bit-for-bit, and the merged
output is byte-equal to the serial run — under any fault schedule that
eventually succeeds.  Supervision (retries, per-shard timeouts, broken-pool
rebuild with lease sweeps, ``on_shard_failure`` semantics, degrade-to-serial,
kernel transport) is the shared
:class:`~repro.runtime.supervisor.ShardSupervisor`, held open across calls so
the kernel is published once and aggregated against many times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Collection, Sequence, Union

import numpy as np

from repro.core.config import ResilienceConfig
from repro.exceptions import ExecutorError, StalePhase2KernelError
from repro.graph.phase2 import Phase2Kernel
from repro.graph.shm import SharedPhase2Kernel
from repro.runtime.faultinject import FaultPlan
from repro.runtime.resilience import Clock, SystemClock
from repro.runtime.supervisor import ShardSupervisor, SupervisionReport
from repro.types import Node

__all__ = [
    "Phase2Shard",
    "Phase2ShardReport",
    "Phase2ExecutionReport",
    "Phase2ShardedRunner",
    "shard_communities",
]

#: One community's kernel work item: ``(members, selected-in-row-order)``.
CommunityPair = tuple[Collection[Node], Sequence[Node]]

#: A shard's computed block: ``(rows, offsets)`` in rows mode, a single
#: array in stats/tensor mode.
ShardResult = Union[np.ndarray, tuple[np.ndarray, np.ndarray]]

_MODES = ("rows", "stats", "tensor")


# ------------------------------------------------------------------ sharding
@dataclass(frozen=True)
class Phase2Shard:
    """One deterministic slice of a community batch.

    ``indices`` are ascending positions into the caller's batch, so merging
    a shard's block back is pure positional assignment.
    """

    shard_id: int
    indices: tuple[int, ...]
    total_members: int


def shard_communities(sizes: Sequence[int], num_shards: int) -> list[Phase2Shard]:
    """Partition communities into at most ``num_shards`` balanced shards.

    Longest-processing-time greedy over member counts: communities are
    visited largest-first (ties by batch position) and each lands in the
    currently lightest bucket (ties by bucket id) — deterministic, and the
    makespan is within 4/3 of optimal.  Member count is the balance proxy
    because the kernel's per-community cost is dominated by the member
    adjacency sweep.  Empty buckets are dropped; shard ids are re-numbered
    densely so fault plans address shards ``0..len-1``.
    """
    if num_shards < 1:
        raise ExecutorError("num_shards must be >= 1")
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    buckets: list[list[int]] = [[] for _ in range(num_shards)]
    loads = [0] * num_shards
    for index in order:
        target = loads.index(min(loads))
        buckets[target].append(index)
        # Even an empty community costs a task slot: floor the load at 1.
        loads[target] += max(1, sizes[index])
    shards: list[Phase2Shard] = []
    for bucket in buckets:
        if not bucket:
            continue
        members = sum(sizes[i] for i in bucket)
        shards.append(
            Phase2Shard(
                shard_id=len(shards),
                indices=tuple(sorted(bucket)),
                total_members=members,
            )
        )
    return shards


# ------------------------------------------------- supervisor specialisation
def _compute_shard(
    kernel: Phase2Kernel, pairs: list[CommunityPair], mode: str, k: int
) -> ShardResult:
    """One shard's aggregation: dispatch on the entry-point mode."""
    if mode == "rows":
        return kernel.community_rows_batch(pairs)
    if mode == "stats":
        return kernel.community_statistics(pairs)
    if mode == "tensor":
        return kernel.community_tensor(pairs, k)
    raise ExecutorError(f"unknown Phase II mode {mode!r}; available: {_MODES}")


def _scatter_into(out: np.ndarray) -> Callable[[tuple[int, ...], ShardResult], None]:
    """Merge for one-block-row-per-community modes: positional assignment."""

    def merge(indices: tuple[int, ...], block: ShardResult) -> None:
        out[list(indices)] = block

    return merge


# ----------------------------------------------------------------- reporting
@dataclass
class Phase2ShardReport:
    """Timing, size and supervision information for one aggregation shard."""

    shard_id: int
    num_communities: int
    total_members: int
    seconds: float
    attempts: int = 1
    timeouts: int = 0

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)


@dataclass
class Phase2ExecutionReport(SupervisionReport[Phase2ShardReport]):
    """Result accounting of one sharded Phase II call.

    Partial results are first-class: under ``on_shard_failure="skip"`` the
    merged arrays cover every shard that succeeded (failed shards leave
    their zero blocks) and ``failed_shards`` names the missing ones.
    """

    mode: str = ""
    num_communities: int = 0
    num_workers: int = 0
    parent_seconds: float = 0.0
    """Parent-side overhead: partition + publish + submit + merge seconds."""

    @property
    def makespan_seconds(self) -> float:
        """Projected parallel wall-clock on ``num_workers`` cores.

        LPT-packs the measured per-shard compute seconds onto the worker
        count and adds the parent-side overhead.  Like
        :func:`repro.runtime.scalability.measure_worker_scaling`, this is
        deliberately independent of how many cores the host actually has —
        it is the quantity the cost model calibrates against.
        """
        if not self.shard_reports:
            return self.parent_seconds
        workers = max(1, self.num_workers)
        loads = [0.0] * workers
        for seconds in sorted(
            (report.seconds for report in self.shard_reports), reverse=True
        ):
            loads[loads.index(min(loads))] += seconds
        return max(loads) + self.parent_seconds


# -------------------------------------------------------------------- runner
class Phase2ShardedRunner:
    """Fan Phase II aggregation out across a supervised process pool.

    Parameters
    ----------
    kernel:
        The compiled :class:`~repro.graph.phase2.Phase2Kernel` to serve.
        Published to shared memory once, on first pooled call.
    num_workers:
        1 runs the sharded path in-process (deterministic shard + merge,
        no pool); >1 uses a process pool of that size.
    num_shards:
        Number of community shards per call; defaults to ``num_workers``.
    resilience:
        Fault-tolerance knobs (:class:`repro.core.config.ResilienceConfig`):
        retry budget/backoff, per-shard timeout, ``on_shard_failure`` mode,
        pool-rebuild budget, transport selection.
    fault_plan:
        Optional :class:`~repro.runtime.faultinject.FaultPlan` injecting
        deterministic faults into shard attempts (tests / chaos runs).
    clock:
        Injectable time source for backoff sleeps and simulated hangs.
    source_versions / version_probe:
        Staleness guard: when both are given, every call compares
        ``version_probe()`` against ``source_versions`` and raises
        :class:`~repro.exceptions.StalePhase2KernelError` on mismatch, so a
        published snapshot can never serve mutated stores.

    The runner keeps its supervisor — pool and shared-memory lease — alive
    across calls (publish once, aggregate many); :meth:`close` — or the
    context-manager form — releases both.
    """

    def __init__(
        self,
        kernel: Phase2Kernel,
        num_workers: int = 2,
        num_shards: int | None = None,
        resilience: ResilienceConfig | None = None,
        fault_plan: FaultPlan | None = None,
        clock: Clock | None = None,
        source_versions: tuple[int, int] | None = None,
        version_probe: Callable[[], tuple[int, int]] | None = None,
    ) -> None:
        if num_workers < 1:
            raise ExecutorError("num_workers must be >= 1")
        if num_shards is not None and num_shards < 1:
            raise ExecutorError("num_shards must be >= 1")
        self.kernel = kernel
        self.num_workers = num_workers
        self.num_shards = num_shards if num_shards is not None else num_workers
        self.source_versions = source_versions
        self.version_probe = version_probe
        self.last_report: Phase2ExecutionReport | None = None
        self._supervisor: ShardSupervisor[ShardResult] = ShardSupervisor(
            kernel,
            shard_fn=_compute_shard,
            publish=SharedPhase2Kernel.publish,
            num_workers=num_workers,
            resilience=resilience if resilience is not None else ResilienceConfig(),
            fault_plan=fault_plan,
            clock=clock if clock is not None else SystemClock(),
        )

    # ------------------------------------------------------------ entry points
    def rows_batch(
        self, pairs: Sequence[CommunityPair]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sharded :meth:`Phase2Kernel.community_rows_batch` (bit-identical)."""
        work = list(pairs)
        sel_sizes = np.fromiter(
            (len(selected) for _, selected in work), dtype=np.int64, count=len(work)
        )
        offsets = np.zeros(len(work) + 1, dtype=np.int64)
        np.cumsum(sel_sizes, out=offsets[1:])
        rows = np.zeros((int(offsets[-1]), self._num_columns()))

        def merge(indices: tuple[int, ...], result: ShardResult) -> None:
            block, block_offsets = result
            for local, index in enumerate(indices):
                rows[offsets[index] : offsets[index + 1]] = block[
                    block_offsets[local] : block_offsets[local + 1]
                ]

        self._execute(work, "rows", 0, merge)
        return rows, offsets

    def statistics(
        self, pairs: Sequence[CommunityPair], out: np.ndarray | None = None
    ) -> np.ndarray:
        """Sharded :meth:`Phase2Kernel.community_statistics` (bit-identical)."""
        work = list(pairs)
        if out is None:
            out = np.zeros((len(work), 2 * self._num_columns() + 1), dtype=np.float64)
        self._execute(work, "stats", 0, _scatter_into(out))
        return out

    def tensor(self, pairs: Sequence[CommunityPair], k: int) -> np.ndarray:
        """Sharded :meth:`Phase2Kernel.community_tensor` (bit-identical)."""
        work = list(pairs)
        tensor = np.zeros((len(work), 1, k, self._num_columns()), dtype=np.float64)
        self._execute(work, "tensor", k, _scatter_into(tensor))
        return tensor

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the pool, the published lease and worker globals.

        Idempotent and safe at any point; the context-manager form calls it
        on exit, and :meth:`FeatureMatrixBuilder.invalidate_kernel` calls it
        so a stale snapshot can never outlive its stores' next write.
        """
        self._supervisor.close()

    def __enter__(self) -> "Phase2ShardedRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- internals
    def _num_columns(self) -> int:
        return self.kernel.interactions.num_dims + self.kernel.features.num_features

    def _check_fresh(self) -> None:
        """Refuse to serve a snapshot whose source stores have moved on."""
        if self.version_probe is None or self.source_versions is None:
            return
        actual = self.version_probe()
        if actual != self.source_versions:
            raise StalePhase2KernelError(self.source_versions, actual)

    def _execute(
        self,
        pairs: list[CommunityPair],
        mode: str,
        k: int,
        merge: Callable[[tuple[int, ...], ShardResult], None],
    ) -> None:
        """Shard ``pairs``, run the shards under supervision and ``merge``
        each completed block back by its batch positions."""
        self._check_fresh()
        report = Phase2ExecutionReport(
            mode=mode, num_communities=len(pairs), num_workers=self.num_workers
        )
        start = time.perf_counter()  # repro-lint: disable=DET001
        shards = shard_communities(
            [len(members) for members, _ in pairs], self.num_shards
        )
        outcomes = self._supervisor.run(
            [
                (shard.shard_id, ([pairs[index] for index in shard.indices], mode, k))
                for shard in shards
            ],
            report,
        )
        for outcome in outcomes:
            shard = shards[outcome.shard_id]
            report.shard_reports.append(
                Phase2ShardReport(
                    shard_id=shard.shard_id,
                    num_communities=len(shard.indices),
                    total_members=shard.total_members,
                    seconds=outcome.seconds,
                    attempts=outcome.attempts,
                    timeouts=outcome.timeouts,
                )
            )
        elapsed = time.perf_counter() - start  # repro-lint: disable=DET001
        # Parent overhead excludes worker compute only on the serial path
        # approximately; for pooled runs the wall time is dominated by the
        # workers, so subtract their reported compute from the elapsed span.
        report.parent_seconds += max(0.0, elapsed - report.total_seconds)
        merge_start = time.perf_counter()  # repro-lint: disable=DET001
        for outcome in outcomes:
            merge(shards[outcome.shard_id].indices, outcome.result)
        report.parent_seconds += time.perf_counter() - merge_start  # repro-lint: disable=DET001
        self.last_report = report
