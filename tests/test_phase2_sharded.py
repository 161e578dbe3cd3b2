"""Tests for sharded Phase II execution (:mod:`repro.runtime.phase2_exec`).

The PR's hard invariant is bit-identity: for every entry point — batch rows,
statistic vectors, the CommCNN input tensor — the sharded path must produce
arrays byte-equal to the serial kernel, on int- and string-labeled graphs,
under uneven shard buckets, in the ``phase2_workers=1`` degenerate case, and
under seeded kill/hang fault schedules that force pool rebuilds.  The slow
tier additionally proves /dev/shm segments never leak across a forced
rebuild, and the staleness guard refuses to serve a published kernel whose
source stores have moved on.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.aggregation import FeatureMatrixBuilder
from repro.core.config import LoCECConfig, ResilienceConfig, RuntimeOptions
from repro.core.division import LocalCommunity
from repro.exceptions import (
    ExecutorError,
    ModelConfigError,
    PipelineError,
    ShardFailedError,
    StalePhase2KernelError,
)
from repro.graph import InteractionStore, NodeFeatureStore
from repro.graph.phase2 import Phase2Kernel
from repro.graph.shm import shm_supported
from repro.lint.config import default_config
from repro.runtime.faultinject import Fault, FaultPlan
from repro.runtime.phase2_exec import (
    Phase2ExecutionReport,
    Phase2ShardedRunner,
    Phase2ShardReport,
    shard_communities,
)
from repro.runtime.resilience import FakeClock

needs_shm = pytest.mark.skipif(
    not shm_supported(), reason="POSIX shared memory unavailable"
)

K = 5
CSR = RuntimeOptions(backend="csr")

#: Deliberately skewed sizes so LPT produces uneven shard buckets.
SKEWED_SIZES = (12, 1, 8, 2, 2, 7, 1, 5, 3, 1)


def _labels(kind: str, count: int = 30) -> list:
    if kind == "str":
        # String labels defeat small-int set-layout coincidences.
        return [f"user:{node:04d}" for node in range(count)]
    return list(range(count))


def _stores(seed: int, labels: list) -> tuple[NodeFeatureStore, InteractionStore]:
    """Random stores over ``labels``, with some nodes missing on purpose."""
    rng = random.Random(seed)
    features = NodeFeatureStore(["f0", "f1", "f2"])
    interactions = InteractionStore(num_dims=4)
    for node in labels:
        if rng.random() < 0.85:
            features.set(node, [rng.randint(0, 5) + 0.5 for _ in range(3)])
    for i, u in enumerate(labels):
        for v in labels[i + 1 :]:
            if rng.random() < 0.3:
                interactions.record(u, v, rng.randrange(4), rng.randint(1, 9))
    return features, interactions


def _communities(
    seed: int, labels: list, sizes: tuple[int, ...] = SKEWED_SIZES
) -> list[LocalCommunity]:
    rng = random.Random(seed + 99)
    communities = []
    for index, size in enumerate(sizes):
        members = frozenset(rng.sample(labels, min(size, len(labels))))
        communities.append(
            LocalCommunity(
                ego=labels[0],
                members=members,
                tightness={member: rng.random() for member in members},
                index=index,
            )
        )
    return communities


def _tensor_pairs(communities, k: int = K):
    return [
        (community.members, community.members_by_tightness()[:k])
        for community in communities
    ]


def _stat_pairs(communities):
    return [
        (community.members, community.members_by_tightness())
        for community in communities
    ]


def _assert_runner_matches_kernel(runner, kernel, communities, k: int = K) -> None:
    """All three entry points, bit-for-bit against the serial kernel."""
    tensor_pairs = _tensor_pairs(communities, k)
    stat_pairs = _stat_pairs(communities)
    rows, offsets = runner.rows_batch(tensor_pairs)
    serial_rows, serial_offsets = kernel.community_rows_batch(tensor_pairs)
    assert np.array_equal(rows, serial_rows)
    assert np.array_equal(offsets, serial_offsets)
    assert np.array_equal(
        runner.statistics(stat_pairs), kernel.community_statistics(stat_pairs)
    )
    assert np.array_equal(
        runner.tensor(tensor_pairs, k=k), kernel.community_tensor(tensor_pairs, k)
    )


# ----------------------------------------------------------------- sharding
class TestShardCommunities:
    def test_lpt_balances_skewed_sizes(self):
        shards = shard_communities([5, 1, 9, 2, 2, 7], 3)
        loads = sorted(shard.total_members for shard in shards)
        assert loads == [8, 9, 9]
        assert [shard.shard_id for shard in shards] == [0, 1, 2]

    def test_partition_is_exact_and_ascending(self):
        sizes = list(SKEWED_SIZES)
        shards = shard_communities(sizes, 4)
        seen = [index for shard in shards for index in shard.indices]
        assert sorted(seen) == list(range(len(sizes)))
        for shard in shards:
            assert list(shard.indices) == sorted(shard.indices)

    def test_empty_buckets_dropped_and_renumbered(self):
        shards = shard_communities([3, 2], 5)
        assert len(shards) == 2
        assert [shard.shard_id for shard in shards] == [0, 1]

    def test_deterministic(self):
        assert shard_communities(list(SKEWED_SIZES), 3) == shard_communities(
            list(SKEWED_SIZES), 3
        )

    def test_invalid_shard_count(self):
        with pytest.raises(ExecutorError):
            shard_communities([1, 2], 0)


# ------------------------------------------------------------- bit identity
class TestBitIdentityInProcess:
    """The in-process sharded path (num_workers=1): shard + merge only."""

    @pytest.mark.parametrize("label_kind", ["int", "str"])
    @pytest.mark.parametrize("num_shards", [1, 3, 7])
    def test_all_entry_points_match_serial_kernel(self, label_kind, num_shards):
        labels = _labels(label_kind)
        features, interactions = _stores(0, labels)
        communities = _communities(0, labels)
        kernel = Phase2Kernel.compile(features, interactions)
        with Phase2ShardedRunner(
            kernel, num_workers=1, num_shards=num_shards
        ) as runner:
            _assert_runner_matches_kernel(runner, kernel, communities)

    def test_more_shards_than_communities(self):
        labels = _labels("int")
        features, interactions = _stores(1, labels)
        communities = _communities(1, labels, sizes=(4, 2))
        kernel = Phase2Kernel.compile(features, interactions)
        with Phase2ShardedRunner(kernel, num_workers=1, num_shards=16) as runner:
            _assert_runner_matches_kernel(runner, kernel, communities)

    def test_empty_batch(self):
        labels = _labels("int")
        features, interactions = _stores(2, labels)
        kernel = Phase2Kernel.compile(features, interactions)
        with Phase2ShardedRunner(kernel, num_workers=1, num_shards=3) as runner:
            rows, offsets = runner.rows_batch([])
            assert rows.shape[0] == 0
            assert list(offsets) == [0]
            assert runner.statistics([]).shape[0] == 0

    def test_report_accounting(self):
        labels = _labels("int")
        features, interactions = _stores(3, labels)
        communities = _communities(3, labels)
        kernel = Phase2Kernel.compile(features, interactions)
        with Phase2ShardedRunner(kernel, num_workers=1, num_shards=3) as runner:
            runner.statistics(_stat_pairs(communities))
            report = runner.last_report
        assert report is not None
        assert report.mode == "stats"
        assert report.num_communities == len(communities)
        assert sum(r.num_communities for r in report.shard_reports) == len(
            communities
        )
        assert report.failed_shards == []
        assert report.makespan_seconds >= 0.0


# ------------------------------------------------------------ builder route
class TestBuilderRouting:
    def _builders(self, seed=4):
        labels = _labels("int")
        features, interactions = _stores(seed, labels)
        communities = _communities(seed, labels)
        serial = FeatureMatrixBuilder(features, interactions, k=K, options=CSR)
        sharded = FeatureMatrixBuilder(
            features, interactions, k=K, options=replace(CSR, phase2_workers=1)
        )
        return serial, sharded, communities

    def test_degenerate_single_worker_bit_identical(self):
        """phase2_workers=1: sharded slice-and-merge, no pool — byte-equal."""
        serial, sharded, communities = self._builders()
        with sharded:
            assert np.array_equal(
                serial.statistic_vectors(communities),
                sharded.statistic_vectors(communities),
            )
            assert np.array_equal(
                serial.matrices_as_tensor(communities),
                sharded.matrices_as_tensor(communities),
            )
            for left, right in zip(
                serial.feature_matrices(communities),
                sharded.feature_matrices(communities),
            ):
                assert left.member_order == right.member_order
                assert np.array_equal(left.matrix, right.matrix)
            assert sharded.phase2_report is not None

    def test_dict_backend_rejects_workers(self):
        labels = _labels("int")
        features, interactions = _stores(5, labels)
        with pytest.raises(PipelineError):
            FeatureMatrixBuilder(
                features,
                interactions,
                k=K,
                options=RuntimeOptions(backend="dict", phase2_workers=2),
            )

    def test_config_validation(self):
        with pytest.raises(ModelConfigError):
            LoCECConfig(phase2_workers=-1).validate()
        with pytest.raises(ModelConfigError):
            LoCECConfig(backend="dict", phase2_workers=2).validate()
        LoCECConfig(backend="csr", phase2_workers=2).validate()

    def test_invalidate_kernel_tears_down_runner(self):
        _, sharded, communities = self._builders(6)
        with sharded:
            sharded.statistic_vectors(communities)
            assert sharded._runner is not None
            lease = sharded._runner._supervisor._lease
            sharded.invalidate_kernel()
            assert sharded._runner is None
            if lease is not None:  # pooled transport only
                assert lease.released


# ------------------------------------------------- serial fault simulation
class TestSerialFaultSimulation:
    """Supervision semantics without a pool: faults run in simulation mode."""

    def _setup(self, seed=7):
        labels = _labels("int")
        features, interactions = _stores(seed, labels)
        communities = _communities(seed, labels)
        kernel = Phase2Kernel.compile(features, interactions)
        return kernel, communities

    def test_seeded_schedule_bit_identical(self):
        kernel, communities = self._setup()
        plan = FaultPlan.random(
            list(range(4)), seed=11, fault_rate=0.8, max_attempts=3
        )
        assert len(plan) > 0
        with Phase2ShardedRunner(
            kernel,
            num_workers=1,
            num_shards=4,
            resilience=ResilienceConfig(max_attempts=3, shard_timeout=5.0),
            fault_plan=plan,
            clock=FakeClock(),
        ) as runner:
            _assert_runner_matches_kernel(runner, kernel, communities)
            report = runner.last_report
        assert report is not None
        # The same plan re-fires for every entry-point call.
        assert report.total_retries > 0

    def test_skip_leaves_zero_block_and_records_failure(self):
        kernel, communities = self._setup(8)
        # Permanent fault on shard 0 attempt 0: never retried, budget spent.
        plan = FaultPlan([Fault(0, 0, "permanent")])
        with Phase2ShardedRunner(
            kernel,
            num_workers=1,
            num_shards=3,
            resilience=ResilienceConfig(max_attempts=2, on_shard_failure="skip"),
            fault_plan=plan,
            clock=FakeClock(),
        ) as runner:
            stats = runner.statistics(_stat_pairs(communities))
            report = runner.last_report
        assert report is not None
        assert [f.shard_id for f in report.failed_shards] == [0]
        serial = kernel.community_statistics(_stat_pairs(communities))
        failed_indices = set()
        for shard in shard_communities(
            [len(c.members) for c in communities], 3
        ):
            if shard.shard_id == 0:
                failed_indices = set(shard.indices)
        for index in range(len(communities)):
            if index in failed_indices:
                assert not stats[index].any()
            else:
                assert np.array_equal(stats[index], serial[index])

    def test_skipped_shard_keeps_its_timeouts_in_the_totals(self):
        kernel, communities = self._setup(8)
        plan = FaultPlan([Fault(0, attempt, "hang") for attempt in range(2)])
        with Phase2ShardedRunner(
            kernel,
            num_workers=1,
            num_shards=3,
            resilience=ResilienceConfig(
                max_attempts=2, shard_timeout=1.0, on_shard_failure="skip"
            ),
            fault_plan=plan,
            clock=FakeClock(),
        ) as runner:
            runner.statistics(_stat_pairs(communities))
            report = runner.last_report
        assert report is not None
        (failure,) = report.failed_shards
        assert (failure.shard_id, failure.attempts, failure.timeouts) == (0, 2, 2)
        assert report.total_timeouts == 2

    def test_raise_mode_surfaces_shard_failure(self):
        kernel, communities = self._setup(9)
        plan = FaultPlan([Fault(0, 0, "permanent")])
        with Phase2ShardedRunner(
            kernel,
            num_workers=1,
            num_shards=2,
            resilience=ResilienceConfig(max_attempts=2, on_shard_failure="raise"),
            fault_plan=plan,
            clock=FakeClock(),
        ) as runner:
            with pytest.raises(ShardFailedError):
                runner.statistics(_stat_pairs(communities))

    def test_serial_fallback_recovers_bit_identical(self):
        kernel, communities = self._setup(10)
        plan = FaultPlan(
            [Fault(0, attempt, "permanent") for attempt in range(2)]
        )
        with Phase2ShardedRunner(
            kernel,
            num_workers=1,
            num_shards=3,
            resilience=ResilienceConfig(
                max_attempts=2, on_shard_failure="serial_fallback"
            ),
            fault_plan=plan,
            clock=FakeClock(),
        ) as runner:
            stats = runner.statistics(_stat_pairs(communities))
        assert np.array_equal(
            stats, kernel.community_statistics(_stat_pairs(communities))
        )


# -------------------------------------------------------------- stale guard
class TestStaleKernelGuard:
    def test_mutation_after_publish_raises(self):
        labels = _labels("int")
        features, interactions = _stores(12, labels)
        communities = _communities(12, labels)
        kernel = Phase2Kernel.compile(features, interactions)
        versions = (features.version, interactions.version)
        runner = Phase2ShardedRunner(
            kernel,
            num_workers=1,
            num_shards=2,
            source_versions=versions,
            version_probe=lambda: (features.version, interactions.version),
        )
        try:
            runner.statistics(_stat_pairs(communities))
            features.set(labels[0], [9.0, 9.0, 9.0])
            with pytest.raises(StalePhase2KernelError):
                runner.statistics(_stat_pairs(communities))
        finally:
            runner.close()

    def test_builder_republishes_after_store_write(self):
        """The builder route recompiles + rebuilds the runner instead of
        raising: parity with a fresh serial builder holds across writes."""
        labels = _labels("int")
        features, interactions = _stores(13, labels)
        communities = _communities(13, labels)
        with FeatureMatrixBuilder(
            features, interactions, k=K, options=replace(CSR, phase2_workers=1)
        ) as sharded:
            sharded.statistic_vectors(communities)
            first_runner = sharded._runner
            interactions.record(labels[0], labels[1], 0, 100)
            features.set(labels[0], [7.0, 7.0, 7.0])
            fresh = FeatureMatrixBuilder(features, interactions, k=K, options=CSR)
            assert np.array_equal(
                sharded.statistic_vectors(communities),
                fresh.statistic_vectors(communities),
            )
            assert sharded._runner is not first_runner


# ---------------------------------------------------------------- reporting
class TestExecutionReport:
    def test_makespan_is_lpt_packing_plus_overhead(self):
        report = Phase2ExecutionReport(num_workers=2, parent_seconds=0.5)
        for shard_id, seconds in enumerate([3.0, 2.0, 2.0, 1.0]):
            report.shard_reports.append(
                Phase2ShardReport(
                    shard_id=shard_id,
                    num_communities=1,
                    total_members=1,
                    seconds=seconds,
                )
            )
        # LPT onto 2 workers: {3, 1} and {2, 2} -> makespan 4.
        assert report.makespan_seconds == pytest.approx(4.0 + 0.5)
        assert report.total_seconds == pytest.approx(8.0)

    def test_empty_report_makespan_is_overhead(self):
        report = Phase2ExecutionReport(num_workers=4, parent_seconds=0.25)
        assert report.makespan_seconds == pytest.approx(0.25)


# --------------------------------------------------------------- lint scope
class TestLintScope:
    def test_mp_rules_cover_phase2_exec(self):
        config = default_config()
        for rule in ("MP001", "MP003"):
            assert config.applies_to(rule, "src/repro/runtime/phase2_exec.py")
            assert config.applies_to(rule, "src/repro/runtime/executor.py")
            assert config.applies_to(rule, "src/repro/runtime/supervisor.py")

    def test_pinned_entries_survive_scope_narrowing(self):
        """The explicit file entries keep the MP rules on the supervisors
        even if the broad src/repro prefix is dropped."""
        config = default_config().with_scope(
            "MP001",
            "src/repro/runtime/executor.py",
            "src/repro/runtime/phase2_exec.py",
            "src/repro/runtime/supervisor.py",
        )
        assert config.applies_to("MP001", "src/repro/runtime/phase2_exec.py")
        assert config.applies_to("MP001", "src/repro/runtime/supervisor.py")
        assert not config.applies_to("MP001", "src/repro/core/pipeline.py")


# ------------------------------------------------------------- pooled tier
@needs_shm
@pytest.mark.slow
class TestPooledExecution:
    def _setup(self, seed=20):
        labels = _labels("str")
        features, interactions = _stores(seed, labels)
        communities = _communities(seed, labels)
        kernel = Phase2Kernel.compile(features, interactions)
        return kernel, communities

    def test_pooled_bit_identical_over_shm(self):
        kernel, communities = self._setup()
        with Phase2ShardedRunner(
            kernel,
            num_workers=2,
            num_shards=3,
            resilience=ResilienceConfig(transport="shm"),
        ) as runner:
            _assert_runner_matches_kernel(runner, kernel, communities)
            report = runner.last_report
        assert report is not None
        assert report.transport.transport == "shm"
        assert report.transport.payload_bytes < 4096  # O(1) handle
        assert report.transport.segment_bytes > 0

    def test_pooled_bit_identical_over_pickle(self):
        kernel, communities = self._setup(21)
        with Phase2ShardedRunner(
            kernel,
            num_workers=2,
            num_shards=3,
            resilience=ResilienceConfig(transport="pickle"),
        ) as runner:
            _assert_runner_matches_kernel(runner, kernel, communities)
            report = runner.last_report
        assert report is not None
        assert report.transport.transport == "pickle"

    def test_seeded_kill_hang_schedule_rebuilds_and_merges_identical(self):
        kernel, communities = self._setup(22)
        plan = FaultPlan(
            [
                Fault(0, 0, "kill"),
                Fault(1, 0, "hang", duration=0.2),
                Fault(2, 1, "transient"),
            ]
        )
        with Phase2ShardedRunner(
            kernel,
            num_workers=2,
            num_shards=3,
            resilience=ResilienceConfig(
                max_attempts=3,
                shard_timeout=30.0,
                max_pool_rebuilds=2,
                transport="shm",
            ),
            fault_plan=plan,
            clock=FakeClock(),
        ) as runner:
            stat_pairs = _stat_pairs(communities)
            stats = runner.statistics(stat_pairs)
            report = runner.last_report
        assert report is not None
        assert report.pool_rebuilds >= 1
        assert report.total_retries >= 1
        # The pre-rebuild lease was swept and the kernel republished.
        assert report.transport.swept_segments > 0
        assert np.array_equal(stats, kernel.community_statistics(stat_pairs))

    def test_no_dev_shm_leak_after_forced_rebuild(self):
        shm_dir = Path("/dev/shm")
        before = (
            {p.name for p in shm_dir.iterdir() if p.name.startswith("psm_")}
            if shm_dir.is_dir()
            else set()
        )
        kernel, communities = self._setup(23)
        plan = FaultPlan([Fault(0, 0, "kill")])
        with Phase2ShardedRunner(
            kernel,
            num_workers=2,
            num_shards=3,
            resilience=ResilienceConfig(
                max_attempts=3,
                max_pool_rebuilds=2,
                transport="shm",
            ),
            fault_plan=plan,
            clock=FakeClock(),
        ) as runner:
            runner.statistics(_stat_pairs(communities))
            report = runner.last_report
        assert report is not None
        assert report.pool_rebuilds >= 1
        if shm_dir.is_dir():
            after = {
                p.name for p in shm_dir.iterdir() if p.name.startswith("psm_")
            }
            assert after - before == set()

    def test_builder_pooled_statistic_vectors_bit_identical(self):
        labels = _labels("int")
        features, interactions = _stores(24, labels)
        communities = _communities(24, labels)
        serial = FeatureMatrixBuilder(features, interactions, k=K, options=CSR)
        with FeatureMatrixBuilder(
            features, interactions, k=K, options=replace(CSR, phase2_workers=2)
        ) as sharded:
            assert np.array_equal(
                serial.statistic_vectors(communities),
                sharded.statistic_vectors(communities),
            )
            assert np.array_equal(
                serial.matrices_as_tensor(communities),
                sharded.matrices_as_tensor(communities),
            )
