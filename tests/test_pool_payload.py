"""How the graph reaches a pool worker, and that it divides the same there.

The executor builds one :class:`CSRGraph` snapshot per run and the
supervisor passes it to every worker as the pool initializer's argument:
inherited under ``fork``, pickled under ``spawn`` / ``forkserver``.

* a snapshot that crossed a pickle boundary — what a spawned worker holds —
  divides exactly like the callable-detector oracle on its source graph;
* a 2-worker pool merges to a :class:`DivisionResult` identical to the clean
  serial run on int- and string-labelled graphs, under the platform's default
  start method and (slow tier) under ``spawn``;
* the snapshot is built once per run, and not at all when every shard
  resumes from a checkpoint;
* a hard-killed worker costs a pool rebuild, never a different result (slow).
"""

from __future__ import annotations

import functools
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.runtime.executor as executor_module
import repro.runtime.supervisor as supervisor_module
from repro.core.config import ResilienceConfig
from repro.core.division import divide, get_detector
from repro.graph.csr import CSRGraph
from repro.graph.generators import paper_figure7_network, planted_partition
from repro.graph.graph import Graph
from repro.runtime import ShardedDivisionExecutor
from repro.runtime.faultinject import Fault, FaultPlan
from repro.runtime.resilience import FakeClock


@pytest.fixture
def graph():
    return paper_figure7_network()


@pytest.fixture
def string_graph():
    """A graph whose node labels defeat small-int set-layout coincidences."""
    base, _ = planted_partition([8, 8, 8], intra_prob=0.8, inter_prob=0.05, seed=7)
    relabeled = Graph(nodes=(f"user:{node:04d}" for node in base.nodes()))
    for u, v in base.edges():
        relabeled.add_edge(f"user:{u:04d}", f"user:{v:04d}")
    return relabeled


def _serial_division(graph, detector="label_propagation", num_shards=3):
    return (
        ShardedDivisionExecutor(num_shards=num_shards, detector=detector)
        .run(graph)
        .division
    )


def _pool_division(graph):
    with ShardedDivisionExecutor(
        num_shards=3, num_workers=2, detector="label_propagation"
    ) as executor:
        return executor.run(graph).division


# ------------------------------------------------------ the shipped snapshot
class TestShippedSnapshot:
    """A graph that left its source behind divides like the clean run: no
    ordering side channel travels beside the three arrays."""

    @pytest.mark.parametrize(
        "detector",
        ["girvan_newman", "label_propagation", "louvain"],
        ids=["gn", "lp", "louvain"],
    )
    @pytest.mark.parametrize("fixture", ["graph", "string_graph"])
    def test_divides_like_the_oracle(self, fixture, detector, request):
        source = request.getfixturevalue(fixture)
        oracle = divide(source, detector=get_detector(detector))
        shipped = pickle.loads(
            pickle.dumps(CSRGraph.from_graph(source), pickle.HIGHEST_PROTOCOL)
        )
        assert divide(shipped, detector=detector).communities_by_ego == (
            oracle.communities_by_ego
        )

    def test_snapshot_is_built_once_and_only_when_a_shard_runs(
        self, graph, monkeypatch, tmp_path
    ):
        built = []
        from_graph = CSRGraph.from_graph.__func__

        def counting(cls, source):
            built.append(source)
            return from_graph(cls, source)

        monkeypatch.setattr(CSRGraph, "from_graph", classmethod(counting))
        executor = ShardedDivisionExecutor(
            num_shards=3,
            detector="girvan_newman",
            resilience=ResilienceConfig(checkpoint_dir=str(tmp_path)),
        )
        first = executor.run(graph)
        assert len(built) == 1  # one snapshot for three shards
        resumed = executor.run(graph, resume_from=str(tmp_path))
        assert all(report.from_checkpoint for report in resumed.shard_reports)
        assert len(built) == 1  # nothing to run, nothing built
        assert resumed.division.communities_by_ego == first.division.communities_by_ego


# ------------------------------------------------------------- pool parity
class TestPoolParity:
    @pytest.mark.parametrize("fixture", ["graph", "string_graph"])
    def test_pool_division_matches_clean_serial(self, fixture, request):
        source = request.getfixturevalue(fixture)
        assert _pool_division(source).communities_by_ego == (
            _serial_division(source).communities_by_ego
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("fixture", ["graph", "string_graph"])
    def test_spawned_pool_division_matches_clean_serial(
        self, fixture, request, monkeypatch
    ):
        """Where ``fork`` is not the default (macOS; Linux from Python 3.14)
        the snapshot reaches each worker pickled."""
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            supervisor_module,
            "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=spawn),
        )
        source = request.getfixturevalue(fixture)
        assert _pool_division(source).communities_by_ego == (
            _serial_division(source).communities_by_ego
        )


# -------------------------------------------------------- worker teardown
class TestWorkerTeardown:
    """The supervisor (snapshot, pool) is scoped to each ``run``; record the
    instances the executor opens to inspect them."""

    @pytest.fixture
    def opened(self, monkeypatch):
        supervisors = []

        class RecordingSupervisor(supervisor_module.ShardSupervisor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                supervisors.append(self)

        monkeypatch.setattr(executor_module, "ShardSupervisor", RecordingSupervisor)
        return supervisors

    def test_close_resets_worker_globals(self, graph, opened):
        executor = ShardedDivisionExecutor(
            num_shards=2, detector="label_propagation"
        )
        executor.run(graph)
        supervisor_module._WORKER_PAYLOAD = CSRGraph.from_graph(graph)
        executor.close()
        assert supervisor_module._WORKER_PAYLOAD is None
        (supervisor,) = opened
        assert supervisor._pool is None

    def test_context_manager_closes(self, graph, opened):
        with ShardedDivisionExecutor(
            num_shards=2, num_workers=2, detector="label_propagation"
        ) as executor:
            executor.run(graph)
        (supervisor,) = opened
        assert supervisor._pool is None


# --------------------------------------------------------------- hard kill
@pytest.mark.slow
class TestHardKill:
    def test_killed_worker_rebuilds_the_pool_and_matches_serial(self, graph):
        clean = _serial_division(graph)
        with ShardedDivisionExecutor(
            num_shards=3,
            num_workers=2,
            detector="label_propagation",
            resilience=ResilienceConfig(max_attempts=3, max_pool_rebuilds=2),
            fault_plan=FaultPlan([Fault(0, 0, "kill")]),
            clock=FakeClock(),
        ) as executor:
            report = executor.run(graph)
        assert report.pool_rebuilds >= 1
        assert not report.degraded_to_serial
        assert report.division.communities_by_ego == clean.communities_by_ego
