"""Tests for the zero-copy transport stack: shared-memory CSR graphs and
the executor's transport plumbing.

Covers the PR's hard invariants:

* publish -> pickle-the-handle -> attach round-trips the CSR arrays
  **bit-identically**, and the handle stays tiny (< 4 KiB) as the graph
  grows;
* a pool run under any transport (``pickle``, ``shm``, ``auto``) merges to a
  :class:`DivisionResult` identical to the clean serial run — including on
  string-labeled graphs, where set iteration order is the usual trap;
* an attached graph — three arrays, no ordering side channel — divides
  exactly like the ``dict`` oracle on the graph it was published from;
* leases never leak: the executor sweeps its segments on close and on pool
  rebuild (the slow tier hard-kills a worker to prove it).
"""

from __future__ import annotations

import multiprocessing
import pickle
from pathlib import Path

import numpy as np
import pytest

import repro.runtime.executor as executor_module
import repro.runtime.supervisor as supervisor_module
from repro.core.config import ResilienceConfig
from repro.core.division import divide, get_detector
from repro.exceptions import ModelConfigError
from repro.graph.csr import CSRGraph
from repro.graph.generators import paper_figure7_network, planted_partition
from repro.graph.graph import Graph
from repro.graph.shm import SharedCSRGraph, handle_nbytes, shm_supported
from repro.runtime import ShardedDivisionExecutor
from repro.runtime.faultinject import Fault, FaultPlan
from repro.runtime.resilience import FakeClock

needs_shm = pytest.mark.skipif(
    not shm_supported(), reason="POSIX shared memory unavailable"
)


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


def _attach_in_child(handle_payload: bytes, conn) -> None:
    """Spawn-target: unpickle a handle, attach, ship back checksums."""
    attached = pickle.loads(handle_payload).attach()
    try:
        conn.send(
            {
                "num_nodes": attached.num_nodes,
                "indptr_sum": int(attached.indptr.sum()),
                "indices_sum": int(attached.indices.sum()),
            }
        )
    finally:
        attached.close()
        conn.close()


# ------------------------------------------------------------ shm round-trip
@needs_shm
class TestSharedCSRRoundTrip:
    def test_publish_attach_is_bit_identical(self, graph):
        csr = CSRGraph.from_graph(graph)
        lease = SharedCSRGraph.publish(csr)
        try:
            attached = pickle.loads(
                pickle.dumps(lease.handle, pickle.HIGHEST_PROTOCOL)
            ).attach()
            try:
                np.testing.assert_array_equal(attached.indptr, csr.indptr)
                np.testing.assert_array_equal(attached.indices, csr.indices)
                assert list(attached.nodes()) == list(csr.nodes())
                # The arrays and the labels are all that crosses the boundary.
                assert {spec.role for spec in lease.handle.segments} == {
                    "indptr",
                    "indices",
                    "nodes",
                }
            finally:
                attached.close()
        finally:
            lease.close()

    def test_attached_arrays_are_read_only_views(self, graph):
        lease = SharedCSRGraph.publish(CSRGraph.from_graph(graph))
        try:
            attached = lease.handle.attach()
            try:
                with pytest.raises((ValueError, TypeError)):
                    attached.indices[0] = 0
            finally:
                attached.close()
        finally:
            lease.close()

    def test_handle_stays_small_as_graph_grows(self):
        sizes = []
        for group_size in (5, 20, 60):
            graph, _ = planted_partition(
                [group_size] * 4, intra_prob=0.6, inter_prob=0.02, seed=1
            )
            lease = SharedCSRGraph.publish(CSRGraph.from_graph(graph))
            try:
                sizes.append(handle_nbytes(lease.handle))
            finally:
                lease.close()
        assert all(size < 4096 for size in sizes)
        # O(1): 12x more nodes must not mean 12x more handle.
        assert sizes[-1] < 2 * sizes[0]

    def test_handle_attaches_across_spawn(self, graph):
        lease = SharedCSRGraph.publish(CSRGraph.from_graph(graph))
        try:
            payload = pickle.dumps(lease.handle, pickle.HIGHEST_PROTOCOL)
            ctx = multiprocessing.get_context("spawn")
            parent_conn, child_conn = ctx.Pipe()
            child = ctx.Process(
                target=_attach_in_child, args=(payload, child_conn)
            )
            child.start()
            try:
                assert parent_conn.poll(60), "spawn child never reported"
                seen = parent_conn.recv()
            finally:
                child.join(timeout=60)
            assert child.exitcode == 0
            csr = CSRGraph.from_graph(graph)
            assert seen == {
                "num_nodes": csr.num_nodes,
                "indptr_sum": int(csr.indptr.sum()),
                "indices_sum": int(csr.indices.sum()),
            }
        finally:
            lease.close()

    def test_closed_lease_unlinks_segments(self, graph):
        lease = SharedCSRGraph.publish(CSRGraph.from_graph(graph))
        handle = lease.handle
        lease.close()
        assert lease.released
        lease.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            handle.attach()

    def test_lease_context_manager(self, graph):
        with SharedCSRGraph.publish(CSRGraph.from_graph(graph)) as lease:
            handle = lease.handle
            assert lease.segment_nbytes > 0
            assert len(lease.segment_names) == len(handle.segment_names)
        with pytest.raises(FileNotFoundError):
            handle.attach()


# ------------------------------------------------- attached-graph division
@needs_shm
class TestAttachedDivision:
    """What the neighbour-order replay used to guarantee, now by value: a
    graph that left its source behind divides like the clean serial run."""

    @pytest.mark.parametrize(
        "detector",
        ["girvan_newman", "label_propagation", "louvain"],
        ids=["gn", "lp", "louvain"],
    )
    @pytest.mark.parametrize("fixture", ["graph", "string_graph"])
    def test_matches_dict_oracle(self, fixture, detector, request):
        source = request.getfixturevalue(fixture)
        oracle = divide(source, detector=get_detector(detector))
        with SharedCSRGraph.publish(CSRGraph.from_graph(source)) as lease:
            with lease.handle.attach() as attached:
                detached = divide(attached, detector=detector)
        assert detached.communities_by_ego == oracle.communities_by_ego


# ------------------------------------------------------ division parity
@needs_shm
class TestTransportParity:
    @pytest.mark.parametrize("transport", ["pickle", "shm", "auto"])
    @pytest.mark.parametrize("fixture", ["graph", "string_graph"])
    def test_pool_division_matches_clean_serial(
        self, transport, fixture, request
    ):
        source = request.getfixturevalue(fixture)
        clean = _serial_division(source)
        with ShardedDivisionExecutor(
            num_shards=3,
            num_workers=2,
            detector="label_propagation",
            resilience=ResilienceConfig(transport=transport),
        ) as executor:
            pooled = executor.run(source)
        assert (
            pooled.division.communities_by_ego == clean.communities_by_ego
        )

    def test_transport_accounting(self, graph):
        with ShardedDivisionExecutor(
            num_shards=2,
            num_workers=2,
            detector="label_propagation",
            resilience=ResilienceConfig(transport="shm"),
        ) as executor:
            report = executor.run(graph)
        stats = report.transport
        assert stats.transport == "shm"
        assert stats.num_workers == 2
        assert 0 < stats.payload_bytes < 4096
        assert stats.segment_bytes > 0
        assert stats.shipped_bytes == stats.payload_bytes * 2
        assert stats.peak_worker_rss_bytes > 0
        # close() after run swept the published lease.
        assert stats.swept_segments > 0

    def test_serial_run_is_inline(self, graph):
        report = ShardedDivisionExecutor(
            num_shards=2, detector="label_propagation"
        ).run(graph)
        assert report.transport.transport == "inline"
        assert report.transport.payload_bytes == 0
        assert report.transport.peak_worker_rss_bytes > 0

    def test_invalid_transport_rejected(self):
        with pytest.raises(ModelConfigError):
            ResilienceConfig(transport="carrier_pigeon").validate()


# -------------------------------------------------------- worker teardown
class TestWorkerTeardown:
    """The supervisor (prepared graph, lease, pool) is scoped to each
    ``run``; record the instances the executor opens to inspect them."""

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
        assert supervisor._local is None
        assert supervisor._lease is None

    def test_context_manager_closes(self, graph, opened):
        with ShardedDivisionExecutor(
            num_shards=2, detector="label_propagation"
        ) as executor:
            executor.run(graph)
        (supervisor,) = opened
        assert supervisor._lease is None


# ------------------------------------------------------------- leak sweep
@needs_shm
@pytest.mark.slow
class TestLeaseSweepUnderFaults:
    def _leaked_segments(self, before: set) -> set:
        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():  # pragma: no cover - non-Linux
            return set()
        return {p.name for p in shm_dir.iterdir() if p.name.startswith("psm_")} - before

    def test_killed_worker_rebuild_sweeps_segments(self, graph):
        shm_dir = Path("/dev/shm")
        before = (
            {p.name for p in shm_dir.iterdir() if p.name.startswith("psm_")}
            if shm_dir.is_dir()
            else set()
        )
        plan = FaultPlan([Fault(0, 0, "kill")])
        clean = _serial_division(graph)
        with ShardedDivisionExecutor(
            num_shards=3,
            num_workers=2,
            detector="label_propagation",
            resilience=ResilienceConfig(
                transport="shm", max_attempts=3, max_pool_rebuilds=2
            ),
            fault_plan=plan,
            clock=FakeClock(),
        ) as executor:
            report = executor.run(graph)
        assert report.pool_rebuilds >= 1
        # The pre-rebuild lease was swept, then the end-of-run sweep covered
        # the replacement: both generations of segments are accounted for.
        assert report.transport.swept_segments >= 4
        assert (
            report.division.communities_by_ego == clean.communities_by_ego
        )
        assert self._leaked_segments(before) == set()
