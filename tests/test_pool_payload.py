"""The executor's payload: one CSR snapshot per run, divided like the oracle.

The executor builds one :class:`CSRGraph` snapshot per run and every shard
divides against it:

* the division the executor merges from that snapshot equals the
  callable-detector oracle on the source graph, on int- and string-labelled
  graphs, for every detector;
* the snapshot is built once per run, and not at all when no shard runs;
* the ``with`` form ends in ``close``.
"""

from __future__ import annotations

import pytest

from repro.core.division import divide, get_detector
from repro.graph.csr import CSRGraph
from repro.graph.generators import paper_figure7_network, planted_partition
from repro.graph.graph import Graph
from repro.runtime import ShardedDivisionExecutor


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


# ------------------------------------------------------------ the snapshot
class TestShippedSnapshot:
    """The snapshot the executor hands its shards divides like the oracle on
    the source graph: no ordering side channel travels beside the three
    arrays."""

    @pytest.mark.parametrize(
        "detector",
        ["girvan_newman", "label_propagation", "louvain"],
        ids=["gn", "lp", "louvain"],
    )
    @pytest.mark.parametrize("fixture", ["graph", "string_graph"])
    def test_divides_like_the_oracle(self, fixture, detector, request):
        source = request.getfixturevalue(fixture)
        oracle = divide(source, detector=get_detector(detector))
        report = ShardedDivisionExecutor(num_shards=3, detector=detector).run(source)
        assert report.division.communities_by_ego == oracle.communities_by_ego

    def test_snapshot_is_built_once_and_only_when_a_shard_runs(
        self, graph, monkeypatch
    ):
        built = []
        from_graph = CSRGraph.from_graph.__func__

        def counting(cls, source):
            built.append(source)
            return from_graph(cls, source)

        monkeypatch.setattr(CSRGraph, "from_graph", classmethod(counting))
        executor = ShardedDivisionExecutor(num_shards=3, detector="girvan_newman")
        assert len(executor.run(graph).shard_reports) == 3
        assert len(built) == 1  # one snapshot for three shards
        empty = executor.run(graph, egos=[])
        assert empty.shard_reports == [] and empty.division.num_egos == 0
        assert len(built) == 1  # nothing to run, nothing built


# ---------------------------------------------------------------- lifecycle
class TestWorkerTeardown:
    """The executor holds nothing between runs; its ``with`` form still ends
    in ``close``, the lifecycle call the end-to-end benchmark traces."""

    def test_context_manager_closes(self, graph, monkeypatch):
        closed = []
        monkeypatch.setattr(ShardedDivisionExecutor, "close", lambda self: closed.append(self))
        with ShardedDivisionExecutor(num_shards=2, detector="label_propagation") as executor:
            executor.run(graph)
            assert closed == []
        assert closed == [executor]
