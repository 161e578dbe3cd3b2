"""Parity tests: the CSR kernel layer must match its dict oracle exactly.

Every kernel ``divide(graph)`` routes through (:mod:`repro.graph.csr`,
``division._block_tightness``) has an oracle on ``Graph`` objects, and
``divide(graph)`` must reproduce ``divide(graph, detector=ORACLE)`` — the
same detector as a callable, which runs on ego-network ``Graph`` objects —
bit-for-bit (members, ordering/index, tightness).
The tests sweep randomized graphs across seeds and densities, including
isolated nodes and singleton communities, plus the paper's example networks.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community.betweenness import edge_betweenness
from repro.core.division import (
    DivisionResult,
    _block_tightness,
    _neighbor_lists,
    divide,
    divide_ego,
    get_detector,
)
from repro.core.tightness import community_tightness
from repro.exceptions import NodeNotFoundError
from repro.graph import Graph
from repro.graph import csr as csr_module
from repro.graph.csr import (
    CSRGraph,
    DenseEgoNet,
    dense_ego_net,
    edge_betweenness_csr,
)
from repro.graph.ego import ego_network
from repro.graph.generators import paper_figure7_network

SEEDS = (0, 1, 2, 3, 4)
ORACLE = get_detector("girvan_newman")


def random_graph(seed: int, n: int = 24, p: float = 0.18) -> Graph:
    """G(n, p) plus a few isolated nodes, deterministic per seed."""
    rng = random.Random(seed)
    graph = Graph(nodes=range(n + 3))  # n..n+2 stay isolated unless wired below
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def dense_edges(net: DenseEgoNet) -> set[frozenset]:
    return {
        frozenset((net.labels[u], net.labels[v]))
        for u, v in zip(net.eu.tolist(), net.ev.tolist())
    }


def assert_division_identical(left, right) -> None:
    assert list(left.communities_by_ego) == list(right.communities_by_ego)
    for ego in left.communities_by_ego:
        a = left.communities_by_ego[ego]
        b = right.communities_by_ego[ego]
        assert [c.members for c in a] == [c.members for c in b]
        assert [c.index for c in a] == [c.index for c in b]
        for ca, cb in zip(a, b):
            assert set(ca.tightness) == set(cb.tightness)
            for node in ca.tightness:
                assert ca.tightness[node] == cb.tightness[node]


def assert_hub_division_identical(friends: Graph) -> list:
    """Divide one hub ego adjacent to every node of ``friends`` on both routes.

    The hub's ego network *is* ``friends``, so this runs GN and tightness on
    a net of any chosen shape; returns the hub's communities.
    """
    hub = friends.num_nodes  # int labels 0..n-1 are taken
    graph = Graph(nodes=friends.nodes(), edges=friends.edges())
    for node in friends.nodes():
        graph.add_edge(hub, node)
    result = divide(graph, egos=[hub])
    assert_division_identical(divide(graph, egos=[hub], detector=ORACLE), result)
    return result.communities_of(hub)


class TestCSRGraphReadAPI:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_graph(self, seed):
        graph = random_graph(seed)
        csr = CSRGraph.from_graph(graph)
        assert csr.num_nodes == graph.num_nodes
        assert csr.num_edges == graph.num_edges
        assert list(csr.nodes()) == list(graph.nodes())
        assert set(csr.edges()) == set(graph.edges())
        assert csr.degrees() == graph.degrees()
        for node in graph.nodes():
            assert csr.neighbors(node) == graph.neighbors(node)
            assert csr.degree(node) == graph.degree(node)
            assert csr.has_node(node) and node in csr
        for u, v in graph.edges():
            assert csr.has_edge(u, v) and csr.has_edge(v, u)
        assert not csr.has_edge(0, "missing")

    def test_from_edges_and_to_graph_roundtrip(self):
        edges = [(1, 2), (2, 3), (3, 1), (4, 5)]
        csr = CSRGraph.from_edges(edges, nodes=[9])
        graph = Graph(edges=edges, nodes=[9])
        assert csr.to_graph() == graph
        assert csr == CSRGraph.from_graph(graph)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_subgraph_matches(self, seed):
        graph = random_graph(seed)
        csr = CSRGraph.from_graph(graph)
        rng = random.Random(seed + 100)
        keep = [node for node in graph.nodes() if rng.random() < 0.5] + [999]
        assert csr.subgraph(keep).to_graph() == graph.subgraph(keep)

    def test_missing_node_raises(self):
        csr = CSRGraph.from_edges([(1, 2)])
        with pytest.raises(NodeNotFoundError):
            csr.neighbors(42)
        with pytest.raises(NodeNotFoundError):
            csr.index_of(42)

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(Graph())
        assert csr.num_nodes == 0 and csr.num_edges == 0
        assert list(csr.edges()) == []


class TestEgoNetworkParity:
    @staticmethod
    def assert_same_ego_net(csr: CSRGraph, graph: Graph, ego) -> None:
        net = dense_ego_net(csr, ego)
        reference = ego_network(graph, ego)
        assert set(net.labels) == set(reference.nodes())
        assert len(net.labels) == reference.num_nodes
        assert dense_edges(net) == {frozenset(edge) for edge in reference.edges()}
        assert net.num_edges == reference.num_edges

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_ego_matches(self, seed):
        graph = random_graph(seed)
        csr = CSRGraph.from_graph(graph)
        for ego in graph.nodes():
            self.assert_same_ego_net(csr, graph, ego)

    def test_fig7_matches(self):
        graph = paper_figure7_network()
        csr = CSRGraph.from_graph(graph)
        for ego in graph.nodes():
            self.assert_same_ego_net(csr, graph, ego)


class TestBetweennessParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_graphs(self, seed):
        graph = random_graph(seed)
        reference = edge_betweenness(graph)
        vectorized = edge_betweenness_csr(graph)
        assert set(reference) == set(vectorized)
        for edge, value in reference.items():
            assert vectorized[edge] == pytest.approx(value, abs=1e-9)

    def test_disconnected_and_edgeless(self):
        graph = Graph(edges=[(1, 2), (2, 3), (4, 5)], nodes=[6])
        reference = edge_betweenness(graph)
        vectorized = edge_betweenness_csr(graph)
        for edge, value in reference.items():
            assert vectorized[edge] == pytest.approx(value, abs=1e-12)
        assert edge_betweenness_csr(Graph(nodes=[1, 2])) == {}


class TestGirvanNewmanParity:
    """GN on nets larger than a random graph's egos: a hub's ego net is the
    whole graph, so ``girvan_newman_dense`` sees 16-node components."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_graphs(self, seed):
        assert_hub_division_identical(random_graph(seed, n=16, p=0.22))

    def test_edgeless_singletons(self):
        assert len(assert_hub_division_identical(Graph(nodes=[0, 1, 2]))) == 3


class TestTightnessParity:
    """``_block_tightness`` (the CSR route's Equation 3) against the oracle,
    on arbitrary member subsets rather than only the blocks GN emits."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_communities(self, seed):
        graph = random_graph(seed)
        csr = CSRGraph.from_graph(graph)
        rng = random.Random(seed + 7)
        for ego in list(graph.nodes())[:10]:
            net = dense_ego_net(csr, ego)
            if net.num_nodes == 0:
                continue
            block = [i for i in range(net.num_nodes) if rng.random() < 0.6] or [0]
            reference = community_tightness(
                ego_network(graph, ego), [net.labels[i] for i in block]
            )
            assert _block_tightness(net.labels, _neighbor_lists(net), block) == reference

    def test_singleton_and_isolated(self):
        net = Graph(nodes=[1, 2, 3])
        net.add_edge(2, 3)
        labels, neighbors = [1, 2, 3], [[], [2], [1]]
        assert _block_tightness(labels, neighbors, [0]) == {1: 1.0}
        # Node 1 is isolated inside a multi-node community: tightness 0.
        values = _block_tightness(labels, neighbors, [0, 1, 2])
        assert values[1] == 0.0
        assert values == community_tightness(net, {1, 2, 3})


class TestDivideParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_girvan_newman_backend_parity(self, seed):
        graph = random_graph(seed)
        assert_division_identical(divide(graph, detector=ORACLE), divide(graph))

    @pytest.mark.parametrize("detector", ["louvain", "label_propagation"])
    def test_alternative_detectors(self, detector):
        # No CSR kernel: the name, the callable and a CSRGraph input agree.
        graph = random_graph(1, n=18, p=0.2)
        by_name = divide(graph, detector=detector)
        assert_division_identical(divide(graph, detector=get_detector(detector)), by_name)
        assert_division_identical(
            divide(CSRGraph.from_graph(graph), detector=detector), by_name
        )

    def test_fig7(self, fig7_graph):
        assert_division_identical(divide(fig7_graph, detector=ORACLE), divide(fig7_graph))

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_large_sparse_component_takes_numpy_brandes(self, seed, monkeypatch):
        # One ego whose friends form a single sparse component of 56 nodes
        # (ring + 20 chords): no closed form applies, so the batched Brandes
        # kernel scores it whole, in a stack of its own size bucket.
        rng = random.Random(seed)
        ring = Graph(edges=[(i, (i + 1) % 56) for i in range(56)])
        for _ in range(20):
            u, v = rng.sample(range(56), 2)
            ring.add_edge(u, v)
        sizes: list[int] = []
        brandes_through = csr_module._brandes_through

        def spy(adjacency):
            sizes.extend((adjacency.sum(axis=2) > 0).sum(axis=1).tolist())
            return brandes_through(adjacency)

        monkeypatch.setattr(csr_module, "_brandes_through", spy)
        assert_hub_division_identical(ring)
        assert max(sizes) == 56

    def test_isolated_and_singleton_egos(self):
        graph = Graph(edges=[(1, 2)], nodes=[3])
        result = divide(graph)
        assert_division_identical(divide(graph, detector=ORACLE), result)
        # Ego 3 has no friends, egos 1/2 have singleton communities.
        assert result.communities_of(3) == []
        assert result.communities_of(1)[0].tightness == {2: 1.0}

    def test_divide_ego_backend(self, fig7_graph):
        # The single-ego entry point takes divide's route, and agrees with
        # the oracle on members, index and tightness.
        routed = divide(fig7_graph)
        for ego in fig7_graph.nodes():
            left = divide_ego(fig7_graph, ego, detector=ORACLE)
            right = divide_ego(fig7_graph, ego)
            assert right == routed.communities_of(ego)
            assert [(c.members, c.index, c.tightness) for c in left] == [
                (c.members, c.index, c.tightness) for c in right
            ]

    def test_unknown_backend_raises(self, fig7_graph):
        # There is no selector to get wrong: a stale ``backend=`` caller fails.
        with pytest.raises(TypeError):
            divide(fig7_graph, backend="dict")
        with pytest.raises(TypeError):
            divide_ego(fig7_graph, 1, backend="dict")

    def test_name_takes_the_kernel_and_callable_the_reference(self, fig7_graph, monkeypatch):
        # The parity above compares two implementations, not one with itself.
        seen = []
        divide(fig7_graph, detector=lambda net: seen.append(type(net)) or ORACLE(net))
        assert set(seen) == {Graph}

        def reference_called(graph):
            raise AssertionError("the named route reached the reference detector")

        monkeypatch.setattr("repro.core.division.girvan_newman", reference_called)
        assert divide(fig7_graph).num_egos == fig7_graph.num_nodes
        with pytest.raises(AssertionError):
            divide(fig7_graph, detector=ORACLE)

    def test_divide_accepts_csr_graph(self, fig7_graph):
        csr = CSRGraph.from_graph(fig7_graph)
        oracle = divide(fig7_graph, detector=ORACLE)
        assert_division_identical(oracle, divide(csr))
        assert_division_identical(oracle, divide(csr, detector=ORACLE))


class TestDenseEgoNet:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_dense_extraction_and_tightness(self, seed):
        graph = random_graph(seed)
        csr = CSRGraph.from_graph(graph)
        for ego in list(graph.nodes())[:8]:
            net = dense_ego_net(csr, ego)
            reference = ego_network(graph, ego)
            assert set(net.labels) == set(reference.nodes())
            assert net.num_edges == reference.num_edges
            members = list(range(net.num_nodes))
            if not members:
                continue
            values = _block_tightness(net.labels, _neighbor_lists(net), members)
            assert values == community_tightness(reference, list(reference.nodes()))


class TestStringLabels:
    def test_repr_tie_breaking_matches(self):
        # String labels exercise the repr-based canonical edge ordering.
        edges = [("b", "a"), ("a", "c"), ("c", "b"), ("c", "d"), ("d", "e")]
        graph = Graph(edges=edges, nodes=["zz"])
        assert_division_identical(divide(graph, detector=ORACLE), divide(graph))


@st.composite
def mixed_ego_graphs(draw) -> Graph:
    """Two hubs over node-disjoint components of every kind GN scores
    differently: a clique, a tree and a <= 6-node cycle (closed forms),
    one 7-8-node and one 9-23-node sparse component and a >= 49-node ring
    (Brandes, in different stack sizes).  Hub ``"hub"`` sees all but the
    ring; hub ``-1`` sees the ring and one more component, so the rings and
    the medium components are scored in the same lockstep round.  Each
    component is labelled with ints or with strings, so node keys of both
    kinds meet in one ego net."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sizes = {
        "clique": draw(st.integers(3, 7)),
        "tree": draw(st.integers(2, 12)),
        "cycle": draw(st.integers(4, 6)),
        "medium_small": draw(st.integers(7, 8)),
        "medium_large": draw(st.integers(9, 23)),
        "ring": draw(st.integers(49, 56)),
    }
    graph = Graph()
    members: dict[str, list] = {}
    next_id = 0
    for kind, size in sizes.items():
        as_str = draw(st.booleans())
        nodes = [f"n{next_id + i}" if as_str else next_id + i for i in range(size)]
        next_id += size
        members[kind] = nodes
        if kind == "clique":
            pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
        elif kind == "tree":
            pairs = [(rng.randrange(i), i) for i in range(1, size)]
        else:  # cycles, chorded where a closed form must not apply
            pairs = [(i, (i + 1) % size) for i in range(size)]
            chords = {"cycle": 0, "medium_small": 2, "medium_large": 4, "ring": 3}[kind]
            pairs += [tuple(rng.sample(range(size), 2)) for _ in range(chords)]
        for i, j in pairs:
            graph.add_edge(nodes[i], nodes[j])
    shared = draw(st.sampled_from(sorted(set(sizes) - {"ring"})))
    for kind, nodes in members.items():
        for node in nodes:
            if kind != "ring":
                graph.add_edge("hub", node)
            if kind in ("ring", shared):
                graph.add_edge(-1, node)
    return graph


class TestLockstepDivision:
    """``divide`` runs the GN sweeps of all its egos in lockstep, scoring a
    round's Brandes requests together: no partition may depend on which
    egos share a round, and the boundary egos behave as one-at-a-time
    division did."""

    @given(graph=mixed_ego_graphs())
    @settings(max_examples=8, deadline=None)
    def test_lockstep_equals_one_ego_at_a_time_and_the_oracle(self, graph):
        sides: list[set[int]] = []
        score = csr_module._score

        def spy(requests):
            side = csr_module._STACK_SIDE
            sides.append({-(-len(comp.nodes) // side) for _, comp in requests})
            return score(requests)

        # Both hubs first, so they share the first round; every other ego
        # after them, and again in the default order, so the same ego runs
        # beside different others.
        egos = ["hub", -1, *graph.nodes()]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csr_module, "_score", spy)
            together = divide(graph, egos=egos)
        assert len(sides[0]) >= 3
        assert divide(graph).communities_by_ego == together.communities_by_ego
        alone = DivisionResult(
            {
                ego: divide(graph, egos=[ego]).communities_of(ego)
                for ego in together.communities_by_ego
            }
        )
        assert_division_identical(together, alone)
        assert_division_identical(divide(graph, egos=egos, detector=ORACLE), together)

    def test_boundary_egos(self, monkeypatch):
        graph = Graph(edges=[(1, 2), (2, 3), (1, 3), (3, 4), ("x", 1)], nodes=["alone"])
        egos = ["alone", "x", 1, "x", 3, 1]
        result = divide(graph, egos=egos)
        # Duplicates divide once, in first-seen order; no friends -> no
        # communities; one friend -> one singleton community.
        assert list(result.communities_by_ego) == ["alone", "x", 1, 3]
        assert result.communities_of("alone") == []
        assert [c.members for c in result.communities_of("x")] == [frozenset({1})]
        assert_division_identical(divide(graph, egos=egos, detector=ORACLE), result)

        def no_gn(nets):
            raise AssertionError("GN ran before the unknown ego was rejected")

        monkeypatch.setattr("repro.core.division.girvan_newman_dense", no_gn)
        with pytest.raises(NodeNotFoundError):
            divide(graph, egos=[1, 3, "missing"])
