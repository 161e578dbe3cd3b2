"""Parity tests: the CSR kernel layer must match its dict oracle exactly.

Every kernel ``divide(graph)`` routes through (:mod:`repro.graph.csr`,
``division._block_tightness``) has an oracle on ``Graph`` objects in
``tests/division_reference.py``, and ``divide(graph)`` must reproduce
``reference_divide(graph)`` — Girvan–Newman one ego network at a time —
bit-for-bit (members, ordering/index, tightness).
The tests sweep randomized graphs across seeds and densities, including
isolated nodes and singleton communities, plus the paper's example networks.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.division import DivisionResult, _block_tightness, _neighbor_lists, divide
from repro.exceptions import NodeNotFoundError
from repro.graph import Graph
from repro.graph import csr as csr_module
from repro.graph.csr import (
    CSRGraph,
    DenseEgoNet,
    dense_ego_nets,
    edge_betweenness_csr,
)
from tests import division_reference
from tests.division_reference import (
    community_tightness,
    edge_betweenness,
    ego_network,
    reference_divide,
)
from tests.graph_fixtures import paper_figure7_network

SEEDS = (0, 1, 2, 3, 4)


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


def with_hub(friends: Graph) -> tuple[Graph, int]:
    """``friends`` plus a hub adjacent to every node, and the hub: the hub's
    ego network *is* ``friends``, a net of any chosen shape."""
    hub = friends.num_nodes  # int labels 0..n-1 are taken
    graph = Graph(nodes=friends.nodes(), edges=friends.edges())
    for node in friends.nodes():
        graph.add_edge(hub, node)
    return graph, hub


def assert_hub_division_identical(friends: Graph) -> list:
    """Divide the hub of :func:`with_hub` on both routes; returns its
    communities."""
    graph, hub = with_hub(friends)
    result = divide(graph, egos=[hub])
    assert_division_identical(reference_divide(graph, egos=[hub]), result)
    return result.communities_of(hub)


def csr_edges(csr: CSRGraph) -> set[frozenset]:
    """The snapshot's edges, read off its arrays by label."""
    return {
        frozenset((csr.label_of(i), csr.label_of(j)))
        for i in range(csr.num_nodes)
        for j in csr.indices[csr.indptr[i] : csr.indptr[i + 1]].tolist()
    }


class TestCSRGraphReadAPI:
    """The snapshot is faithful: its arrays hold exactly the graph's edges,
    and the interner maps every node to its insertion index and back."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_graph(self, seed):
        graph = random_graph(seed)
        csr = CSRGraph.from_graph(graph)
        assert csr.num_nodes == graph.num_nodes
        assert csr.num_edges == graph.num_edges
        assert list(csr.nodes()) == list(graph.nodes())
        assert csr_edges(csr) == {frozenset(edge) for edge in graph.edges()}
        for i, node in enumerate(graph.nodes()):
            assert csr.index_of(node) == i and csr.label_of(i) == node

    def test_missing_node_raises(self):
        csr = CSRGraph.from_graph(Graph(edges=[(1, 2)]))
        with pytest.raises(NodeNotFoundError):
            csr.index_of(42)

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(Graph())
        assert csr.num_nodes == 0 and csr.num_edges == 0
        assert csr_edges(csr) == set()


class TestEgoNetworkParity:
    @staticmethod
    def assert_same_ego_nets(csr: CSRGraph, graph: Graph, egos: list) -> None:
        nets = dense_ego_nets(csr, egos)
        assert len(nets) == len(egos)
        for ego, net in zip(egos, nets):
            reference = ego_network(graph, ego)
            assert set(net.labels) == set(reference.nodes())
            assert len(net.labels) == reference.num_nodes
            assert dense_edges(net) == {frozenset(edge) for edge in reference.edges()}
            assert net.num_edges == reference.num_edges
            assert [csr.label_of(i) for i in net.index.tolist()] == net.labels

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_ego_matches(self, seed):
        graph = random_graph(seed)
        csr = CSRGraph.from_graph(graph)
        self.assert_same_ego_nets(csr, graph, list(graph.nodes()))

    def test_fig7_matches(self):
        graph = paper_figure7_network()
        csr = CSRGraph.from_graph(graph)
        self.assert_same_ego_nets(csr, graph, list(graph.nodes()))

    def test_passes_split_without_changing_a_net(self, monkeypatch):
        # One pass per ego, or all egos in one: the same nets, in ego order
        # (repeats and friendless egos included).
        graph = random_graph(2)
        csr = CSRGraph.from_graph(graph)
        egos = [*graph.nodes(), 5, 26, 5]
        together = dense_ego_nets(csr, egos)
        monkeypatch.setattr(csr_module, "_EXTRACT_CELLS", 1)
        for one, net in zip(dense_ego_nets(csr, egos), together):
            assert one.labels == net.labels
            assert one.eu.tolist() == net.eu.tolist()
            assert one.ev.tolist() == net.ev.tolist()
        self.assert_same_ego_nets(csr, graph, egos)
        with pytest.raises(NodeNotFoundError):
            dense_ego_nets(csr, [0, "missing"])


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
        egos = list(graph.nodes())[:10]
        for ego, net in zip(egos, dense_ego_nets(csr, egos)):
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
        assert_division_identical(reference_divide(graph), divide(graph))

    def test_fig7(self, fig7_graph):
        assert_division_identical(reference_divide(fig7_graph), divide(fig7_graph))

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
        assert_division_identical(reference_divide(graph), result)
        # Ego 3 has no friends, egos 1/2 have singleton communities.
        assert result.communities_of(3) == []
        assert result.communities_of(1)[0].tightness == {2: 1.0}

    def test_one_ego_calls_match_the_oracle(self, fig7_graph):
        # A one-ego call equals that ego's part of a whole-graph call, and
        # the oracle on members, index and tightness.
        routed = divide(fig7_graph)
        for ego in fig7_graph.nodes():
            alone = divide(fig7_graph, egos=[ego])
            assert alone.communities_of(ego) == routed.communities_of(ego)
            assert_division_identical(reference_divide(fig7_graph, egos=[ego]), alone)

    def test_unknown_backend_raises(self, fig7_graph):
        # There is no selector to get wrong: a stale ``backend=`` caller fails.
        with pytest.raises(TypeError):
            divide(fig7_graph, backend="dict")

    def test_the_kernel_and_the_oracle_share_no_detector(self, fig7_graph, monkeypatch):
        # The parity above compares two implementations, not one with itself.
        def called(*args):
            raise AssertionError("one route reached the other's detector")

        with monkeypatch.context() as patch:
            patch.setattr(division_reference, "girvan_newman", called)
            assert divide(fig7_graph).num_egos == fig7_graph.num_nodes
            with pytest.raises(AssertionError):
                reference_divide(fig7_graph)
        monkeypatch.setattr("repro.core.division.girvan_newman_dense", called)
        assert reference_divide(fig7_graph).num_egos == fig7_graph.num_nodes
        with pytest.raises(AssertionError):
            divide(fig7_graph)

    def test_divide_accepts_csr_graph(self, fig7_graph):
        csr = CSRGraph.from_graph(fig7_graph)
        assert_division_identical(reference_divide(fig7_graph), divide(csr))


class TestDenseEgoNet:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_dense_extraction_and_tightness(self, seed):
        graph = random_graph(seed)
        csr = CSRGraph.from_graph(graph)
        egos = list(graph.nodes())[:8]
        for ego, net in zip(egos, dense_ego_nets(csr, egos)):
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
        assert_division_identical(reference_divide(graph), divide(graph))


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
        assert_division_identical(reference_divide(graph, egos=egos), together)

    def test_boundary_egos(self, monkeypatch):
        graph = Graph(edges=[(1, 2), (2, 3), (1, 3), (3, 4), ("x", 1)], nodes=["alone"])
        egos = ["alone", "x", 1, "x", 3, 1]
        result = divide(graph, egos=egos)
        # Duplicates divide once, in first-seen order; no friends -> no
        # communities; one friend -> one singleton community.
        assert list(result.communities_by_ego) == ["alone", "x", 1, 3]
        assert result.communities_of("alone") == []
        assert [c.members for c in result.communities_of("x")] == [frozenset({1})]
        assert_division_identical(reference_divide(graph, egos=egos), result)

        def no_gn(nets):
            raise AssertionError("GN ran before the unknown ego was rejected")

        monkeypatch.setattr("repro.core.division.girvan_newman_dense", no_gn)
        with pytest.raises(NodeNotFoundError):
            divide(graph, egos=[1, 3, "missing"])


@st.composite
def hub_friend_graphs(draw) -> Graph:
    """The friends of one hub, on 4-12 nodes: a random graph of density
    0.15-0.6, a cycle, a path, a star, or two cliques joined by one or two
    bridges — the shapes whose best GN level comes early, late or first."""
    size = draw(st.integers(4, 12))
    kind = draw(st.sampled_from(["random", "cycle", "path", "star", "bridged cliques"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graph = Graph(nodes=range(size))
    if kind == "random":
        density = draw(st.floats(0.15, 0.6))
        pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
        pairs = [pair for pair in pairs if rng.random() < density]
    elif kind == "cycle":
        pairs = [(i, (i + 1) % size) for i in range(size)]
    elif kind == "path":
        pairs = [(i, i + 1) for i in range(size - 1)]
    elif kind == "star":
        pairs = [(0, i) for i in range(1, size)]
    else:
        cut = draw(st.integers(2, size - 2))
        pairs = [
            (u, v)
            for block in (range(cut), range(cut, size))
            for u in block
            for v in block
            if u < v
        ]
        pairs += [
            (rng.randrange(cut), rng.randrange(cut, size))
            for _ in range(draw(st.integers(1, 2)))
        ]
    for u, v in pairs:
        graph.add_edge(u, v)
    return graph


def counted_engines(graph: Graph, egos: list) -> list:
    """The GN engines ``divide(graph, egos=egos)`` ran, kept for their
    counters."""
    engines = []

    class Counted(csr_module._GNEngine):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            engines.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csr_module, "_GNEngine", Counted)
        divide(graph, egos=egos)
    return engines


def engine_for(friends: Graph):
    """A GN engine over ``friends`` as one hub's ego net, not yet advanced."""
    graph, hub = with_hub(friends)
    nets = dense_ego_nets(CSRGraph.from_graph(graph), [hub])
    return csr_module._GNEngine(nets[0], *csr_module._call_ranks(nets)[0])


class TestStopRule:
    """The engine stops its sweep once an exact modularity bound shows no
    later level can win; the oracle sweeps to the end, and the two must
    keep the same partition."""

    @given(friends=hub_friend_graphs())
    @settings(max_examples=300, deadline=None)
    def test_hub_ego_matches_the_full_sweep(self, friends):
        assert_hub_division_identical(friends)

    def test_pinned_split_level(self):
        # Dropping the no-split term 4m*l - D^2 from a component's bound
        # stops this sweep before its best level.
        friends = Graph(edges=[(0, 5), (1, 4), (2, 3), (2, 5), (4, 5)])
        communities = assert_hub_division_identical(friends)
        assert [sorted(c.members) for c in communities] == [[0, 5], [1, 4], [2, 3]]

    def test_a_bound_equal_to_the_best_level_does_not_stop(self):
        # One edge: the whole net scores 4m*l - D^2 = 0 and can score no
        # more, so the bound equals the best numerator from the start.  A
        # later level could tie it and still win the float comparison, so
        # the engine must go on.
        engine = engine_for(Graph(edges=[(0, 1)]))
        assert engine._bound == engine._best_num == 0
        assert engine.advance() == []
        assert engine.num_removals == 1
        assert engine._bound == engine._num == -2

    def test_a_bound_below_the_best_level_stops_before_scoring(self):
        engine = engine_for(random_graph(3, n=16, p=0.3))
        engine._bound = engine._best_num - 1
        assert engine.advance() == []
        assert engine.num_removals == engine.num_brandes_requests == 0

    def test_nets_past_the_exactness_limit_sweep_to_the_end(self, monkeypatch):
        friends = random_graph(0, n=12, p=0.3)
        graph, hub = with_hub(friends)
        [stopped] = counted_engines(graph, [hub])
        assert stopped.num_removals < friends.num_edges
        monkeypatch.setattr(csr_module, "_EXACT_STOP_MAX_EDGES", friends.num_edges - 1)
        [swept] = counted_engines(graph, [hub])
        assert swept.num_removals == friends.num_edges
        assert swept.best_blocks == stopped.best_blocks
        assert_hub_division_identical(friends)


class TestCountedSweep:
    """``num_removals`` / ``num_brandes_requests``: the lockstep contract
    and the stop rule, counted."""

    @pytest.fixture(scope="class")
    def tiny_graph(self) -> Graph:
        from repro.synthetic import make_workload

        return make_workload("tiny", seed=0).dataset.graph

    def test_lockstep_counts_equal_one_ego_at_a_time(self, tiny_graph):
        egos = sorted(tiny_graph.nodes(), key=repr)
        together = counted_engines(tiny_graph, egos)
        alone = [engine for ego in egos for engine in counted_engines(tiny_graph, [ego])]
        assert len(together) == len(alone) > 0
        for counter in ("num_removals", "num_brandes_requests"):
            assert sum(getattr(e, counter) for e in together) == sum(
                getattr(e, counter) for e in alone
            )
        assert sum(e.num_brandes_requests for e in together) > 0

    def test_the_sweep_stops_before_the_last_edge(self, tiny_graph):
        # A full sweep removes every edge of every ego net.
        egos = list(tiny_graph.nodes())
        nets = dense_ego_nets(CSRGraph.from_graph(tiny_graph), egos)
        removed = sum(e.num_removals for e in counted_engines(tiny_graph, egos))
        assert 0 < removed < sum(net.num_edges for net in nets)


def assert_quantized_like_round(values) -> None:
    """``_quantize`` equals ``[round(v, 9) for v in values]`` bit for bit."""
    values = np.asarray(values, dtype=float)
    expected = np.array([round(value, 9) for value in values.tolist()], dtype=float)
    got = csr_module._quantize(values)
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


HALF_WAY = st.one_of(
    # Dyadic rationals: k / 2**10 with k odd is an exact half of 1e-9.
    st.builds(lambda k, m: k / 2.0**m, st.integers(0, 2**40), st.integers(0, 40)),
    # Doubles next to (j + 0.5)·1e-9, whose product with 1e9 lands on or
    # beside a half-integer.
    st.builds(
        lambda j, steps: float(
            np.nextafter((j + 0.5) * 1e-9, np.inf if steps > 0 else 0.0)
            if steps
            else (j + 0.5) * 1e-9
        ),
        st.integers(0, 10**13),
        st.integers(-1, 1),
    ),
)


class TestQuantize:
    """The Brandes path quantizes in array ops; it must be Python's
    ``round(v, 9)``, which the oracle and the closed forms use, bit for
    bit."""

    @given(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_random_doubles(self, values):
        assert_quantized_like_round(values)

    @given(st.lists(HALF_WAY, min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_half_way_cases(self, values):
        assert_quantized_like_round(values)

    @given(st.lists(st.floats(0.0, 1e9), min_size=16, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_products_past_the_half_integers(self, values):
        # From v·1e9 ≥ 2**52 on, no half-integer is a double and the
        # rounded product can sit an integer away from round's k.
        assert_quantized_like_round(values)

    def test_betweenness_of_a_real_division(self, monkeypatch):
        from repro.synthetic import make_workload

        seen = []
        quantize = csr_module._quantize

        def spy(values):
            seen.append(values.copy())
            return quantize(values)

        monkeypatch.setattr(csr_module, "_quantize", spy)
        divide(make_workload("tiny", seed=0).dataset.graph)
        assert seen
        assert_quantized_like_round(np.concatenate(seen))
