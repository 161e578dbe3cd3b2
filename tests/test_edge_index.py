"""Generated parity of the compiled Phase III edge index against its oracle.

The oracle is Equation 4 read edge by edge: canonicalise the endpoints,
probe ``DivisionResult.community_containing`` once per side, then look the
community's ``r_C`` up by key.  The index must build the same design matrix
bit for bit — after construction and after every ``refresh`` of a drawn
write sequence — for int and str labels, reversed endpoints, unknown nodes,
non-edges, self-loops, partial divisions and empty batches.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EdgeFeatureBuilder, LoCEC, LoCECConfig, combination, community_key, divide
from repro.exceptions import PipelineError
from repro.graph import Graph
from repro.synthetic import make_workload
from repro.types import canonical_edge, node_key

LENGTH = 3


def _fill_community_terms(out, community, node, result_vectors):
    """Write ``r_C`` into ``out`` and return the node's tightness in ``C``."""
    if community is None:
        out[:] = 0.0
        return 0.0
    vector = result_vectors.get(community_key(community))
    if vector is None:
        out[:] = 0.0
    else:
        out[:] = vector
    return community.tightness.get(node, 0.0)


def oracle_edge_features(division, result_vectors, length, edges):
    """Equation 4 per edge, by probes of the division (the oracle)."""
    out = np.zeros((len(edges), 2 + 2 * length))
    for row, (u, v) in enumerate(edges):
        first, second = canonical_edge(u, v)
        community_of_first = division.community_containing(second, first)
        community_of_second = division.community_containing(first, second)
        out[row, 0] = _fill_community_terms(
            out[row, 2 : 2 + length], community_of_first, first, result_vectors
        )
        out[row, 1] = _fill_community_terms(
            out[row, 2 + length :], community_of_second, second, result_vectors
        )
    return out


def _assert_matches_oracle(builder, result_vectors, edges):
    expected = oracle_edge_features(builder.division, result_vectors, LENGTH, edges)
    actual = builder.edge_features(edges)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _queries(graph, ghost):
    """Every edge both ways round, non-edges, self-loops and unknown nodes."""
    nodes = sorted(graph.nodes(), key=node_key)
    edges = list(graph.edges())
    non_edges = [
        (u, v) for u in nodes for v in nodes if u != v and not graph.has_edge(u, v)
    ][:12]
    return (
        edges
        + [(v, u) for u, v in edges]
        + non_edges
        + [(node, node) for node in nodes[:3]]
        + [(nodes[0], ghost), (ghost, nodes[-1]), (ghost, ghost)]
    )


def _vectors(keys, rng):
    """Fresh r_C vectors for ``keys``; roughly one in five left without one."""
    return {key: rng.random(LENGTH) for key in keys if rng.random() >= 0.2}


@st.composite
def _cases(draw):
    num_nodes = draw(st.integers(3, 13))
    pairs = [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=30, unique=True))
    as_str = draw(st.booleans())
    ego_subset = draw(st.one_of(st.none(), st.sets(st.integers(0, num_nodes - 1), min_size=1)))
    writes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("add", "remove", "new_node", "warm", "refit")),
                st.integers(0, 10_000),
            ),
            max_size=5,
        )
    )
    return num_nodes, edges, as_str, ego_subset, writes, draw(st.integers(0, 2**16))


def _label(index, as_str):
    return f"user:{index}" if as_str else index


@settings(max_examples=40, deadline=None)
@given(_cases())
def test_index_matches_the_per_edge_oracle_after_fit_and_writes(case):
    num_nodes, pairs, as_str, ego_subset, writes, seed = case
    rng = np.random.default_rng(seed)
    graph = Graph(nodes=(_label(i, as_str) for i in range(num_nodes)))
    for i, j in pairs:
        graph.add_edge(_label(i, as_str), _label(j, as_str))
    egos = None if ego_subset is None else [_label(i, as_str) for i in sorted(ego_subset)]
    division = divide(graph, egos=egos)
    vectors = _vectors(map(community_key, division.all_communities()), rng)
    builder = EdgeFeatureBuilder(division, dict(vectors), LENGTH)
    ghost = _label(num_nodes + 50, as_str)
    assert builder.edge_features([]).shape == (0, 2 + 2 * LENGTH)
    _assert_matches_oracle(builder, vectors, _queries(graph, ghost))

    added = num_nodes
    for kind, pick in writes:
        nodes = sorted(graph.nodes(), key=node_key)
        edges = sorted(graph.edges(), key=lambda edge: (node_key(edge[0]), node_key(edge[1])))
        changed, fresh_keys, new_nodes = set(), [], set()
        if kind in ("add", "remove", "new_node"):
            if kind == "remove" and edges:
                u, v = edges[pick % len(edges)]
                graph.remove_edge(u, v)
            elif kind == "new_node":
                u, v = nodes[pick % len(nodes)], _label(added, as_str)
                added += 1
                new_nodes.add(v)
                graph.add_edge(u, v)
            else:
                u, v = nodes[pick % len(nodes)], nodes[(pick // 7) % len(nodes)]
                if u == v or graph.has_edge(u, v):
                    continue
                graph.add_edge(u, v)
            # The pipeline's write path: re-divide the dirty fitted egos (and
            # any new node), keep the lists that did not change.
            dirty = {u, v} | (graph.neighbors(u) & graph.neighbors(v))
            dirty = [
                ego
                for ego in sorted(dirty, key=node_key)
                if ego in division.communities_by_ego or ego in new_nodes
            ]
            redivided = divide(graph, egos=dirty).communities_by_ego if dirty else {}
            for ego in dirty:
                if redivided[ego] != division.communities_by_ego.get(ego):
                    division.communities_by_ego[ego] = redivided[ego]
                    changed.add(ego)
            for key in [key for key in vectors if key[0] in changed]:
                del vectors[key]
            fresh_keys = [
                community_key(c) for ego in changed for c in division.communities_of(ego)
            ]
        all_keys = [community_key(c) for c in division.all_communities()]
        rescored_all = kind == "refit"
        if rescored_all:
            fresh_keys = all_keys
        elif kind == "warm" and all_keys:
            fresh_keys = [all_keys[pick % len(all_keys)]]
        fresh = rng.random((len(fresh_keys), LENGTH))
        vectors.update(zip(fresh_keys, fresh))
        builder.refresh(fresh_keys, fresh, changed, rescored_all=rescored_all)
        _assert_matches_oracle(builder, vectors, _queries(graph, ghost))
        snapshot = builder.result_vectors
        assert set(snapshot) == set(vectors)
        for key, vector in vectors.items():
            assert snapshot[key].tobytes() == vector.tobytes(), key


def test_a_fitted_pipeline_reads_the_oracle_design_matrix_through_writes():
    """The same parity on a real fit (tiny): after ``fit``, a warm write, a
    structural write, a write that brings a new node and a removal."""
    workload = make_workload("tiny", seed=1)
    dataset = workload.dataset
    config = LoCECConfig.locec_xgb()
    config.gbdt.num_rounds = 8
    graph = dataset.graph
    with LoCEC(config).fit(
        graph, dataset.features, dataset.interactions, workload.train_edges
    ) as pipeline:
        builder = pipeline.edge_feature_builder_
        length = builder.result_vector_length
        pair = next(edge for edge, vector in dataset.interactions.items() if vector.any())
        nodes = sorted(graph.nodes(), key=node_key)
        non_edge = next((u, v) for u in nodes for v in nodes if u != v and not graph.has_edge(u, v))
        writes = [
            {"interaction_deltas": [(*pair, np.full(dataset.interactions.num_dims, 3.0))]},
            {"added_edges": [non_edge]},
            {"added_edges": [(nodes[0], "newcomer")]},
            {"removed_edges": [next(iter(graph.edges()))]},
        ]
        for write in [{}] + writes:
            if write:
                pipeline.apply_updates(**write)
            edges = list(graph.edges())
            queries = edges + [(v, u) for u, v in edges] + [(nodes[1], "ghost"), (nodes[2],) * 2]
            expected = oracle_edge_features(
                pipeline.division_, builder.result_vectors, length, queries
            )
            assert builder.edge_features(queries).tobytes() == expected.tobytes()
            # A read's bytes do not depend on the batch it is scored in.
            proba = pipeline.predict_edge_proba(queries)
            singles = [pipeline.predict_edge_proba([edge]) for edge in queries[::7]]
            assert np.concatenate(singles).tobytes() == proba[::7].tobytes()


def _random_builder(seed, num_nodes=40, num_edges=160):
    rng = np.random.default_rng(seed)
    graph = Graph(nodes=range(num_nodes))
    while graph.num_edges < num_edges:
        u, v = rng.integers(num_nodes, size=2)
        if u != v:
            graph.add_edge(int(u), int(v))
    division = divide(graph)
    vectors = _vectors(map(community_key, division.all_communities()), rng)
    return graph, division, EdgeFeatureBuilder(division, dict(vectors), LENGTH), rng


def test_a_batch_is_one_index_search():
    """Both sides of every edge come from one ``searchsorted`` over the
    index, for any batch size, before and after a ``refresh``."""
    graph, division, builder, rng = _random_builder(seed=3)
    edges = list(graph.edges())

    def searches(batch):
        with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as spy:
            builder.edge_features(batch)
        return spy.call_count

    def batches():
        picks = rng.integers(len(edges), size=256)
        return [edges[:1], [edges[int(i)] for i in picks], edges]

    assert [searches(batch) for batch in batches()] == [1, 1, 1]
    ego = next(iter(division.communities_by_ego))
    keys = [community_key(c) for c in division.communities_of(ego)]
    builder.refresh(keys, rng.random((len(keys), LENGTH)), changed_egos={ego})
    assert [searches(batch) for batch in batches()] == [1, 1, 1]


def test_a_pair_indexed_only_from_the_smaller_ego_reads_its_own_side():
    """Only ego 0 is divided, so (0, 1) has a key from ego 0's side alone:
    the search for ego 1's side misses, and ego 0's side sits at the miss's
    insertion point, not one past it."""
    graph = Graph(nodes=range(4))
    for u, v in [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3)]:
        graph.add_edge(u, v)
    division = divide(graph, egos=[0])
    vectors = {community_key(c): np.full(LENGTH, 1.0 + c.index) for c in division.all_communities()}
    builder = EdgeFeatureBuilder(division, vectors, LENGTH)
    queries = [(0, 1), (1, 0), (0, 2), (0, 3), (1, 2)]
    _assert_matches_oracle(builder, vectors, queries)
    features = builder.edge_features([(1, 0)])[0]
    assert features[0] == 0.0 and not features[2 : 2 + LENGTH].any()
    assert features[1] > 0.0 and features[2 + LENGTH :].all()


def test_pair_keys_stay_in_range_below_the_node_bound():
    """The packing's bound is exactly where it breaks: the largest ids it
    allows keep both directions of a pair apart, ordered and below the
    index's trailing key; one id more wraps the sign bit."""
    top = combination.MAX_INDEX_NODES - 1
    egos, members = np.array([top, top - 1]), np.array([top - 1, top])
    keys = combination._pair_keys(egos, members)
    assert 0 <= keys[0] < keys[1] < np.iinfo(np.int64).max
    assert keys[1] - keys[0] == 1
    assert combination._pair_keys(np.array([top + 1]), np.array([top + 2]))[0] < 0


def test_an_index_past_the_node_bound_is_refused():
    graph = Graph(nodes=range(5))
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        graph.add_edge(u, v)
    division = divide(graph)
    with mock.patch.object(combination, "MAX_INDEX_NODES", 4):
        with pytest.raises(PipelineError, match="at most 4 nodes, the division spans 5"):
            EdgeFeatureBuilder(division, {}, LENGTH)
