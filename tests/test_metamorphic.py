"""Metamorphic relations: what a ``fit`` must not notice.

The parity suites hold each routed kernel to its oracle; these hold the
whole pipeline to relations the paper's method implies, byte for byte on
``predict_edge_proba``:

* **labeled-set order** — the labeled edges are a set: shuffling the list
  and swapping ``u`` / ``v`` of every edge changes no prediction (the
  Phase III labeler orders its training rows itself);
* **locality** — an edge is classified from its endpoints' local
  communities, so adding a disjoint, unlabeled component to the network,
  with node ids that interleave with the originals in
  :data:`repro.types.node_key` order, changes no original prediction.
"""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core import LoCEC, LoCECConfig
from repro.types import LabeledEdge

# The drawn values only seed shuffles and random graphs: nothing to shrink.
FAST = settings(
    max_examples=4, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate]
)


def _proba(graph, features, interactions, labeled, edges) -> bytes:
    config = LoCECConfig.locec_xgb()
    config.gbdt.num_rounds = 8
    pipeline = LoCEC(config).fit(graph, features, interactions, labeled)
    return pipeline.predict_edge_proba(edges).tobytes()


@pytest.fixture(scope="module")
def reference(tiny_workload):
    dataset = tiny_workload.dataset
    edges = list(dataset.graph.edges())
    expected = _proba(
        dataset.graph, dataset.features, dataset.interactions, tiny_workload.train_edges, edges
    )
    return edges, expected


@FAST
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fit_ignores_the_order_and_orientation_of_labeled_edges(
    reference, tiny_workload, seed
):
    edges, expected = reference
    dataset = tiny_workload.dataset
    labeled = [
        LabeledEdge(item.v, item.u, item.label, item.second_category)
        for item in tiny_workload.train_edges
    ]
    random.Random(seed).shuffle(labeled)
    proba = _proba(dataset.graph, dataset.features, dataset.interactions, labeled, edges)
    assert proba == expected


@st.composite
def disjoint_components(draw, taken: int):
    """Nodes ``taken .. 20 * taken`` (so their ``repr`` keys fall between
    the originals' ``0 .. taken - 1``), random edges among them, and random
    features and interaction counts."""
    nodes = draw(
        st.lists(st.integers(taken, 20 * taken), min_size=2, max_size=24, unique=True)
    )
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    edges = [(u, v) for u, v in draw(st.lists(pairs, min_size=1, max_size=60)) if u != v]
    return nodes, edges, draw(st.integers(0, 2**32 - 1))


@FAST
@given(data=st.data())
def test_a_disjoint_unlabeled_component_changes_no_prediction(reference, tiny_workload, data):
    edges, expected = reference
    dataset = tiny_workload.dataset
    nodes, new_edges, seed = data.draw(disjoint_components(dataset.graph.num_nodes))
    assert not set(nodes) & set(dataset.graph.nodes())
    assert min(map(repr, nodes)) < max(map(repr, dataset.graph.nodes()))
    rng = np.random.default_rng(seed)
    graph = dataset.graph.copy()
    features = copy.deepcopy(dataset.features)
    interactions = copy.deepcopy(dataset.interactions)
    for node in nodes:
        graph.add_node(node)
        features.set(node, rng.integers(0, 5, features.num_features).astype(float))
    for u, v in new_edges:
        graph.add_edge(u, v)
        interactions.set_vector(u, v, rng.integers(0, 4, interactions.num_dims).astype(float))
    proba = _proba(graph, features, interactions, tiny_workload.train_edges, edges)
    assert proba == expected
