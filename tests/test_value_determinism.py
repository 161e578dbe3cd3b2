"""``fit`` is a function of its inputs' *value*.

Every order LoCEC decides — communities within an ego, egos within a
division, training rows — comes from
:data:`repro.types.node_key`, never from insertion history, set iteration
order or the interpreter's hash seed.  These tests pin that from four sides:

(a) rebuilding an equal graph with shuffled node / edge insertion and random
    endpoint orientation leaves ``fit -> predict_edge_proba`` byte-identical;
(b) a ``CSRGraph`` that is nothing but its three arrays divides exactly like
    the ``dict`` oracle;
(c) a str-labelled graph divides to one digest under different
    ``PYTHONHASHSEED`` values (what lets CI run without pinning it);
(d) ``apply_updates`` is restorable — add then remove an edge and every
    prediction is back bit for bit — and an update that introduces a node
    equals a scratch ``fit`` on the sorted edge list of the resulting graph.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro
from repro.core import LoCEC, LoCECConfig
from repro.core.division import divide
from repro.graph import Graph
from repro.graph.csr import CSRGraph
from repro.synthetic import make_workload
from tests.division_reference import reference_divide


def _config(model: str) -> LoCECConfig:
    maker = LoCECConfig.locec_xgb if model == "xgb" else LoCECConfig.locec_cnn
    config = maker()
    config.gbdt.num_rounds = 8
    config.cnn.epochs = 2
    return config


def _fit(model: str, graph: Graph, workload) -> LoCEC:
    dataset = workload.dataset
    return LoCEC(_config(model)).fit(
        graph, dataset.features, dataset.interactions, workload.train_edges
    )


def _rebuilt(graph: Graph, seed: int) -> Graph:
    """An equal graph with another insertion history."""
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in graph.edges()]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return Graph(edges=edges, nodes=nodes)


# --------------------------------------------- (a) insertion permutations
@pytest.fixture(scope="module", params=["xgb", "cnn"])
def reference_proba(request, tiny_workload):
    graph = tiny_workload.dataset.graph
    edges = list(graph.edges())
    proba = _fit(request.param, graph, tiny_workload).predict_edge_proba(edges)
    return request.param, edges, proba.tobytes()


# The drawn value only seeds a shuffle: there is nothing to shrink.
@settings(
    max_examples=5,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_fit_ignores_insertion_history(reference_proba, tiny_workload, seed):
    model, edges, expected = reference_proba
    rebuilt = _rebuilt(tiny_workload.dataset.graph, seed)
    proba = _fit(model, rebuilt, tiny_workload).predict_edge_proba(edges)
    assert proba.tobytes() == expected


# ------------------------------------------------- (b) source-less CSRGraph
def test_bare_csr_arrays_divide_like_the_dict_oracle(tiny_workload):
    graph = tiny_workload.dataset.graph
    snapshot = CSRGraph.from_graph(graph)
    bare = CSRGraph(snapshot.indptr, snapshot.indices, list(snapshot.nodes()))
    oracle = reference_divide(graph)
    # LocalCommunity equality covers ego, members, tightness and index.
    assert divide(bare).communities_by_ego == oracle.communities_by_ego


# ------------------------------------------------------- (c) hash seeds
_DIGEST_CHILD = """
import hashlib, json
from repro.core.division import divide
from repro.graph import Graph
from tests.division_reference import reference_divide
from tests.graph_fixtures import planted_partition

base, _ = planted_partition([8, 8, 8], intra_prob=0.8, inter_prob=0.05, seed=7)
graph = Graph(nodes=(f"user:{node:04d}" for node in base.nodes()))
for u, v in base.edges():
    graph.add_edge(f"user:{u:04d}", f"user:{v:04d}")

def digest(division):
    rows = sorted(
        (ego, [(sorted(c.members), c.index, sorted(c.tightness.items())) for c in blocks])
        for ego, blocks in division.communities_by_ego.items()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()

print(json.dumps({"oracle": digest(reference_divide(graph)), "routed": digest(divide(graph))}))
"""


def _digests_under(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _DIGEST_CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout)


def test_division_digest_is_hash_seed_independent():
    first, second = _digests_under("1"), _digests_under("2")
    assert first == second
    assert first["oracle"] == first["routed"]


# ------------------------------------------------- (d) restorable updates
def _one_closing_non_edge_per_node(graph: Graph, count: int) -> list[tuple[int, int]]:
    """For the first ``count`` nodes that have one, a non-edge to a node they
    share a friend with (so adding it dirties a third ego)."""
    nodes = sorted(graph.nodes())
    found = []
    for u in nodes:
        closing = (
            (u, v)
            for v in nodes
            if u < v and not graph.has_edge(u, v) and graph.neighbors(u) & graph.neighbors(v)
        )
        found.extend(itertools.islice(closing, 1))
        if len(found) == count:
            break
    return found


@pytest.mark.parametrize("batch", ["one_edge", "many_edges"])
def test_add_then_remove_restores_every_prediction_under_cnn(batch):
    """The tier-1 form of benchmark Finding 3.  Before the canonical key both
    batches left an equal graph whose adjacency sets iterated differently:
    communities came back reordered, the CommCNN refit saw other minibatches
    and predictions moved."""
    workload = make_workload("tiny", seed=1)  # mutated below: not the shared one
    graph = workload.dataset.graph
    delta = [(0, 27)] if batch == "one_edge" else _one_closing_non_edge_per_node(graph, 48)
    edges = list(graph.edges())
    with _fit("cnn", graph, workload) as pipeline:
        expected = pipeline.predict_edge_proba(edges).tobytes()
        assert pipeline.apply_updates(added_edges=delta).num_dirty_egos >= 3
        pipeline.apply_updates(removed_edges=delta)
        assert set(graph.edges()) == set(edges)  # an equal graph, another history
        assert pipeline.predict_edge_proba(edges).tobytes() == expected


@pytest.mark.parametrize("model", ["xgb", "cnn"])
def test_update_adding_a_node_equals_scratch_fit_on_sorted_edges(model):
    workload = make_workload("tiny", seed=1)
    dataset = workload.dataset
    graph = dataset.graph
    # Key order puts the newcomer between existing egos, not at the end
    # where the update appends it.
    newcomer = 1000
    anchor, friend = next(iter(graph.edges()))
    profile = np.asarray(dataset.features.get_view(anchor)) + 1.0
    with _fit(model, graph, workload) as incremental:
        incremental.apply_updates(
            added_edges=[(newcomer, anchor), (friend, newcomer)],
            feature_updates=[(newcomer, profile)],
        )
        assert newcomer in incremental.division_.communities_by_ego

        scratch_inputs = make_workload("tiny", seed=1)
        scratch_inputs.dataset.features.set(newcomer, profile)
        with _fit(model, Graph(edges=sorted(graph.edges())), scratch_inputs) as scratch:
            assert (
                incremental.division_.communities_by_ego
                == scratch.division_.communities_by_ego
            )
            edges = list(graph.edges())
            assert (
                incremental.predict_edge_proba(edges).tobytes()
                == scratch.predict_edge_proba(edges).tobytes()
            )
