"""Shared fixtures for the LoCEC reproduction test suite."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.graph import Graph, InteractionStore, NodeFeatureStore
from repro.synthetic import make_workload
from repro.types import InteractionDim, RelationType
from tests.clocks import TickingClock
from tests.graph_fixtures import paper_figure1_network, paper_figure7_network

pytest_plugins = ["pytester"]

# When a @given test fails, hypothesis imports libcst to print a patch hint.
# With some libcst / mypy_extensions pairs that import warns
# DeprecationWarning, which pytest.ini's error::DeprecationWarning turns into
# an INTERNALERROR that hides the falsifying example.  Import it once here,
# with that warning silenced; without libcst hypothesis skips the hint.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst.metadata  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def fig7_graph() -> Graph:
    """The nine-node example network of Figure 7(a)."""
    return paper_figure7_network()


@pytest.fixture
def fig1_graph() -> Graph:
    """The example network of Figure 1."""
    return paper_figure1_network()


@pytest.fixture
def triangle_graph() -> Graph:
    """A 3-clique."""
    return Graph(edges=[(1, 2), (2, 3), (1, 3)])


@pytest.fixture
def two_cliques_graph() -> Graph:
    """Two 4-cliques joined by a single bridge edge."""
    graph = Graph()
    for block in ([0, 1, 2, 3], [4, 5, 6, 7]):
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                graph.add_edge(u, v)
    graph.add_edge(3, 4)
    return graph


@pytest.fixture
def small_features() -> NodeFeatureStore:
    """Feature store with two dimensions for nodes 1..6."""
    store = NodeFeatureStore(["gender", "age"])
    for node in range(1, 7):
        store.set(node, [node % 2, 20 + node])
    return store


@pytest.fixture
def small_interactions() -> InteractionStore:
    """Interaction store with a few recorded interactions among nodes 1..6."""
    store = InteractionStore()
    store.record(1, 2, InteractionDim.MESSAGE, 3)
    store.record(2, 3, InteractionDim.LIKE_PICTURE, 2)
    store.record(1, 3, InteractionDim.COMMENT_PICTURE, 1)
    store.record(4, 5, InteractionDim.LIKE_GAME, 4)
    return store


@pytest.fixture(scope="session")
def tiny_workload():
    """A ~120-user synthetic workload shared by the slower integration tests."""
    return make_workload("tiny", seed=1)


@pytest.fixture(scope="session")
def tiny_division(tiny_workload):
    """Cached Phase I result for the tiny workload."""
    return tiny_workload.division()


@pytest.fixture
def ticking_clock() -> TickingClock:
    return TickingClock()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def relation_targets() -> tuple[RelationType, ...]:
    return RelationType.classification_targets()
