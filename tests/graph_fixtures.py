"""Small structural graph fixtures for the tests.

The realistic WeChat-like generator the product runs lives in
:mod:`repro.synthetic`; the functions here build Erdős–Rényi,
Barabási–Albert, planted-partition and clique graphs and the paper's
Figure 1 and Figure 7 example networks.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.exceptions import DatasetError
from repro.graph.graph import Graph


def erdos_renyi(num_nodes: int, edge_prob: float, seed: int | None = None) -> Graph:
    """Erdős–Rényi ``G(n, p)`` random graph."""
    if num_nodes < 0:
        raise DatasetError("num_nodes must be non-negative")
    if not 0.0 <= edge_prob <= 1.0:
        raise DatasetError("edge_prob must be in [0, 1]")
    rng = random.Random(seed)
    graph = Graph(nodes=range(num_nodes))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < edge_prob:
                graph.add_edge(u, v)
    return graph


def barabasi_albert(num_nodes: int, edges_per_node: int, seed: int | None = None) -> Graph:
    """Barabási–Albert preferential-attachment graph.

    Produces the heavy-tailed degree distribution typical of friendship
    graphs, which stresses the ego-network extraction path.
    """
    if edges_per_node < 1:
        raise DatasetError("edges_per_node must be >= 1")
    if num_nodes <= edges_per_node:
        raise DatasetError("num_nodes must exceed edges_per_node")
    rng = random.Random(seed)
    graph = Graph(nodes=range(num_nodes))
    # Start from a small clique so early targets exist.
    targets = list(range(edges_per_node + 1))
    for u in targets:
        for v in targets:
            if u < v:
                graph.add_edge(u, v)
    repeated: list[int] = []
    for node in targets:
        repeated.extend([node] * graph.degree(node))
    for new_node in range(edges_per_node + 1, num_nodes):
        chosen: set[int] = set()
        while len(chosen) < edges_per_node:
            chosen.add(rng.choice(repeated))
        for target in chosen:
            graph.add_edge(new_node, target)
            repeated.extend([new_node, target])
    return graph


def planted_partition(
    community_sizes: Sequence[int],
    intra_prob: float,
    inter_prob: float,
    seed: int | None = None,
) -> tuple[Graph, list[list[int]]]:
    """Planted-partition graph: dense inside blocks, sparse between blocks.

    Returns the graph and the list of planted communities (lists of node ids).
    This is the canonical fixture for validating community detection.
    """
    if not 0.0 <= inter_prob <= intra_prob <= 1.0:
        raise DatasetError("expected 0 <= inter_prob <= intra_prob <= 1")
    rng = random.Random(seed)
    graph = Graph()
    communities: list[list[int]] = []
    next_id = 0
    for size in community_sizes:
        block = list(range(next_id, next_id + size))
        next_id += size
        communities.append(block)
        for node in block:
            graph.add_node(node)
    for ci, block in enumerate(communities):
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                if rng.random() < intra_prob:
                    graph.add_edge(u, v)
        for other in communities[ci + 1 :]:
            for u in block:
                for v in other:
                    if rng.random() < inter_prob:
                        graph.add_edge(u, v)
    return graph, communities


def clique(num_nodes: int, offset: int = 0) -> Graph:
    """Complete graph on ``num_nodes`` nodes, ids starting at ``offset``."""
    graph = Graph(nodes=range(offset, offset + num_nodes))
    nodes = list(range(offset, offset + num_nodes))
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            graph.add_edge(u, v)
    return graph


def paper_figure7_network() -> Graph:
    """The nine-node example network of Figure 7(a) in the paper.

    Node 1 is the ego node used in the paper's running example.  Its ego
    network splits into two local communities ``{2, 3, 4}`` and ``{5, 6}``,
    and node 4 has tightness 2/3 to the first community because it also
    connects to node 6.
    """
    return Graph(
        edges=[
            (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
            (2, 3), (2, 4), (3, 4),
            (5, 6), (4, 6),
            (6, 9),
            (5, 7), (7, 8), (5, 8),
        ]
    )


def paper_figure1_network() -> Graph:
    """The example network of Figure 1 in the paper (users U1..U9).

    Integer node ``i`` stands for user ``U_i``.  U1's ego network contains
    U2..U6 and splits into communities ``{U2, U3, U4}`` and ``{U5, U6}``;
    U2's ego network contains U1, U3, U4 and U7.
    """
    return Graph(
        edges=[
            (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
            (2, 3), (2, 4), (3, 4),
            (5, 6),
            (2, 7), (7, 8),
            (6, 9),
        ]
    )
