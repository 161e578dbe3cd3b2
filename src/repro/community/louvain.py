"""A single-level Louvain-style greedy modularity optimiser.

Provided as a second ablation alternative for Phase I.  The implementation
runs repeated local-move passes followed by graph aggregation, which is the
classic Louvain structure (Blondel et al. 2008), restricted to unweighted
input graphs (edge weights appear only in the aggregated levels).
"""

from __future__ import annotations

import random
from typing import Hashable

from repro.graph.graph import Graph
from repro.types import Node, node_key


def louvain_communities(
    graph: Graph, seed: int | None = 0, max_levels: int = 10
) -> tuple[frozenset[Node], ...]:
    """Detect communities by greedy modularity optimisation.

    Returns a partition of the original node set.  Deterministic for a fixed
    ``seed`` and graph value: nodes enter in canonical-key order, and every
    later accumulation is over integer-valued weights.
    """
    if graph.num_nodes == 0:
        return ()
    nodes = sorted(graph.nodes(), key=node_key)
    if graph.num_edges == 0:
        return tuple(frozenset([node]) for node in nodes)

    # Weighted adjacency for aggregated levels; level 0 weights are all 1.
    adjacency: dict[Hashable, dict[Hashable, float]] = {
        node: {neighbor: 1.0 for neighbor in graph.neighbors(node)} for node in nodes
    }
    # Each "super node" maps to the original nodes it contains.
    contents: dict[Hashable, set[Node]] = {node: {node} for node in nodes}
    rng = random.Random(seed)

    for _ in range(max_levels):
        communities, improved = _one_level(adjacency, rng)
        if not improved:
            break
        adjacency, contents = _aggregate(adjacency, contents, communities)
        if len(adjacency) == len(communities) == 1:
            break

    return tuple(frozenset(block) for block in contents.values())


def _one_level(
    adjacency: dict[Hashable, dict[Hashable, float]], rng: random.Random
) -> tuple[dict[Hashable, int], bool]:
    """One pass of local moves; returns (node → community id, improved?)."""
    nodes = list(adjacency)
    community: dict[Hashable, int] = {node: index for index, node in enumerate(nodes)}
    degree = {node: sum(weights.values()) for node, weights in adjacency.items()}
    community_degree = dict(
        (community[node], degree[node]) for node in nodes
    )
    total_weight = sum(degree.values()) / 2.0
    if total_weight == 0:
        return community, False

    improved_overall = False
    for _ in range(20):
        rng.shuffle(nodes)
        moved = False
        for node in nodes:
            current = community[node]
            # Weights from node to each neighbouring community.
            links: dict[int, float] = {}
            for neighbor, weight in adjacency[node].items():
                if neighbor == node:
                    continue
                links[community[neighbor]] = links.get(community[neighbor], 0.0) + weight
            community_degree[current] -= degree[node]
            best_community = current
            best_gain = links.get(current, 0.0) - (
                community_degree[current] * degree[node] / (2.0 * total_weight)
            )
            # Candidates are scanned in ascending community id so the winner
            # does not depend on dict insertion order.
            for candidate, link_weight in sorted(links.items()):
                gain = link_weight - (
                    community_degree.get(candidate, 0.0)
                    * degree[node]
                    / (2.0 * total_weight)
                )
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_community = candidate
            community_degree[best_community] = (
                community_degree.get(best_community, 0.0) + degree[node]
            )
            if best_community != current:
                community[node] = best_community
                moved = True
                improved_overall = True
        if not moved:
            break

    # Renumber communities densely.
    remap: dict[int, int] = {}
    for node in community:
        remap.setdefault(community[node], len(remap))
        community[node] = remap[community[node]]
    return community, improved_overall


def _aggregate(
    adjacency: dict[Hashable, dict[Hashable, float]],
    contents: dict[Hashable, set[Node]],
    communities: dict[Hashable, int],
) -> tuple[dict[Hashable, dict[Hashable, float]], dict[Hashable, set[Node]]]:
    """Collapse each community into a super node."""
    new_adjacency: dict[Hashable, dict[Hashable, float]] = {}
    new_contents: dict[Hashable, set[Node]] = {}
    for node, block in communities.items():
        new_contents.setdefault(block, set()).update(contents[node])
        new_adjacency.setdefault(block, {})
    for node, weights in adjacency.items():
        source = communities[node]
        for neighbor, weight in weights.items():
            target = communities[neighbor]
            # Intra-community edges become a self-loop on the super node; both
            # directions of each edge are visited, so the self-loop weight ends
            # up at 2 × (internal weight), keeping super-node degrees correct.
            new_adjacency[source][target] = new_adjacency[source].get(target, 0.0) + weight
    return new_adjacency, new_contents
