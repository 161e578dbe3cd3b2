"""Asynchronous label-propagation community detection (Raghavan et al. 2007).

Used as an ablation alternative to Girvan–Newman in Phase I: it is much
faster (near-linear) but less stable, which is exactly the trade-off the
ablation benchmark quantifies.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.graph.graph import Graph
from repro.types import Node, node_key


def label_propagation_communities(
    graph: Graph, max_iterations: int = 100, seed: int | None = 0
) -> tuple[frozenset[Node], ...]:
    """Detect communities by propagating the most frequent neighbour label.

    Parameters
    ----------
    graph:
        Graph to partition.
    max_iterations:
        Safety cap on sweeps over the node set.
    seed:
        Seed for the node-visit order shuffling; pass ``None`` for
        non-deterministic behaviour.

    Returns
    -------
    tuple of frozenset
        The detected communities (a partition of the node set).
    """
    # Initial label ids and the pre-shuffle visit order follow the canonical
    # node key, so the result depends on the graph's value and the seed only.
    nodes = sorted(graph.nodes(), key=node_key)
    labels: dict[Node, int] = {node: index for index, node in enumerate(nodes)}
    rng = random.Random(seed)

    for _ in range(max_iterations):
        rng.shuffle(nodes)
        changed = False
        for node in nodes:
            neighbors = graph.neighbors(node)
            if not neighbors:
                continue
            counts = Counter(labels[neighbor] for neighbor in neighbors)
            best_count = max(counts.values())
            # Deterministic tie-break: smallest label id among the maxima.
            best_label = min(
                label for label, count in counts.items() if count == best_count
            )
            if labels[node] != best_label:
                labels[node] = best_label
                changed = True
        if not changed:
            break

    groups: dict[int, set[Node]] = {}
    for node, label in labels.items():
        groups.setdefault(label, set()).add(node)
    return tuple(frozenset(block) for block in groups.values())
