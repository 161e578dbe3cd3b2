"""Girvan–Newman community detection (the paper's Phase I algorithm).

The paper runs Girvan–Newman (GN) inside every ego network to find the ego's
*local communities* (friend circles).  GN iteratively removes the edge with
the highest betweenness; every time removal splits a connected component the
current partition is a candidate.  We select the candidate with the highest
modularity, which is the standard way to cut the GN dendrogram and matches
the paper's qualitative examples (Figure 7: the ego network of node 1 splits
into ``{2, 3, 4}`` and ``{5, 6}``).

Ego networks are small (median community size 8, 90 % of communities under
30 users), so the O(m²n) worst case of GN is acceptable — exactly the
argument the paper makes for running GN *locally* rather than globally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.community.betweenness import edge_betweenness
from repro.community.connected import connected_components
from repro.community.modularity import modularity
from repro.graph.graph import Graph
from repro.types import Node, edge_key, node_key


@dataclass(frozen=True)
class GirvanNewmanResult:
    """Result of running Girvan–Newman on one graph.

    Attributes
    ----------
    communities:
        The selected partition (list of frozensets of nodes).
    modularity:
        Modularity of the selected partition on the original graph.
    levels_explored:
        Number of dendrogram levels that were evaluated.
    """

    communities: tuple[frozenset[Node], ...]
    modularity: float
    levels_explored: int


def girvan_newman_levels(graph: Graph) -> Iterator[list[set[Node]]]:
    """Yield successive GN partitions, from coarsest to finest.

    The first yielded partition is the set of connected components of the
    input graph; each subsequent partition has at least one more component.
    The iteration stops when no edges remain.
    """
    working = graph.copy()
    yield [set(block) for block in connected_components(working)]
    current_count = len(connected_components(working))
    while working.num_edges > 0:
        betweenness = edge_betweenness(working)
        # Deterministic tie-break: highest betweenness, then lexicographic
        # edge.  Values are quantized first so that mathematically tied edges
        # (whose floating-point accumulations may differ in the last ulp
        # depending on summation order) resolve identically across the dict
        # and CSR backends.
        target = max(
            betweenness.items(), key=lambda kv: (round(kv[1], 9), edge_key(kv[0]))
        )[0]
        working.remove_edge(*target)
        components = connected_components(working)
        if len(components) > current_count:
            current_count = len(components)
            yield [set(block) for block in components]


def girvan_newman(
    graph: Graph,
    max_communities: int | None = None,
    min_community_size: int = 1,
) -> GirvanNewmanResult:
    """Run Girvan–Newman and return the best-modularity partition.

    Parameters
    ----------
    graph:
        The (small) graph to partition, typically an ego network.
    max_communities:
        Optional cap on the number of communities; dendrogram levels with
        more communities than this are not considered.
    min_community_size:
        Singleton/tiny communities below this size are still returned (the
        partition must cover all nodes) but a level is never *preferred*
        solely because it shattered the graph into tiny fragments — this is
        naturally handled by modularity, the parameter only provides an
        early-exit: once every community at a level is smaller than
        ``min_community_size`` the search stops.

    Notes
    -----
    For empty graphs the result contains zero communities; for edgeless
    graphs every node is its own community (these are the "communities of
    size one" whose tightness the paper defines as 1).
    """
    if graph.num_nodes == 0:
        return GirvanNewmanResult(communities=(), modularity=0.0, levels_explored=0)
    if graph.num_edges == 0:
        singleton = tuple(
            frozenset([node]) for node in sorted(graph.nodes(), key=node_key)
        )
        return GirvanNewmanResult(
            communities=singleton, modularity=0.0, levels_explored=1
        )

    best_partition: list[set[Node]] | None = None
    best_q = float("-inf")
    levels = 0
    for partition in girvan_newman_levels(graph):
        levels += 1
        if max_communities is not None and len(partition) > max_communities:
            break
        q = modularity(graph, partition)
        if q > best_q:
            best_q = q
            best_partition = partition
        if min_community_size > 1 and all(
            len(block) < min_community_size for block in partition
        ):
            break

    assert best_partition is not None  # at least one level is always yielded
    communities = tuple(frozenset(block) for block in best_partition)
    return GirvanNewmanResult(
        communities=communities, modularity=best_q, levels_explored=levels
    )
