"""The Phase I oracle: Girvan–Newman and Equation 3 on ``Graph`` objects.

The product divides every ego of a call in lockstep on flat CSR arrays
(:func:`repro.core.division.divide`).  This module is Phase I as the paper
writes it, one ego network at a time on the readable ``dict``-of-sets
:class:`~repro.graph.graph.Graph`:

* :func:`ego_network` — the sub-graph induced on an ego's friends, the ego
  and its incident edges excluded (Section IV-A);
* :func:`edge_betweenness` — Brandes (2001), accumulated onto edges;
* :func:`connected_components` and :func:`modularity` — GN's stopping
  structure and its cut of the dendrogram;
* :func:`girvan_newman_levels` / :func:`girvan_newman` — the dendrogram
  sweep, run to the end, and its best-modularity level;
* :func:`community_tightness` — Equation 3 for every member of a community;
* :func:`reference_divide` — all of the above per ego, returning the
  product's :class:`~repro.core.division.DivisionResult`.

``tests/test_graph_csr.py`` holds the CSR engine to :func:`reference_divide`
bit for bit (members, index and tightness), ``scripts/division_probe.py``
does so on the synthetic workloads, and ``scripts/perf_report.py`` times the
two against each other.  Like every ``tests/*_reference.py`` oracle this
imports only the standard library and ``repro``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Sequence

from repro.core.division import DivisionResult, LocalCommunity
from repro.exceptions import CommunityError
from repro.graph.graph import Graph
from repro.types import Edge, Node, canonical_edge, node_key


def edge_key(edge: Edge) -> str:
    """Sort key of a canonical edge, spelled from its endpoints' keys: GN's
    tie-break between edges of equal betweenness."""
    return f"({node_key(edge[0])}, {node_key(edge[1])})"


# ------------------------------------------------------------ ego networks
def ego_network(graph: Graph, ego: Node) -> Graph:
    """The sub-graph induced on ``ego``'s friends, the ego excluded.

    Excluding the ego matters: kept, its star of edges would glue every
    friend circle into one community.  Friends with no mutual friendship
    appear as isolated nodes, so the node set is exactly
    ``neighbors(ego)``.
    """
    friends = graph.neighbors(ego)
    ego_net = Graph(nodes=friends)
    for friend in friends:
        for other in graph.neighbors(friend):
            if other in friends and other != friend:
                ego_net.add_edge(friend, other)
    return ego_net


# ------------------------------------------------------ edge betweenness
def edge_betweenness(graph: Graph) -> dict[Edge, float]:
    """Edge betweenness of every edge of ``graph``, by canonical edge.

    Values are not normalised; each unordered pair of nodes contributes
    once (the directed accumulation is halved).
    """
    betweenness: dict[Edge, float] = {edge: 0.0 for edge in graph.edges()}
    for source in graph.nodes():
        _accumulate_single_source(graph, source, betweenness)
    # Each undirected pair (s, t) was counted from both s and t.
    for edge in betweenness:
        betweenness[edge] /= 2.0
    return betweenness


def _accumulate_single_source(
    graph: Graph, source: Node, betweenness: dict[Edge, float]
) -> None:
    """Accumulate edge dependencies for shortest paths from ``source``."""
    # Single-source shortest paths (BFS, unweighted).
    stack: list[Node] = []
    predecessors: dict[Node, list[Node]] = {node: [] for node in graph.nodes()}
    sigma: dict[Node, float] = dict.fromkeys(graph.nodes(), 0.0)
    distance: dict[Node, int] = dict.fromkeys(graph.nodes(), -1)
    sigma[source] = 1.0
    distance[source] = 0
    queue: deque[Node] = deque([source])
    while queue:
        current = queue.popleft()
        stack.append(current)
        for neighbor in graph.neighbors(current):
            if distance[neighbor] < 0:
                distance[neighbor] = distance[current] + 1
                queue.append(neighbor)
            if distance[neighbor] == distance[current] + 1:
                sigma[neighbor] += sigma[current]
                predecessors[neighbor].append(current)

    # Back-propagation of dependencies onto edges.
    delta: dict[Node, float] = dict.fromkeys(graph.nodes(), 0.0)
    while stack:
        node = stack.pop()
        for pred in predecessors[node]:
            if sigma[node] == 0:
                continue
            contribution = (sigma[pred] / sigma[node]) * (1.0 + delta[node])
            betweenness[canonical_edge(pred, node)] += contribution
            delta[pred] += contribution


# ------------------------------------------- components and modularity
def connected_components(graph: Graph) -> list[set[Node]]:
    """The connected components of ``graph``, by smallest member under
    :data:`repro.types.node_key`."""
    seen: set[Node] = set()
    components: list[set[Node]] = []
    for start in sorted(graph.nodes(), key=node_key):
        if start in seen:
            continue
        component: set[Node] = {start}
        queue: deque[Node] = deque([start])
        seen.add(start)
        while queue:
            current = queue.popleft()
            for neighbor in graph.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    queue.append(neighbor)
        components.append(component)
    return components


def modularity(graph: Graph, communities: Sequence[Iterable[Node]]) -> float:
    """Newman modularity ``Q = sum_c [L_c / m - (d_c / 2m)^2]`` of
    ``communities``, which must partition the node set
    (:class:`~repro.exceptions.CommunityError` otherwise)."""
    m = graph.num_edges
    if m == 0:
        return 0.0
    community_sets = [set(block) for block in communities]
    _validate_partition(graph, community_sets)

    q = 0.0
    for block in community_sets:
        intra_edges = 0
        total_degree = 0
        for node in block:
            total_degree += graph.degree(node)
            intra_edges += sum(1 for other in graph.neighbors(node) if other in block)
        intra_edges //= 2
        q += intra_edges / m - (total_degree / (2.0 * m)) ** 2
    return q


def _validate_partition(graph: Graph, community_sets: Sequence[set[Node]]) -> None:
    covered: set[Node] = set()
    for block in community_sets:
        overlap = covered & block
        if overlap:
            raise CommunityError(f"communities overlap on nodes {sorted(map(repr, overlap))}")
        covered |= block
    graph_nodes = set(graph.nodes())
    if covered != graph_nodes:
        missing = graph_nodes - covered
        extra = covered - graph_nodes
        raise CommunityError(
            "communities must partition the node set "
            f"(missing={len(missing)}, extraneous={len(extra)})"
        )


# ----------------------------------------------------------- Girvan–Newman
@dataclass(frozen=True)
class GirvanNewmanResult:
    """The best-modularity GN partition of one graph, and its modularity."""

    communities: tuple[frozenset[Node], ...]
    modularity: float


def girvan_newman_levels(graph: Graph) -> Iterator[list[set[Node]]]:
    """Yield successive GN partitions, from the connected components down
    to singletons; each has at least one more block than the last."""
    working = graph.copy()
    yield [set(block) for block in connected_components(working)]
    current_count = len(connected_components(working))
    while working.num_edges > 0:
        betweenness = edge_betweenness(working)
        # Highest betweenness, then the largest edge key.  Values are
        # quantized first so that mathematically tied edges (whose float
        # accumulations may differ in the last ulp with the summation order)
        # resolve alike here and on the CSR route.
        target = max(
            betweenness.items(), key=lambda kv: (round(kv[1], 9), edge_key(kv[0]))
        )[0]
        working.remove_edge(*target)
        components = connected_components(working)
        if len(components) > current_count:
            current_count = len(components)
            yield [set(block) for block in components]


def girvan_newman(graph: Graph) -> GirvanNewmanResult:
    """The best-modularity partition over every GN dendrogram level.

    An empty graph has no communities; an edgeless one has a singleton per
    node (the "communities of size one" whose tightness the paper defines
    as 1).
    """
    if graph.num_nodes == 0:
        return GirvanNewmanResult(communities=(), modularity=0.0)
    if graph.num_edges == 0:
        singleton = tuple(
            frozenset([node]) for node in sorted(graph.nodes(), key=node_key)
        )
        return GirvanNewmanResult(communities=singleton, modularity=0.0)

    best_partition: list[set[Node]] | None = None
    best_q = float("-inf")
    for partition in girvan_newman_levels(graph):
        q = modularity(graph, partition)
        if q > best_q:
            best_q = q
            best_partition = partition

    assert best_partition is not None  # at least one level is always yielded
    communities = tuple(frozenset(block) for block in best_partition)
    return GirvanNewmanResult(communities=communities, modularity=best_q)


# -------------------------------------------------------------- Equation 3
def community_tightness(
    ego_net: Graph, community: Collection[Node]
) -> dict[Node, float]:
    """Equation 3 for every member of ``community`` in ``ego_net``:
    1 in a singleton, else ``(|friend(u, C)| / |friend(u, G_v)|) ×
    (|friend(u, C)| / (|C| - 1))``.  A member with no friend in the ego
    network (only in a community not made by GN) gets 0."""
    member_set = community if isinstance(community, (set, frozenset)) else set(community)
    size = len(member_set)
    if size == 1:
        return {node: 1.0 for node in member_set}
    values: dict[Node, float] = {}
    for node in member_set:
        friends_in_community = sum(1 for other in ego_net.neighbors(node) if other in member_set)
        friends_in_ego = ego_net.degree(node)
        if friends_in_ego == 0:
            values[node] = 0.0
        else:
            values[node] = (friends_in_community / friends_in_ego) * (
                friends_in_community / (size - 1)
            )
    return values


# ---------------------------------------------------------------- Phase I
def reference_divide(graph: Graph, egos: Iterable[Node] | None = None) -> DivisionResult:
    """Phase I one ego at a time: GN on each ego network, then Equation 3.

    ``egos`` defaults to every node in :data:`repro.types.node_key` order;
    a repeated ego is divided once.  The same contract as
    :func:`repro.core.division.divide`, so the two compare with ``==``.
    """
    if egos is None:
        egos = sorted(graph.nodes(), key=node_key)
    return DivisionResult(
        {ego: _ego_communities(graph, ego) for ego in dict.fromkeys(egos)}
    )


def _ego_communities(graph: Graph, ego: Node) -> list[LocalCommunity]:
    ego_net = ego_network(graph, ego)
    return [
        LocalCommunity(
            ego=ego,
            members=members,
            tightness=community_tightness(ego_net, members),
            index=index,
        )
        for index, members in enumerate(girvan_newman(ego_net).communities)
    ]
