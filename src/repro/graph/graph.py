"""Undirected graph used throughout the LoCEC reproduction.

The WeChat friendship graph is undirected and simple (no self-loops, no
parallel edges).  This class stores adjacency as ``dict[node, set[node]]``
which is the structure every LoCEC phase needs: O(1) neighbour lookup for
ego-network extraction, fast membership checks for tightness computation,
and cheap iteration for community detection.

The class intentionally does *not* attach attribute dictionaries to nodes or
edges (unlike ``networkx``): node features and interaction counts live in
dedicated columnar stores (:class:`repro.graph.NodeFeatureStore` and
:class:`repro.graph.InteractionStore`) which mirrors how the paper separates
``G``, ``F`` and ``I``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError, SelfLoopError
from repro.types import Edge, Node, canonical_edge


class Graph:
    """A simple undirected graph with set-based adjacency.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs to add at construction time.
    nodes:
        Optional iterable of nodes to add (useful for isolated nodes).

    Examples
    --------
    >>> g = Graph(edges=[(1, 2), (2, 3)])
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.has_edge(3, 2)
    True
    """

    __slots__ = ("_adj",)

    def __init__(
        self,
        edges: Iterable[tuple[Node, Node]] | None = None,
        nodes: Iterable[Node] | None = None,
    ) -> None:
        self._adj: dict[Node, set[Node]] = {}
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------ nodes
    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph (no-op if it already exists)."""
        self._adj.setdefault(node, set())

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        try:
            neighbors = self._adj.pop(node)
        except KeyError:
            raise NodeNotFoundError(node) from None
        for other in neighbors:
            self._adj[other].discard(node)

    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    # ------------------------------------------------------------------ edges
    def add_edge(self, u: Node, v: Node) -> None:
        """Add the undirected edge ``(u, v)``, creating endpoints as needed."""
        if u == v:
            raise SelfLoopError(u)
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    def add_edges_from(self, edges: Iterable[tuple[Node, Node]]) -> None:
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the undirected edge ``(u, v)``; endpoints are kept."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def has_edge(self, u: Node, v: Node) -> bool:
        neighbors = self._adj.get(u)
        return neighbors is not None and v in neighbors

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each reported once in canonical order.

        An edge is emitted the first time either endpoint is visited, which
        needs only an O(V) visited-node set rather than an O(E) seen-edge
        set; the emission order is unchanged (first-encounter order).
        """
        visited: set[Node] = set()
        for u, neighbors in self._adj.items():
            for v in neighbors:
                if v not in visited:
                    yield canonical_edge(u, v)
            visited.add(u)

    @property
    def num_edges(self) -> int:
        return sum(len(neighbors) for neighbors in self._adj.values()) // 2

    # -------------------------------------------------------------- neighbours
    def neighbors(self, node: Node) -> set[Node]:
        """Return the neighbour set of ``node`` (a *copy-safe* frozen view).

        The returned set is the internal set; callers must not mutate it.
        Use :meth:`neighbor_list` when a mutable copy is needed.
        """
        try:
            return self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbor_list(self, node: Node) -> list[Node]:
        """Return a mutable list copy of the neighbours of ``node``."""
        return list(self.neighbors(node))

    def degree(self, node: Node) -> int:
        return len(self.neighbors(node))

    def degrees(self) -> dict[Node, int]:
        """Degree of every node, keyed by node."""
        return {node: len(neighbors) for node, neighbors in self._adj.items()}

    # ---------------------------------------------------------------- subgraph
    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the induced subgraph on ``nodes``.

        Nodes absent from the graph are ignored, mirroring the behaviour a
        distributed shard sees when a friend-of-friend lives on another shard.
        """
        keep = {node for node in nodes if node in self._adj}
        sub = Graph()
        for node in keep:
            sub.add_node(node)
        for node in keep:
            for other in self._adj[node]:
                if other in keep:
                    sub.add_edge(node, other)
        return sub

    def neighborhood_subgraph(self, egos: Iterable[Node]) -> "Graph":
        """Return the subgraph induced by ``egos`` and all their neighbours.

        The ego network of every ego in ``egos`` lies in it whole, so a
        re-division of those egos can read this instead of the network.
        """
        nodes: set[Node] = set()
        for ego in egos:
            nodes.add(ego)
            nodes |= self.neighbors(ego)
        return self.subgraph(nodes)

    def copy(self) -> "Graph":
        """Return a deep copy of the graph structure."""
        clone = Graph()
        clone._adj = {node: set(neighbors) for node, neighbors in self._adj.items()}
        return clone

    # ------------------------------------------------------------------- dunder
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"
