"""NumPy CSR (compressed sparse row) graph kernel layer.

LoCEC's Phase I cost is dominated by interpreter-bound inner loops over the
``dict[node, set[node]]`` adjacency of :class:`repro.graph.Graph`: ego-network
extraction and Brandes edge betweenness inside Girvan-Newman.  This module
holds the array-backed graph plus the kernels ``repro.core.division.divide``
routes through on the CSR backend — a kernel lives here only while a
product route selects it:

* :class:`CSRGraph` — int32 ``indptr``/``indices`` over a node <-> index
  interner, exposing the same read API as :class:`Graph` (``neighbors``,
  ``degree``, ``subgraph``, ``edges``, ``num_nodes``/``num_edges``).
* :func:`dense_ego_net` — sorted-adjacency intersection instead of the
  per-friend Python loop in :mod:`repro.graph.ego`, emitting the flat
  :class:`DenseEgoNet` edge arrays the GN engine runs on.
* :func:`girvan_newman_dense` — the full GN dendrogram sweep on those
  arrays, partitions identical to :func:`repro.community.girvan_newman`.
* :func:`edge_betweenness_csr` — the all-pairs Brandes kernel (every
  source at once, one matrix product per BFS level) that the GN engine
  uses on large components, exposed whole-graph as its test handle.

Path counts and degrees are integers (exactly representable in float64), so
the kernels match the dict-backend references bit-for-bit wherever the
reference accumulates integers, and to ~1e-12 otherwise.  Tightness
(Equation 3) on the CSR route is ``repro.core.division._block_tightness``;
see ``scripts/perf_report.py`` / ``BENCH_kernels.json`` for measured
speedups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import NodeNotFoundError
from repro.graph.graph import Graph
from repro.types import Edge, Node, canonical_edge, node_key

__all__ = [
    "CSRGraph",
    "DenseEgoNet",
    "dense_ego_net",
    "edge_betweenness_csr",
    "girvan_newman_dense",
]


class CSRGraph:
    """Undirected graph stored in compressed sparse row form.

    Nodes are interned to dense ``int32`` indices in insertion order;
    ``indices[indptr[i]:indptr[i + 1]]`` holds the neighbour indices of node
    ``i``, sorted ascending, which is what the intersection kernels rely on.

    The structure is immutable: build it once per (shard of the) global graph
    with :meth:`from_graph` / :meth:`from_edges` and run read-only kernels
    against it.  Mutating workloads (GN edge removal) copy into dense local
    arrays first — ego networks are tiny, the global graph is not.
    """

    __slots__ = ("indptr", "indices", "_nodes", "_index")

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, nodes: list[Node]
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self._nodes = nodes
        self._index: dict[Node, int] = {node: i for i, node in enumerate(nodes)}

    # -------------------------------------------------------------- builders
    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Build a CSR snapshot of a dict-backend :class:`Graph`."""
        nodes = list(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        degrees = np.fromiter(
            (graph.degree(node) for node in nodes), count=n, dtype=np.int64
        )
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        cursor = 0
        for node in nodes:
            neighbors = graph.neighbors(node)
            row = np.fromiter(
                (index[other] for other in neighbors),
                count=len(neighbors),
                dtype=np.int32,
            )
            row.sort()
            indices[cursor : cursor + row.size] = row
            cursor += row.size
        return cls(indptr, indices, nodes)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Node, Node]] | None = None,
        nodes: Iterable[Node] | None = None,
    ) -> "CSRGraph":
        """Build from an edge list (plus optional isolated nodes)."""
        return cls.from_graph(Graph(edges=edges, nodes=nodes))

    def to_graph(self) -> Graph:
        """Materialise the equivalent dict-backend :class:`Graph`."""
        graph = Graph(nodes=self._nodes)
        for i, u in enumerate(self._nodes):
            for j in self._row(i):
                if i < j:
                    graph.add_edge(u, self._nodes[j])
        return graph

    # ------------------------------------------------------------- interner
    def index_of(self, node: Node) -> int:
        """Dense index of ``node`` (raises :class:`NodeNotFoundError`)."""
        try:
            return self._index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def label_of(self, index: int) -> Node:
        """Node label at dense ``index``."""
        return self._nodes[index]

    def _row(self, index: int) -> np.ndarray:
        return self.indices[self.indptr[index] : self.indptr[index + 1]]

    # ---------------------------------------------------------- Graph read API
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return int(self.indices.size) // 2

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes)

    def has_node(self, node: Node) -> bool:
        return node in self._index

    def neighbors(self, node: Node) -> set[Node]:
        """Neighbour set of ``node`` (materialised from the CSR row)."""
        row = self._row(self.index_of(node))
        return {self._nodes[j] for j in row}

    def neighbor_list(self, node: Node) -> list[Node]:
        return [self._nodes[j] for j in self._row(self.index_of(node))]

    def degree(self, node: Node) -> int:
        i = self.index_of(node)
        return int(self.indptr[i + 1] - self.indptr[i])

    def degrees(self) -> dict[Node, int]:
        counts = np.diff(self.indptr)
        return {node: int(counts[i]) for i, node in enumerate(self._nodes)}

    def has_edge(self, u: Node, v: Node) -> bool:
        if u not in self._index or v not in self._index:
            return False
        row = self._row(self._index[u])
        j = int(np.searchsorted(row, self._index[v]))
        return j < row.size and int(row[j]) == self._index[v]

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges once each, in row-major index order."""
        for i, u in enumerate(self._nodes):
            for j in self._row(i):
                if i < j:
                    yield canonical_edge(u, self._nodes[j])

    def subgraph(self, nodes: Iterable[Node]) -> "CSRGraph":
        """Induced subgraph on ``nodes`` (unknown nodes ignored), as CSR."""
        keep = np.array(
            sorted({self._index[node] for node in nodes if node in self._index}),
            dtype=np.int32,
        )
        labels = [self._nodes[i] for i in keep]
        if keep.size == 0:
            return CSRGraph(np.zeros(1, np.int32), np.empty(0, np.int32), labels)
        starts = self.indptr[keep]
        ends = self.indptr[keep + 1]
        counts = (ends - starts).astype(np.int64, copy=False)
        cat = _gather_rows(self.indices, starts, ends)
        seg = np.repeat(np.arange(keep.size), counts)
        local, valid = _sorted_membership(keep, cat)
        seg, local = seg[valid], local[valid]
        indptr = np.zeros(keep.size + 1, dtype=np.int32)
        np.cumsum(np.bincount(seg, minlength=keep.size), out=indptr[1:])
        return CSRGraph(indptr, local.astype(np.int32, copy=False), labels)

    # -------------------------------------------------------------- dunder
    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CSRGraph):
            return set(self._nodes) == set(other._nodes) and set(self.edges()) == set(
                other.edges()
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def _gather_rows(indices: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``indices[starts[i]:ends[i]]`` for all i."""
    if starts.size == 0:
        return np.empty(0, dtype=indices.dtype)
    return np.concatenate(
        [indices[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
        or [np.empty(0, dtype=indices.dtype)]
    )


def _sorted_membership(
    sorted_values: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``queries`` inside ``sorted_values`` plus a hit mask."""
    pos = np.searchsorted(sorted_values, queries)
    pos = np.minimum(pos, sorted_values.size - 1)
    valid = sorted_values[pos] == queries
    return pos, valid


# ======================================================================
# Ego-network extraction
# ======================================================================


@dataclass
class DenseEgoNet:
    """An ego network in local dense form, ready for the GN/tightness kernels.

    Attributes
    ----------
    labels:
        Local index -> node label (the ego's friends, ascending global index).
    eu, ev:
        Endpoint index arrays of the ego-net edges (``eu < ev``).
    """

    labels: list[Node]
    eu: np.ndarray
    ev: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return int(self.eu.size)


def dense_ego_net(csr: CSRGraph, ego: Node) -> DenseEgoNet:
    """Extract the ego network of ``ego`` via sorted-adjacency intersection.

    One gather + one ``searchsorted`` over the concatenated friend rows
    replaces the per-friend membership loop of :func:`repro.graph.ego.ego_network`.
    """
    ego_idx = csr.index_of(ego)
    friends = csr._row(ego_idx)
    k = int(friends.size)
    labels = [csr.label_of(int(i)) for i in friends]
    if k > 0:
        starts = csr.indptr[friends]
        ends = csr.indptr[friends + 1]
        counts = (ends - starts).astype(np.int64, copy=False)
        cat = _gather_rows(csr.indices, starts, ends)
        seg = np.repeat(np.arange(k), counts)
        local, valid = _sorted_membership(friends, cat)
        seg, local = seg[valid], local[valid]
        # Keep each undirected edge once; rows are sorted, so (seg < local)
        # yields the upper triangle in the same row-major order np.triu would.
        upper = seg < local
        eu, ev = seg[upper], local[upper]
    else:
        eu = ev = np.empty(0, dtype=np.int64)
    return DenseEgoNet(labels=labels, eu=eu, ev=ev)


# ======================================================================
# All-pairs Brandes (dense, level-synchronous, every source at once)
# ======================================================================


def _all_pairs_bfs_brandes(
    adjacency: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run Brandes' accumulation from every source simultaneously.

    Returns ``(dist, sigma, delta)`` where each is ``k x k`` indexed by
    ``[source, node]``: BFS distance (-1 when unreachable), shortest-path
    counts and Brandes' node dependencies.  Path counts are integers, so
    ``sigma`` is exact; the frontier expansion is one matrix product per BFS
    level instead of a Python loop per (source, node) pair.
    """
    k = adjacency.shape[0]
    dist = np.full((k, k), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    sigma = np.zeros((k, k), dtype=np.float64)
    np.fill_diagonal(sigma, 1.0)
    frontier = np.eye(k, dtype=bool)
    frontiers: list[np.ndarray] = [frontier]
    stacked = np.zeros((2 * k, k), dtype=np.float64)
    product_buffer = np.empty((2 * k, k), dtype=np.float64)
    level = 0
    while True:
        # One stacked GEMM per level expands the frontier (rows 0..k) and
        # propagates path counts (rows k..2k) simultaneously.
        np.copyto(stacked[:k], frontier)
        np.multiply(sigma, frontier, out=stacked[k:])
        product = np.matmul(stacked, adjacency, out=product_buffer)
        new_frontier = (product[:k] > 0.0) & (dist < 0)
        if not new_frontier.any():
            break
        level += 1
        dist[new_frontier] = level
        sigma[new_frontier] = product[k:][new_frontier]
        frontier = new_frontier
        frontiers.append(new_frontier)

    delta = np.zeros((k, k), dtype=np.float64)
    coef = np.empty((k, k), dtype=np.float64)
    for level_index in range(len(frontiers) - 1, 0, -1):
        level_mask = frontiers[level_index]
        coef.fill(0.0)
        np.divide(1.0 + delta, sigma, out=coef, where=level_mask)
        contrib = (coef @ adjacency) * sigma
        previous_mask = frontiers[level_index - 1]
        delta[previous_mask] += contrib[previous_mask]
    return dist, sigma, delta


def _edge_betweenness_values(
    dist: np.ndarray,
    sigma: np.ndarray,
    delta: np.ndarray,
    eu: np.ndarray,
    ev: np.ndarray,
) -> np.ndarray:
    """Per-edge betweenness from the all-pairs Brandes state (undirected)."""
    du, dv = dist[:, eu], dist[:, ev]
    su, sv = sigma[:, eu], sigma[:, ev]
    contrib_uv = np.where(
        dv == du + 1, su * (1.0 + delta[:, ev]) / np.where(sv > 0, sv, 1.0), 0.0
    ).sum(axis=0)
    contrib_vu = np.where(
        du == dv + 1, sv * (1.0 + delta[:, eu]) / np.where(su > 0, su, 1.0), 0.0
    ).sum(axis=0)
    return (contrib_uv + contrib_vu) / 2.0


def edge_betweenness_csr(graph: Graph | CSRGraph) -> dict[Edge, float]:
    """Vectorized drop-in for :func:`repro.community.betweenness.edge_betweenness`.

    Matches the reference to ~1e-12 (the accumulation order over sources
    differs, path counts themselves are exact).
    """
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
    n = csr.num_nodes
    adjacency = np.zeros((n, n), dtype=np.float64)
    row_ids = np.repeat(np.arange(n), np.diff(csr.indptr).astype(np.int64, copy=False))
    adjacency[row_ids, csr.indices] = 1.0
    eu, ev = np.nonzero(np.triu(adjacency, 1))
    if eu.size == 0:
        return {}
    dist, sigma, delta = _all_pairs_bfs_brandes(adjacency)
    values = _edge_betweenness_values(dist, sigma, delta, eu, ev)
    labels = [csr.label_of(i) for i in range(n)]
    return {
        canonical_edge(labels[int(u)], labels[int(v)]): float(value)
        for u, v, value in zip(eu, ev, values)
    }


# ======================================================================
# Girvan-Newman on the dense local arrays
# ======================================================================

_PYTHON_KERNEL_MAX = 48
"""Components at or below this many nodes use the flat-list Brandes kernel.
Micro-benchmarks put the fixed cost of the ~50-NumPy-op dense kernel at
~55us per call, which the int-indexed Python loop undercuts until roughly
this size; beyond it the O(V*E) loop loses to the vectorized all-pairs
sweep (only egos whose friends form one large sparse component get there)."""

_MEMO_KERNEL_MAX = 6
"""Components at or below this many nodes resolve betweenness through the
structure-memo cache below instead of running Brandes."""

_SMALL_BETWEENNESS_CACHE: dict[tuple[int, int], tuple[float, ...]] = {}
"""(num_nodes, adjacency bitmask) -> quantized betweenness per pair slot.

GN grinds thousands of tiny fragments per graph and the same labelled
shapes (paths, cycles, near-cliques) recur constantly, so for components of
<= _MEMO_KERNEL_MAX nodes the engine keys their adjacency bitmask (over
pairs of size-ordered slots) and computes Brandes once per distinct shape.
"""

_PAIR_SLOTS: dict[int, dict[tuple[int, int], int]] = {
    n: {
        (i, j): i * (2 * n - i - 1) // 2 + (j - i - 1)
        for i in range(n)
        for j in range(i + 1, n)
    }
    for n in range(2, _MEMO_KERNEL_MAX + 1)
}


def _small_betweenness(num_nodes: int, mask: int) -> tuple[float, ...]:
    """Quantized edge betweenness of the canonical small graph ``mask``."""
    pair_slots = _PAIR_SLOTS[num_nodes]
    adjacency: list[list[int]] = [[] for _ in range(num_nodes)]
    pairs: list[tuple[int, int, int]] = []
    for (i, j), bit in pair_slots.items():
        if mask >> bit & 1:
            adjacency[i].append(j)
            adjacency[j].append(i)
            pairs.append((i, j, bit))
    acc = [0.0] * len(pair_slots)
    dist = [-1] * num_nodes
    sigma = [0.0] * num_nodes
    delta = [0.0] * num_nodes
    for source in range(num_nodes):
        for node in range(num_nodes):
            dist[node] = -1
            sigma[node] = 0.0
            delta[node] = 0.0
        dist[source] = 0
        sigma[source] = 1.0
        queue = [source]
        cursor = 0
        while cursor < len(queue):
            node = queue[cursor]
            cursor += 1
            next_dist = dist[node] + 1
            for other in adjacency[node]:
                if dist[other] < 0:
                    dist[other] = next_dist
                    queue.append(other)
                if dist[other] == next_dist:
                    sigma[other] += sigma[node]
        for position in range(len(queue) - 1, 0, -1):
            node = queue[position]
            prev_dist = dist[node] - 1
            coef = (1.0 + delta[node]) / sigma[node]
            for other in adjacency[node]:
                if dist[other] == prev_dist:
                    low, high = (other, node) if other < node else (node, other)
                    contribution = sigma[other] * coef
                    acc[pair_slots[(low, high)]] += contribution
                    delta[other] += contribution
    return tuple(round(value / 2.0, 9) for value in acc)


class _Component:
    """A live connected component inside the GN engine."""

    __slots__ = (
        "nodes",
        "edge_ids",
        "orig_edge_ids",
        "degree_sum",
        "min_pos",
        "dirty",
        "best_key",
        "best_eid",
    )

    def __init__(self, nodes: list[int], edge_ids: list[int], min_pos: int) -> None:
        self.nodes = nodes
        self.edge_ids = edge_ids
        self.min_pos = min_pos
        self.dirty = True
        # Cached argmax over this component's edges, maintained by _refresh:
        # clean components never rescan their edges in the global argmax.
        self.best_key: tuple[float, str] | None = None
        self.best_eid = -1
        # Modularity bookkeeping against the *original* ego net: the ids of
        # original edges with both endpoints inside this component, and the
        # total original degree of its nodes.  Both are exact integers kept
        # up to date across splits, so each dendrogram level's modularity is
        # recomputed from the same counts the dict backend derives by
        # rescanning the graph.
        self.orig_edge_ids: list[int] = []
        self.degree_sum = 0


class _GNEngine:
    """Girvan-Newman over one ego net with per-component betweenness caching.

    Removing one edge only changes shortest paths inside the component that
    contained it (betweenness is additive across components), so cached
    per-edge values stay valid everywhere else and each iteration recomputes
    Brandes only on the affected component.  Components are processed by a
    size-adaptive kernel: the vectorized all-pairs Brandes for large ones,
    an int-indexed flat-list Brandes for small ones (the common case — GN
    removes bridges first, so components shrink quickly).  Results are
    identical to ``girvan_newman_levels``: values are quantized to 9 decimals
    before the argmax on both backends, which absorbs the summation-order
    ulps, and both emit the blocks of a partition in canonical order — by
    their smallest member under :data:`repro.types.node_key` — which is also
    the order modularity is accumulated in.
    """

    def __init__(self, net: DenseEgoNet) -> None:
        k = net.num_nodes
        self.k = k
        # Per-label keys are computed once: they rank the nodes (a local
        # index is the graph's insertion order, not a value order) and spell
        # edge_key(canonical_edge(u, v)) below without building tuples.
        label_keys = [node_key(label) for label in net.labels]
        self.position = [0] * k
        for pos, node in enumerate(sorted(range(k), key=label_keys.__getitem__)):
            self.position[node] = pos
        eu = net.eu.tolist()
        ev = net.ev.tolist()
        self.edge_u = eu
        self.edge_v = ev
        self.edge_repr = []
        for u, v in zip(eu, ev):
            ru, rv = label_keys[u], label_keys[v]
            if rv < ru:
                ru, rv = rv, ru
            self.edge_repr.append(f"({ru}, {rv})")
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        # Neighbour-only mirror of ``adj`` for the BFS sweeps, which never
        # need edge ids and save a tuple unpack per visit.
        self.adj_nbr: list[list[int]] = [[] for _ in range(k)]
        for eid, (u, v) in enumerate(zip(eu, ev)):
            self.adj[u].append((v, eid))
            self.adj[v].append((u, eid))
            self.adj_nbr[u].append(v)
            self.adj_nbr[v].append(u)
        self.rounded: list[float] = [0.0] * len(eu)
        self.node_comp: list[int] = [-1] * k
        self.comps: dict[int, _Component] = {}
        self._next_comp_id = 0
        self._ordered_comps: list[_Component] = []
        # Original structure for modularity (evaluated on the input graph).
        self._deg0 = [len(rows) for rows in self.adj]
        self._m0 = len(eu)
        self._init_components()
        # Scratch state for the flat-list Brandes kernel.
        self._dist = [-1] * k
        self._sigma = [0.0] * k
        self._delta = [0.0] * k
        self._acc: list[float] = [0.0] * len(eu)
        self._visited = [False] * k
        self._queue = [0] * k

    # ------------------------------------------------------------ components
    def _init_components(self) -> None:
        seen = [False] * self.k
        for start in range(self.k):
            if seen[start]:
                continue
            members = [start]
            seen[start] = True
            cursor = 0
            while cursor < len(members):
                node = members[cursor]
                cursor += 1
                for other in self.adj_nbr[node]:
                    if not seen[other]:
                        seen[other] = True
                        members.append(other)
            edge_ids: list[int] = []
            for node in members:
                for other, eid in self.adj[node]:
                    if node < other:  # each edge once
                        edge_ids.append(eid)
            self._add_component(members, edge_ids, list(edge_ids))

    def _add_component(
        self,
        nodes: list[int],
        edge_ids: list[int],
        orig_edge_ids: list[int],
    ) -> int:
        comp_id = self._next_comp_id
        self._next_comp_id += 1
        min_pos = min(self.position[node] for node in nodes)
        comp = _Component(nodes, edge_ids, min_pos)
        comp.orig_edge_ids = orig_edge_ids
        deg0 = self._deg0
        comp.degree_sum = sum(deg0[node] for node in nodes)
        self.comps[comp_id] = comp
        for node in nodes:
            self.node_comp[node] = comp_id
        return comp_id

    def _partition(self) -> list[list[int]]:
        """Current components, ordered by their smallest member's key."""
        ordered = sorted(self.comps.values(), key=lambda comp: comp.min_pos)
        self._ordered_comps = ordered
        return [comp.nodes for comp in ordered]

    # ------------------------------------------------------- betweenness cache
    def _refresh(self, comp: _Component) -> None:
        if comp.edge_ids:
            num_nodes = len(comp.nodes)
            num_edges = len(comp.edge_ids)
            if num_edges == num_nodes * (num_nodes - 1) // 2:
                # Clique: the only shortest path between any pair is the
                # direct edge, so every edge has betweenness exactly 1.
                rounded = self.rounded
                for eid in comp.edge_ids:
                    rounded[eid] = 1.0
            elif num_edges == num_nodes - 1:
                self._betweenness_tree(comp)
            elif num_nodes <= _MEMO_KERNEL_MAX:
                self._brandes_memo(comp)
            elif num_nodes <= _PYTHON_KERNEL_MAX:
                self._brandes_flat(comp)
            else:
                self._brandes_numpy(comp)
            rounded = self.rounded
            edge_repr = self.edge_repr
            edge_ids = comp.edge_ids
            best_eid = edge_ids[0]
            best_value = rounded[best_eid]
            best_repr = edge_repr[best_eid]
            for eid in edge_ids:
                value = rounded[eid]
                if value > best_value or (
                    value == best_value and edge_repr[eid] > best_repr
                ):
                    best_value = value
                    best_repr = edge_repr[eid]
                    best_eid = eid
            comp.best_key = (best_value, best_repr)
            comp.best_eid = best_eid
        comp.dirty = False

    def _betweenness_tree(self, comp: _Component) -> None:
        """Exact betweenness for a tree component in one O(V) sweep.

        Removing a tree edge leaves subtrees of ``s`` and ``V - s`` nodes;
        every one of the ``s * (V - s)`` node pairs routes its single
        shortest path over that edge, so that product *is* the betweenness
        (an exact integer — identical to what Brandes accumulates).
        """
        adj = self.adj
        parent = self._dist  # scratch: parent edge id per node
        size = self._sigma  # scratch: subtree size per node
        total = len(comp.nodes)
        root = comp.nodes[0]
        parent[root] = -2
        queue = [root]
        cursor = 0
        while cursor < len(queue):
            node = queue[cursor]
            cursor += 1
            for other, eid in adj[node]:
                if parent[other] == -1:
                    parent[other] = eid
                    queue.append(other)
        for node in queue:
            size[node] = 1.0
        rounded = self.rounded
        edge_u, edge_v = self.edge_u, self.edge_v
        for node in reversed(queue):
            eid = parent[node]
            if eid >= 0:
                subtree = size[node]
                rounded[eid] = subtree * (total - subtree)
                size[edge_u[eid] + edge_v[eid] - node] += subtree
            parent[node] = -1
            size[node] = 0.0

    def _brandes_memo(self, comp: _Component) -> None:
        """Betweenness of a tiny component via the structure-memo cache."""
        nodes = sorted(comp.nodes)
        num_nodes = len(nodes)
        slot = {node: i for i, node in enumerate(nodes)}
        pair_slots = _PAIR_SLOTS[num_nodes]
        edge_u, edge_v = self.edge_u, self.edge_v
        mask = 0
        bits = []
        for eid in comp.edge_ids:
            i, j = slot[edge_u[eid]], slot[edge_v[eid]]
            if i > j:
                i, j = j, i
            bit = pair_slots[(i, j)]
            mask |= 1 << bit
            bits.append(bit)
        key = (num_nodes, mask)
        values = _SMALL_BETWEENNESS_CACHE.get(key)
        if values is None:
            values = _small_betweenness(num_nodes, mask)
            _SMALL_BETWEENNESS_CACHE[key] = values
        rounded = self.rounded
        for eid, bit in zip(comp.edge_ids, bits):
            rounded[eid] = values[bit]

    def _brandes_flat(self, comp: _Component) -> None:
        """Brandes restricted to ``comp`` on int-indexed Python lists.

        Predecessors are stored as edge ids only (the predecessor node is
        recovered as ``u + v - node``) and scratch state is reset during the
        back-propagation sweep, so no per-source clearing pass is needed.
        """
        rounded = self.rounded
        adj = self.adj
        adj_nbr = self.adj_nbr
        dist = self._dist
        sigma = self._sigma
        delta = self._delta
        acc = self._acc
        queue = self._queue
        for eid in comp.edge_ids:
            acc[eid] = 0.0
        for source in comp.nodes:
            dist[source] = 0
            sigma[source] = 1.0
            queue[0] = source
            filled = 1
            cursor = 0
            while cursor < filled:
                node = queue[cursor]
                cursor += 1
                next_dist = dist[node] + 1
                sigma_node = sigma[node]
                for other in adj_nbr[node]:
                    level = dist[other]
                    if level < 0:
                        dist[other] = next_dist
                        queue[filled] = other
                        filled += 1
                        sigma[other] = sigma_node
                    elif level == next_dist:
                        sigma[other] += sigma_node
            # Predecessors are re-identified from the distance labels during
            # the reverse sweep (pred iff dist == dist[node] - 1), avoiding
            # per-visit predecessor-list allocations.  Scratch state is wiped
            # as each node finishes; the source is wiped without scanning
            # since dist -1 would otherwise look like a predecessor level.
            for position in range(filled - 1, 0, -1):
                node = queue[position]
                prev_dist = dist[node] - 1
                coef = (1.0 + delta[node]) / sigma[node]
                for other, eid in adj[node]:
                    if dist[other] == prev_dist:
                        contribution = sigma[other] * coef
                        acc[eid] += contribution
                        delta[other] += contribution
                dist[node] = -1
                sigma[node] = 0.0
                delta[node] = 0.0
            dist[source] = -1
            sigma[source] = 0.0
            delta[source] = 0.0
        for eid in comp.edge_ids:
            rounded[eid] = round(acc[eid] / 2.0, 9)

    def _brandes_numpy(self, comp: _Component) -> None:
        """Vectorized all-pairs Brandes on the component submatrix."""
        nodes = comp.nodes
        local = {node: i for i, node in enumerate(nodes)}
        sub = np.zeros((len(nodes), len(nodes)), dtype=np.float64)
        for node in nodes:
            row = local[node]
            for other in self.adj_nbr[node]:
                sub[row, local[other]] = 1.0
        dist, sigma, delta = _all_pairs_bfs_brandes(sub)
        eu = np.array([local[self.edge_u[eid]] for eid in comp.edge_ids], dtype=np.intp)
        ev = np.array([local[self.edge_v[eid]] for eid in comp.edge_ids], dtype=np.intp)
        values = _edge_betweenness_values(dist, sigma, delta, eu, ev)
        rounded = self.rounded
        for eid, value in zip(comp.edge_ids, values.tolist()):
            rounded[eid] = round(value, 9)

    # ------------------------------------------------------------- main sweep
    def levels(self) -> Iterator[list[list[int]]]:
        """Yield successive GN partitions (mirrors ``girvan_newman_levels``)."""
        yield self._partition()
        edge_u, edge_v = self.edge_u, self.edge_v
        while True:
            best_key = None
            best_comp = None
            for comp in self.comps.values():
                if not comp.edge_ids:
                    continue
                if comp.dirty:
                    self._refresh(comp)
                if best_key is None or comp.best_key > best_key:
                    best_key = comp.best_key
                    best_comp = comp
            if best_comp is None:
                return
            best_eid = best_comp.best_eid
            u, v = edge_u[best_eid], edge_v[best_eid]
            self.adj[u].remove((v, best_eid))
            self.adj[v].remove((u, best_eid))
            self.adj_nbr[u].remove(v)
            self.adj_nbr[v].remove(u)
            best_comp.edge_ids.remove(best_eid)
            if self._split(best_comp, u, v):
                yield self._partition()
            else:
                best_comp.dirty = True

    def _split(self, comp: _Component, u: int, v: int) -> bool:
        """Re-check connectivity of ``comp`` after removing edge ``(u, v)``."""
        visited = self._visited
        adj_nbr = self.adj_nbr
        if not adj_nbr[u]:
            # u lost its last edge: it detaches on its own and the remainder
            # of the component stays connected — no reachability sweep.
            queue = [u]
            visited[u] = True
        elif not adj_nbr[v]:
            queue = [node for node in comp.nodes if node != v]
            for node in queue:
                visited[node] = True
        else:
            visited[u] = True
            queue = [u]
            cursor = 0
            connected = False
            while cursor < len(queue):
                node = queue[cursor]
                cursor += 1
                for other in adj_nbr[node]:
                    if not visited[other]:
                        if other == v:
                            connected = True
                            cursor = len(queue)
                            break
                        visited[other] = True
                        queue.append(other)
            if connected:
                for node in queue:
                    visited[node] = False
                return False
        half_nodes = [node for node in comp.nodes if visited[node]]
        rest_nodes = [node for node in comp.nodes if not visited[node]]
        edge_u = self.edge_u
        edge_v = self.edge_v
        half_edges = [eid for eid in comp.edge_ids if visited[edge_u[eid]]]
        rest_edges = [eid for eid in comp.edge_ids if not visited[edge_u[eid]]]
        # Original edges whose endpoints land on different sides stop being
        # intra-community for modularity purposes; the rest follow their side.
        half_orig = [
            eid
            for eid in comp.orig_edge_ids
            if visited[edge_u[eid]] and visited[edge_v[eid]]
        ]
        rest_orig = [
            eid
            for eid in comp.orig_edge_ids
            if not visited[edge_u[eid]] and not visited[edge_v[eid]]
        ]
        for node in queue:
            visited[node] = False
        comp_id = self.node_comp[u]
        del self.comps[comp_id]
        self._add_component(half_nodes, half_edges, half_orig)
        self._add_component(rest_nodes, rest_edges, rest_orig)
        return True

    # -------------------------------------------------------------- modularity
    def current_modularity(self) -> float:
        """Newman modularity of the last-yielded partition on the original net.

        Uses the per-component integer intra-edge and degree counts that are
        maintained across splits; the per-block terms and their accumulation
        order are the same as in
        :func:`repro.community.modularity.modularity`, so the value is
        bit-identical to what the dict backend computes by rescanning.
        """
        if self._m0 == 0:
            return 0.0
        m = self._m0
        two_m = 2.0 * m
        q = 0.0
        for comp in self._ordered_comps:
            q += len(comp.orig_edge_ids) / m - (comp.degree_sum / two_m) ** 2
        return q


def girvan_newman_dense(net: DenseEgoNet) -> list[list[int]]:
    """Best-modularity GN partition of a dense ego net.

    Returns the blocks as local index lists, ordered by their smallest
    member's :data:`repro.types.node_key`.
    """
    if net.num_edges == 0:
        by_key = sorted(range(net.num_nodes), key=lambda i: node_key(net.labels[i]))
        return [[i] for i in by_key]
    engine = _GNEngine(net)
    best_blocks: list[list[int]] = []
    best_q = float("-inf")
    for blocks in engine.levels():
        q = engine.current_modularity()
        if q > best_q:
            best_q = q
            best_blocks = blocks
    return best_blocks
