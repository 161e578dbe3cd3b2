"""NumPy CSR (compressed sparse row) graph kernel layer.

LoCEC's Phase I cost is dominated by interpreter-bound inner loops over the
``dict[node, set[node]]`` adjacency of :class:`repro.graph.Graph`: ego-network
extraction and Brandes edge betweenness inside Girvan-Newman.  This module
holds the array-backed graph plus the kernels ``repro.core.division.divide``
routes through on the CSR backend — a kernel lives here only while a
product route selects it:

* :class:`CSRGraph` — int32 ``indptr``/``indices`` over a node <-> index
  interner (``index_of`` / ``label_of``), a snapshot of a :class:`Graph`
  that the kernels read as arrays; ``to_graph`` materialises it back.
* :func:`dense_ego_nets` — sorted-adjacency intersection instead of the
  per-friend Python loop in :mod:`repro.graph.ego`, many egos per NumPy
  pass, emitting the flat :class:`DenseEgoNet` edge arrays the GN engine
  runs on.
* :func:`girvan_newman_dense` — the GN dendrogram sweep on those arrays
  for many ego nets at once, partitions identical to
  :func:`repro.community.girvan_newman`.  The egos step in lockstep:
  cliques, trees and tiny components are scored in closed form, and every
  other component a round dirties, across all egos, goes to one batched
  all-sources Brandes kernel on padded ``(B, P, P)`` adjacency stacks.
  A round's stacks are gathered, quantized and argmaxed in array ops from
  call-wide edge tables, so no Python runs per edge between the kernel and
  the next removal.  Each ego's sweep stops once an exact integer
  modularity bound shows no later level can beat the best one, instead of
  running down to singletons as the oracle does.
* :func:`edge_betweenness_csr` — that kernel on a stack of one whole
  graph, public as its test and perf-gate handle.

Path counts and degrees are integers (exactly representable in float64), so
the kernels match the dict-backend references bit-for-bit wherever the
reference accumulates integers, and to ~1e-12 otherwise.  Tightness
(Equation 3) on the CSR route is ``repro.core.division._block_tightness``;
see ``scripts/perf_report.py`` / ``BENCH_kernels.json`` for measured
speedups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import NodeNotFoundError
from repro.graph.graph import Graph
from repro.types import Edge, Node, canonical_edge, node_key

__all__ = [
    "CSRGraph",
    "DenseEgoNet",
    "dense_ego_nets",
    "edge_betweenness_csr",
    "girvan_newman_dense",
]


class CSRGraph:
    """Undirected graph stored in compressed sparse row form.

    Nodes are interned to dense ``int32`` indices in insertion order;
    ``indices[indptr[i]:indptr[i + 1]]`` holds the neighbour indices of node
    ``i``, sorted ascending, which is what the intersection kernels rely on.

    The structure is immutable: build it once per graph with
    :meth:`from_graph` and run read-only kernels against it.  Mutating
    workloads (GN edge removal) copy into dense local arrays first — ego
    networks are tiny, the global graph is not.
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

    def to_graph(self) -> Graph:
        """Materialise the equivalent dict-backend :class:`Graph`."""
        graph = Graph(nodes=self._nodes)
        for i, u in enumerate(self._nodes):
            for j in self.indices[self.indptr[i] : self.indptr[i + 1]]:
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

    # -------------------------------------------------------------- contents
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return int(self.indices.size) // 2

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __repr__(self) -> str:
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


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
    index:
        Local index -> the node's index in the :class:`CSRGraph` the net was
        extracted from, so the nets of one snapshot share node identities.
    """

    labels: list[Node]
    eu: np.ndarray
    ev: np.ndarray
    index: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return int(self.eu.size)


_EXTRACT_CELLS = 1 << 12
"""Most friend-of-friend candidates one :func:`dense_ego_nets` pass holds
(an ego with more gets a pass of its own).  A pass keeps about ten int64
arrays of this length, ~0.3 MiB.  Extracting every ego of ``serve_sparse``
(77k candidates) took 5.7, 6.8 and 7.2 ms at 2^12, 2^14 and 2^16."""


def _row_positions(indptr: np.ndarray, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions in ``indices`` of the concatenated CSR rows ``rows``
    (``counts`` their lengths)."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        indptr[rows].astype(np.int64, copy=False) - starts, counts
    )


def dense_ego_nets(csr: CSRGraph, egos: Sequence[Node]) -> list[DenseEgoNet]:
    """Extract the ego networks of ``egos``, many egos per NumPy pass.

    Sorted-adjacency intersection replaces the per-friend membership loop
    of :func:`repro.graph.ego.ego_network`: a pass gathers the rows of its
    egos' friends and keeps the entries found among the ego's own friends,
    with one ``searchsorted`` over the pass's ``(ego, friend)`` codes.  Every
    ego is looked up first, so an unknown ego raises
    :class:`NodeNotFoundError` before any work.
    """
    rows = np.array([csr.index_of(ego) for ego in egos], dtype=np.int64)
    degree = np.diff(csr.indptr).astype(np.int64, copy=False)
    # An ego's pass cost: the total degree of its friends.
    reach = np.zeros(csr.indices.size + 1, dtype=np.int64)
    np.cumsum(degree[csr.indices], out=reach[1:])
    work = (reach[csr.indptr[rows + 1]] - reach[csr.indptr[rows]]).tolist()
    cuts = [0]
    load = 0
    for position, cost in enumerate(work):
        if load and load + cost > _EXTRACT_CELLS:
            cuts.append(position)
            load = 0
        load += cost
    cuts.append(len(work))
    nets: list[DenseEgoNet] = []
    for start, end in zip(cuts[:-1], cuts[1:]):
        nets += _extract_pass(csr, rows[start:end], degree)
    return nets


def _extract_pass(csr: CSRGraph, rows: np.ndarray, degree: np.ndarray) -> list[DenseEgoNet]:
    """One :func:`dense_ego_nets` pass over the egos at CSR ``rows``."""
    n = csr.num_nodes
    counts = degree[rows]
    friends = csr.indices[_row_positions(csr.indptr, rows, counts)]
    slot = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
    first = np.cumsum(counts) - counts
    # (ego slot, friend) codes ascend: slots in order, each row sorted.
    codes = slot * n + friends
    pair = np.repeat(np.arange(friends.size, dtype=np.int64), degree[friends])
    other = csr.indices[_row_positions(csr.indptr, friends, degree[friends])]
    wanted = slot[pair] * n + other
    hit, found = _sorted_membership(codes, wanted)
    base = first[slot[pair]]
    local_u = pair - base
    local_v = hit - base
    # Keep each undirected edge once; candidates run friend by friend, each
    # row sorted, so (u < v) yields the upper triangle in row-major order.
    keep = found & (local_u < local_v)
    eu, ev = local_u[keep], local_v[keep]
    edge_end = np.cumsum(np.bincount(slot[pair][keep], minlength=rows.size)).tolist()
    friend_end = np.cumsum(counts).tolist()
    labels = csr._nodes
    friend_list = friends.tolist()
    nets: list[DenseEgoNet] = []
    edge_start = friend_start = 0
    for friend_stop, edge_stop in zip(friend_end, edge_end):
        nets.append(
            DenseEgoNet(
                labels=[labels[i] for i in friend_list[friend_start:friend_stop]],
                eu=eu[edge_start:edge_stop],
                ev=ev[edge_start:edge_stop],
                index=friends[friend_start:friend_stop],
            )
        )
        friend_start, edge_start = friend_stop, edge_stop
    return nets


# ======================================================================
# Batched all-sources Brandes (level-synchronous, every source at once)
# ======================================================================


def _brandes_through(adjacency: np.ndarray) -> np.ndarray:
    """Brandes' accumulation from every source of every graph in a stack.

    ``adjacency`` is a ``(B, P, P)`` stack of symmetric 0/1 matrices.  Rows
    of each state array are ``[graph, source, node]``: the forward pass
    expands every frontier with one batched product per BFS level and
    carries the shortest-path counts ``sigma`` (integers, so exact); the
    backward pass accumulates Brandes' dependencies ``delta`` one level at
    a time.  Returns ``through``, where ``through[b, u, v]`` sums over all
    sources the dependency that crosses ``u -> v`` away from the source, so
    the betweenness of an edge ``(u, v)`` of graph ``b`` is
    ``(through[b, u, v] + through[b, v, u]) / 2``; entries off the edges
    mean nothing.

    Zero padding is inert: a padded node is an isolated node, and a graph
    whose BFS ends before the stack's deepest level adds exact zeros on the
    extra levels, so a graph's values do not depend on its stack-mates.
    Level masks are multiplied in rather than selected with ``np.where`` /
    ``np.divide(where=)``, which are 10-30x slower at these shapes.  Once
    the forward pass is done ``sigma`` is clamped to ``max(sigma, 1)``:
    that keeps the masked-out quotients finite and leaves every reached
    entry — the only ones a mask lets through — unchanged.  Every level
    works in three preallocated buffers, so a stack costs seven arrays of
    its size plus one bool mask per level.
    """
    reached = np.broadcast_to(np.eye(adjacency.shape[1], dtype=bool), adjacency.shape).copy()
    levels = [reached.copy()]
    front = reached * 1.0
    sigma = front.copy()
    paths = np.empty_like(sigma)
    while True:
        np.matmul(front, adjacency, out=paths)
        new = (paths > 0.0) & ~reached
        if not new.any():
            break
        reached |= new
        np.multiply(paths, new, out=front)
        sigma += front
        levels.append(new)
    np.maximum(sigma, 1.0, out=sigma)
    coef, parents, product = front, paths, np.empty_like(sigma)
    delta = np.zeros_like(sigma)
    through = np.zeros_like(sigma)
    for depth in range(len(levels) - 1, 0, -1):
        np.add(delta, 1.0, out=coef)
        coef /= sigma
        coef *= levels[depth]
        np.multiply(sigma, levels[depth - 1], out=parents)
        np.matmul(coef, adjacency, out=product)
        product *= parents
        delta += product
        np.matmul(parents.transpose(0, 2, 1), coef, out=product)
        through += product
    return through


def edge_betweenness_csr(graph: Graph | CSRGraph) -> dict[Edge, float]:
    """Vectorized drop-in for :func:`repro.community.betweenness.edge_betweenness`:
    the GN engine's batched Brandes kernel on a stack of one whole graph.

    Matches the reference to ~1e-12 (the accumulation order over sources
    differs, path counts themselves are exact).
    """
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
    n = csr.num_nodes
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    upper = rows < csr.indices
    eu, ev = rows[upper], csr.indices[upper]
    if eu.size == 0:
        return {}
    adjacency = np.zeros((1, n, n))
    adjacency[0, rows, csr.indices] = 1.0
    through = _brandes_through(adjacency)[0]
    values = (through[eu, ev] + through[ev, eu]) / 2.0
    return {
        canonical_edge(csr.label_of(u), csr.label_of(v)): value
        for u, v, value in zip(eu.tolist(), ev.tolist(), values.tolist())
    }


# ======================================================================
# Girvan-Newman on the dense local arrays, all egos of a call in lockstep
# ======================================================================

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


_STACK_SIDE = 8
"""Brandes stacks are padded to a multiple of this many nodes: a component
of ``n`` nodes always lands in a stack of side ``ceil(n / 8) * 8``,
whatever else shares its round.  Finer buckets mean more, smaller stacks
per round; coarser ones spend ``side ** 3`` work on padding.  On
``division_dense`` (components of 7-23 nodes, so three buckets) ``divide``
took 189, 191, 185 and 194 ms at sides 4, 6, 8 and 12: within noise of
each other (medians of 12 interleaved runs on a 2-core host)."""

_STACK_CELLS = 1 << 13
"""Most matrix cells in one Brandes stack; a bucket with more requests is
cut into several stacks.  The kernel holds seven float64 arrays of the
stack's size, so this caps its working set near 0.5 MiB (14 components of
17-24 nodes, 128 of up to 8).  ``divide`` on ``division_dense`` took 176,
177 and 191 ms at half, one and twice this (medians of 12 interleaved
runs); unbounded stacks (a whole round's bucket) added ~1 MiB to a fit's
peak RSS there, measured before a round's values were scored as arrays."""

_GN_WINDOW = 64
"""Most engines stepping in lockstep; the next ego starts as one finishes.
The width is what shares a NumPy call's fixed cost: ``divide`` on
``division_dense`` (66 egos) took 263, 212, 205 and 192 ms at 16, 32, 64
and 128 (medians of 12 interleaved runs on a 2-core host).  The bound
keeps the live engines' Python state (~14 KB each there, measured before
the engines had slots) from growing with the number of egos in a call."""

_EXACT_STOP_MAX_EDGES = 1 << 14
"""Largest ego net, in edges, on which :class:`_GNEngine` stops its sweep
early.  The stop compares exact integer modularity numerators, and that is
the oracle's float comparison only while the float sum cannot reorder two
distinct numerators — up to ~2^16 edges by step 4 of the argument in
:class:`_GNEngine`; this takes 2^14 for a 64x margin.  Larger nets sweep to
the end.  A constant of that argument, not a setting."""


class _Component:
    """A live connected component inside the GN engine."""

    __slots__ = (
        "nodes",
        "edge_ids",
        "orig_edge_ids",
        "degree_sum",
        "square_sum",
        "score",
        "bound",
        "min_pos",
        "best_key",
        "best_eid",
    )

    def __init__(self, nodes: list[int], edge_ids: list[int], min_pos: int) -> None:
        self.nodes = nodes
        self.edge_ids = edge_ids
        self.min_pos = min_pos
        # Cached argmax over this component's edges, set once its edges are
        # scored: clean components never rescan their edges.
        self.best_key: tuple[float, int] = (0.0, -1)
        self.best_eid = -1
        # Modularity bookkeeping against the *original* ego net: the ids of
        # original edges with both endpoints inside this component, and the
        # total and squared-total original degree of its nodes.  All are
        # exact integers kept up to date across splits, so each dendrogram
        # level's modularity is recomputed from the same counts the oracle
        # derives by rescanning the graph; ``score`` and ``bound`` are the
        # component's modularity numerator and its refinement bound (see
        # :class:`_GNEngine`).
        self.orig_edge_ids: list[int] = []
        self.degree_sum = 0
        self.square_sum = 0
        self.score = 0
        self.bound = 0


class _GNEngine:
    """Girvan-Newman over one ego net, stepped by a lockstep driver.

    Removing one edge only changes shortest paths inside the component that
    contained it (betweenness is additive across components), so cached
    per-edge values stay valid everywhere else and a step re-scores only
    the one or two components it dirtied.  Cliques, trees and components of
    at most :data:`_MEMO_KERNEL_MAX` nodes have closed forms the engine
    applies inline, so :meth:`advance` keeps stepping until a dirtied
    component needs Brandes and hands those back; the driver,
    :func:`girvan_newman_dense`, scores every engine's requests of a round
    with one batched kernel and sets each one's top edge (``best_key`` /
    ``best_eid``) in array ops.  Results are identical to
    ``girvan_newman_levels``: values are quantized to 9 decimals before
    the argmax on both backends — Python's ``round(v, 9)`` in the oracle
    and the closed forms, its bit-identical array form :func:`_quantize`
    on the Brandes path — which absorbs the summation-order ulps, and both
    emit the blocks of a partition in canonical order — by their smallest
    member under :data:`repro.types.node_key` — which is also the order
    modularity is accumulated in.  Nodes and edges arrive ranked by
    :func:`girvan_newman_dense` (``position``: node_key order;
    ``edge_rank``: edge_key order, where betweenness ties go to the
    larger); a rank over a whole call restricted to one net keeps that
    net's relative order.  The best-modularity
    partition so far is kept in :attr:`best_blocks`.

    **Stop rule.**  Scaled by ``4m²`` (``m`` original edges), a block with
    ``l`` original intra edges and original degree sum ``D`` scores the
    integer ``4m·l − D²``, and a level the sum over its blocks.  Each
    component keeps an upper bound on what it and its future sub-blocks can
    score, ``max(4m·l − D², 4m·(l − 1) − SS)`` with ``SS`` the sum of its
    nodes' squared original degrees (an edgeless component scores only the
    first term); a split swaps the parent's term in the engine's total for
    the halves', and a removal that splits nothing leaves it alone.  Once
    that total is strictly below the best level's numerator the engine is
    done: :meth:`advance` returns ``[]`` before it scores anything more.
    This never changes the partition the full sweep keeps:

    1. GN levels only refine the partition, so every later level cuts each
       current component into one or more blocks.
    2. A connected component that splits cuts at least one current edge,
       and every current edge is an original intra edge, so its blocks'
       ``l`` sum to at most ``l − 1``.
    3. ``(a + b)² ≥ a² + b²`` for ``a, b ≥ 0``, so the blocks' ``D²`` sum to
       at least ``SS``: a component that splits scores at most
       ``4m·(l − 1) − SS``, and one kept whole scores ``4m·l − D²``.
    4. Distinct numerators differ by at least 1, which is ``1/(4m²)`` in Q.
       :meth:`_record_level` adds at most ``2m`` non-zero terms (a block of
       isolated nodes adds an exact ``0.0``), whose ``l/m`` and ``(D/2m)²``
       parts each total at most 1, so its float value is within
       ``2·γ(2m + 3)`` of Q (``γ(n) = n·u / (1 − n·u)``, ``u = 2**-53``).
       While ``4·γ(2m + 3) < 1/(4m²)`` — for ``m`` up to ~2^16, see
       :data:`_EXACT_STOP_MAX_EDGES` — the float comparison the oracle
       makes cannot reorder two distinct numerators, so no later level
       below the bound can win it.  An *equal* later level could, so the
       stop is strict.

    By step 4 :meth:`_record_level` also skips the float sum at a level
    whose numerator is below the best one's.  ``num_removals`` and
    ``num_brandes_requests`` count the edges this engine removed and the
    components it handed to Brandes.
    """

    # Slots, not an instance dict: past 30 attributes CPython drops the
    # shared-key layout and every attribute read in the sweep gets slower.
    __slots__ = (
        "k",
        "position",
        "edge_rank",
        "tables",
        "node_base",
        "edge_base",
        "edge_u",
        "edge_v",
        "adj_nbr",
        "adj_eid",
        "rounded",
        "node_comp",
        "comps",
        "_edged",
        "_next_comp_id",
        "_deg0",
        "_square0",
        "_m0",
        "_m4",
        "_num",
        "_bound",
        "_best_num",
        "_exact",
        "_parent",
        "_size",
        "_visited",
        "best_q",
        "best_blocks",
        "num_removals",
        "num_brandes_requests",
        "_dirty",
    )

    def __init__(
        self,
        net: DenseEgoNet,
        position: list[int],
        edge_rank: list[int],
        tables: _CallTables,
        node_base: int,
        edge_base: int,
    ) -> None:
        k = net.num_nodes
        self.k = k
        self.position = position
        self.edge_rank = edge_rank
        self.tables = tables
        self.node_base = node_base
        self.edge_base = edge_base
        eu = net.eu.tolist()
        ev = net.ev.tolist()
        self.edge_u = eu
        self.edge_v = ev
        # Adjacency as two parallel lists per node: neighbours, and the id of
        # the edge to each (ints, not (neighbour, id) tuples, to keep a
        # window of live engines small).
        self.adj_nbr: list[list[int]] = [[] for _ in range(k)]
        self.adj_eid: list[list[int]] = [[] for _ in range(k)]
        for eid, (u, v) in enumerate(zip(eu, ev)):
            self.adj_nbr[u].append(v)
            self.adj_eid[u].append(eid)
            self.adj_nbr[v].append(u)
            self.adj_eid[v].append(eid)
        self.rounded: list[float] = [0.0] * len(eu)
        self.node_comp: list[int] = [-1] * k
        # Every component (the partition) and the ones that still have edges
        # (the argmax candidates).
        self.comps: dict[int, _Component] = {}
        self._edged: dict[int, _Component] = {}
        self._next_comp_id = 0
        # Original structure for modularity (evaluated on the input graph).
        self._deg0 = [len(rows) for rows in self.adj_nbr]
        self._square0 = [degree * degree for degree in self._deg0]
        self._m0 = len(eu)
        self._m4 = 4 * self._m0
        # The current level's numerator, the total refinement bound, and the
        # best level's numerator (-inf: never stop, on nets past the limit).
        self._num = 0
        self._bound = 0
        self._best_num: float = float("-inf")
        self._exact = self._m0 <= _EXACT_STOP_MAX_EDGES
        # Scratch: parent edge / subtree size for the tree sweep, visited
        # flags for the split check.
        self._parent = [-1] * k
        self._size = [0.0] * k
        self._visited = [False] * k
        self.best_q = float("-inf")
        self.best_blocks: list[list[int]] = []
        self.num_removals = 0
        self.num_brandes_requests = 0
        self._init_components()
        self._dirty = list(self._edged.values())
        self._record_level()

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
                for other, eid in zip(self.adj_nbr[node], self.adj_eid[node]):
                    if node < other:  # each edge once
                        edge_ids.append(eid)
            self._add_component(members, edge_ids, list(edge_ids))

    def _add_component(
        self,
        nodes: list[int],
        edge_ids: list[int],
        orig_edge_ids: list[int],
    ) -> _Component:
        comp_id = self._next_comp_id
        self._next_comp_id += 1
        comp = _Component(nodes, edge_ids, min(map(self.position.__getitem__, nodes)))
        comp.orig_edge_ids = orig_edge_ids
        comp.degree_sum = sum(map(self._deg0.__getitem__, nodes))
        comp.square_sum = sum(map(self._square0.__getitem__, nodes))
        self._tally(comp)
        self.comps[comp_id] = comp
        if edge_ids:
            self._edged[comp_id] = comp
        for node in nodes:
            self.node_comp[node] = comp_id
        return comp

    def _tally(self, comp: _Component) -> None:
        """Set ``comp``'s numerator and bound, and add them to the totals."""
        intra = len(comp.orig_edge_ids)
        comp.score = self._m4 * intra - comp.degree_sum * comp.degree_sum
        comp.bound = comp.score
        if comp.edge_ids:
            comp.bound = max(comp.score, self._m4 * (intra - 1) - comp.square_sum)
        self._num += comp.score
        self._bound += comp.bound

    def _untally(self, comp: _Component) -> None:
        self._num -= comp.score
        self._bound -= comp.bound

    def _record_level(self) -> None:
        """Newman modularity of the current partition on the original net;
        keep the partition if it beats every earlier level.

        Uses the per-component integer intra-edge and degree counts that are
        maintained across splits; the per-block terms and their accumulation
        order (blocks by smallest member) are the same as in
        :func:`repro.community.modularity.modularity`, so the value is
        bit-identical to what the oracle computes by rescanning.  A level
        whose exact numerator is below the best one's cannot win the float
        comparison (step 4 of the class docstring) and is not summed.
        """
        if self._num < self._best_num:
            return
        ordered = sorted(self.comps.values(), key=lambda comp: comp.min_pos)
        m = self._m0
        two_m = 2.0 * m
        q = 0.0
        for comp in ordered:
            q += len(comp.orig_edge_ids) / m - (comp.degree_sum / two_m) ** 2
        if q > self.best_q:
            self.best_q = q
            self.best_blocks = [comp.nodes for comp in ordered]
            if self._exact:
                self._best_num = self._num

    # ------------------------------------------------------------ scoring
    def _closed_form(self, comp: _Component) -> bool:
        """Score ``comp`` without Brandes if it has a closed form; report
        whether it did."""
        num_nodes = len(comp.nodes)
        num_edges = len(comp.edge_ids)
        if num_edges == num_nodes * (num_nodes - 1) // 2:
            # Clique: the only shortest path between any pair is the direct
            # edge, so every edge has betweenness exactly 1.
            rounded = self.rounded
            for eid in comp.edge_ids:
                rounded[eid] = 1.0
        elif num_edges == num_nodes - 1:
            self._betweenness_tree(comp)
        elif num_nodes <= _MEMO_KERNEL_MAX:
            self._brandes_memo(comp)
        else:
            return False
        self._set_best(comp)
        return True

    def _set_best(self, comp: _Component) -> None:
        rounded = self.rounded
        edge_rank = self.edge_rank
        edge_ids = comp.edge_ids
        best_eid = edge_ids[0]
        best_value = rounded[best_eid]
        best_rank = edge_rank[best_eid]
        for eid in edge_ids:
            value = rounded[eid]
            if value > best_value or (value == best_value and edge_rank[eid] > best_rank):
                best_value = value
                best_rank = edge_rank[eid]
                best_eid = eid
        comp.best_key = (best_value, best_rank)
        comp.best_eid = best_eid

    def _betweenness_tree(self, comp: _Component) -> None:
        """Exact betweenness for a tree component in one O(V) sweep.

        Removing a tree edge leaves subtrees of ``s`` and ``V - s`` nodes;
        every one of the ``s * (V - s)`` node pairs routes its single
        shortest path over that edge, so that product *is* the betweenness
        (an exact integer — identical to what Brandes accumulates).
        """
        adj_nbr, adj_eid = self.adj_nbr, self.adj_eid
        parent = self._parent
        size = self._size
        total = len(comp.nodes)
        root = comp.nodes[0]
        parent[root] = -2
        queue = [root]
        cursor = 0
        while cursor < len(queue):
            node = queue[cursor]
            cursor += 1
            for other, eid in zip(adj_nbr[node], adj_eid[node]):
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

    # ------------------------------------------------------------- main sweep
    def advance(self) -> list[_Component]:
        """Remove edges until a step dirties components without a closed
        form, and return them for Brandes; ``[]`` once no edge is left or
        no later level can beat the best one (the stop rule).

        The caller sets each returned component's ``best_key`` /
        ``best_eid`` before calling again.
        """
        dirty = self._dirty
        edged = self._edged
        while True:
            if self._bound < self._best_num:
                self._dirty = []
                return []
            waiting = [comp for comp in dirty if not self._closed_form(comp)]
            if waiting:
                self._dirty = []
                self.num_brandes_requests += len(waiting)
                return waiting
            best = None
            for comp in edged.values():
                if best is None or comp.best_key > best.best_key:
                    best = comp
            if best is None:
                return []
            dirty = self._remove_best(best)

    def _remove_best(self, comp: _Component) -> list[_Component]:
        """Remove ``comp``'s top edge; return the components it dirtied."""
        self.num_removals += 1
        eid = comp.best_eid
        u, v = self.edge_u[eid], self.edge_v[eid]
        for node, other in ((u, v), (v, u)):
            position = self.adj_nbr[node].index(other)
            del self.adj_nbr[node][position]
            del self.adj_eid[node][position]
        comp.edge_ids.remove(eid)
        if not self.adj_nbr[u] or not self.adj_nbr[v]:
            # An endpoint lost its last edge: it detaches on its own and the
            # rest of the component stays connected — no reachability sweep.
            parts = [self._detach(comp, u if not self.adj_nbr[u] else v)]
        else:
            halves = self._split(comp, u, v)
            if halves is None:
                return [comp]
            parts = list(halves)
        self._record_level()
        return [part for part in parts if part.edge_ids]

    def _detach(self, comp: _Component, lone: int) -> _Component:
        """Split the single node ``lone`` off ``comp`` and return ``comp``,
        kept as the remainder instead of rebuilt: same id, and its nodes and
        edges in the order a rebuild would list them."""
        comp_id = self.node_comp[lone]
        self._untally(comp)
        nodes = comp.nodes.copy()  # a kept best level may hold the old list
        nodes.remove(lone)
        comp.nodes = nodes
        edge_u, edge_v = self.edge_u, self.edge_v
        comp.orig_edge_ids = [
            eid for eid in comp.orig_edge_ids if edge_u[eid] != lone and edge_v[eid] != lone
        ]
        comp.degree_sum -= self._deg0[lone]
        comp.square_sum -= self._square0[lone]
        if self.position[lone] == comp.min_pos:
            comp.min_pos = min(map(self.position.__getitem__, nodes))
        if not comp.edge_ids:
            del self._edged[comp_id]
        self._tally(comp)
        self._add_component([lone], [], [])
        return comp

    def _split(
        self, comp: _Component, u: int, v: int
    ) -> tuple[_Component, _Component] | None:
        """Re-check connectivity of ``comp`` after removing edge ``(u, v)``
        (both endpoints still have edges); return the two halves if it fell
        apart."""
        visited = self._visited
        adj_nbr = self.adj_nbr
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
            return None
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
        del self._edged[comp_id]
        self._untally(comp)
        return (
            self._add_component(half_nodes, half_edges, half_orig),
            self._add_component(rest_nodes, rest_edges, rest_orig),
        )


def _score(requests: list[tuple[_GNEngine, _Component]]) -> None:
    """Score one round's Brandes requests and set each component's top edge.

    Requests are bucketed by padded side and each bucket is cut into stacks
    of at most :data:`_STACK_CELLS` cells; only the adjacency scatter and
    :func:`_brandes_through` run per stack.  Everything else runs once over
    the whole round, gathered from the call's :class:`_CallTables`: one
    ``fromiter`` each over the requests' nodes and edges, shifted to call
    ids (a component's ``i``-th node takes slot ``i`` of its matrix), one
    :func:`_quantize`, and one segmented argmax — per request the largest
    value wins and ties go to the larger edge rank, as ``_set_best``
    decides for the closed forms.
    """
    if not requests:
        return
    buckets: dict[int, list[tuple[_GNEngine, _Component]]] = {}
    for request in requests:
        side = -(-len(request[1].nodes) // _STACK_SIDE) * _STACK_SIDE
        buckets.setdefault(side, []).append(request)
    ordered = list(chain.from_iterable(buckets.values()))
    engines = [engine for engine, _ in ordered]
    comps = [comp for _, comp in ordered]
    stacks: list[tuple[int, int, int]] = []
    sides: list[int] = []
    rows: list[int] = []
    for side, bucket in buckets.items():
        height = max(1, _STACK_CELLS // (side * side))
        for start in range(0, len(bucket), height):
            size = min(height, len(bucket) - start)
            stacks.append((side, len(rows), size))
            sides += [side] * size
            rows += range(size)
    node_counts = np.array([len(comp.nodes) for comp in comps])
    edge_counts = np.array([len(comp.edge_ids) for comp in comps])
    tables = engines[0].tables
    nodes = np.fromiter(
        chain.from_iterable(comp.nodes for comp in comps), np.int64, int(node_counts.sum())
    )
    nodes += np.repeat(np.array([engine.node_base for engine in engines]), node_counts)
    local = np.fromiter(
        chain.from_iterable(comp.edge_ids for comp in comps), np.int64, int(edge_counts.sum())
    )
    edges = local + np.repeat(np.array([engine.edge_base for engine in engines]), edge_counts)
    tables.slot[nodes] = np.arange(nodes.size) - np.repeat(
        np.cumsum(node_counts) - node_counts, node_counts
    )
    u = tables.slot[tables.edge_u[edges]]
    v = tables.slot[tables.edge_v[edges]]
    # Flat positions of each edge, u -> v and v -> u, in its stack.
    edge_side = np.repeat(np.array(sides), edge_counts)
    cell = np.repeat(np.array(rows) * np.array(sides) ** 2, edge_counts)
    forward = cell + u * edge_side + v
    backward = cell + v * edge_side + u
    edge_starts = np.cumsum(edge_counts) - edge_counts
    bounds = np.append(edge_starts, edges.size).tolist()
    both_ways = np.empty(edges.size)
    for width, first, height in stacks:
        part = slice(bounds[first], bounds[first + height])
        adjacency = np.zeros(height * width * width)
        adjacency[forward[part]] = 1.0
        adjacency[backward[part]] = 1.0
        through = _brandes_through(adjacency.reshape(height, width, width)).ravel()
        np.add(through[forward[part]], through[backward[part]], out=both_ways[part])
    values = _quantize(both_ways / 2.0)
    best = np.maximum.reduceat(values, edge_starts)
    tied = np.where(values == np.repeat(best, edge_counts), tables.edge_rank[edges], -1)
    best_rank = np.maximum.reduceat(tied, edge_starts)
    best_eid = local[tied == np.repeat(best_rank, edge_counts)]
    for comp, value, rank, eid in zip(comps, best.tolist(), best_rank.tolist(), best_eid.tolist()):
        comp.best_key = (value, rank)
        comp.best_eid = eid


def _quantize(values: np.ndarray) -> np.ndarray:
    """``[round(v, 9) for v in values]`` bit for bit, in array ops.

    CPython's ``round(v, 9)`` rounds the exact decimal value ``y = v·10⁹``
    to an integer ``k`` (half to even) and returns the double nearest
    ``k·10⁻⁹``.  Here ``p = fl(v · 1e9)`` is that product rounded once
    (``1e9`` is exact), so ``|p − y| ≤ ulp(p) / 2``.  Wherever ``p`` lies
    more than 2 ulps from every half-integer, no half-integer lies between
    ``p`` and ``y`` and neither is one, so ``rint(p)`` is the same ``k``;
    ``k`` and ``1e9`` are exact doubles and IEEE division rounds correctly,
    so ``k / 1e9`` is the double nearest ``k·10⁻⁹`` as well.  The values
    within 2 ulps of a half-integer fall back to Python's ``round``: ties
    and near-ties, every ``p`` from 2⁵⁰ up (past 2⁵² half-integers are not
    doubles, and ``rint(p)`` can be an integer away from ``k``), and any
    non-finite ``p``.  Below 2⁵⁰ the margin is wider than it must be —
    rounding is monotone, so ``p`` can land on a half-integer next to ``y``
    but not cross it — and costs only a few fallbacks.
    """
    scaled = values * 1e9
    quantized = np.rint(scaled) / 1e9
    off_half = np.abs(scaled - np.floor(scaled) - 0.5)
    near = ~(off_half > 2.0 * np.spacing(np.abs(scaled)))
    if near.any():
        quantized[near] = [round(value, 9) for value in values[near].tolist()]
    return quantized


@dataclass
class _CallTables:
    """The arrays of one :func:`girvan_newman_dense` call that every round's
    Brandes stacks are gathered from.

    A node's *call id* is its local index plus its net's node offset, an
    edge's its local id plus its net's edge offset (nets concatenated in
    call order).
    """

    edge_u: np.ndarray
    """Call id of each edge's ``eu`` endpoint."""
    edge_v: np.ndarray
    """Call id of each edge's ``ev`` endpoint."""
    edge_rank: np.ndarray
    """Each edge's rank in edge_key order over the whole call."""
    slot: np.ndarray
    """Scratch: each node's position in the component being stacked."""


_NetRanks = tuple[list[int], list[int], _CallTables, int, int]


def _call_ranks(nets: Sequence[DenseEgoNet]) -> list[_NetRanks]:
    """Rank the nodes of ``nets`` in node_key order and their edges in
    edge_key order, once for the whole call.

    The nets come from one :class:`CSRGraph`, so a node's index there names
    it in every net it appears in, and each node's key and each edge's
    ``edge_key`` string is spelled once however many nets share it.
    Returns, per net, its nodes' ranks and its edges' (``eu``/``ev`` order)
    — only their order within a net matters to the engine — then the
    call's :class:`_CallTables` and the net's node and edge offsets in them.
    """
    if not nets:
        return []
    index = np.concatenate([net.index for net in nets])
    labels = list(chain.from_iterable(net.labels for net in nets))
    _, first, inverse = np.unique(index, return_index=True, return_inverse=True)
    keys = [node_key(labels[i]) for i in first.tolist()]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys))
    node_rank = rank[inverse]
    sizes = [net.num_nodes for net in nets]
    counts = [net.num_edges for net in nets]
    node_base = np.cumsum(sizes) - sizes
    edge_base = np.cumsum(counts) - counts
    offset = np.repeat(node_base, counts)
    edge_u = np.concatenate([net.eu for net in nets]) + offset
    edge_v = np.concatenate([net.ev for net in nets]) + offset
    ru = node_rank[edge_u]
    rv = node_rank[edge_v]
    width = max(len(keys), 1)
    codes, edge_inverse = np.unique(
        np.minimum(ru, rv) * width + np.maximum(ru, rv), return_inverse=True
    )
    by_rank = [keys[i] for i in order]
    spelled = [
        f"({by_rank[low]}, {by_rank[high]})"
        for low, high in zip((codes // width).tolist(), (codes % width).tolist())
    ]
    edge_rank = np.empty(len(spelled), dtype=np.int64)
    edge_rank[sorted(range(len(spelled)), key=spelled.__getitem__)] = np.arange(len(spelled))
    call_rank = edge_rank[edge_inverse]
    tables = _CallTables(edge_u, edge_v, call_rank, np.zeros(index.size, dtype=np.int64))
    node_ranks = node_rank.tolist()
    edge_ranks = call_rank.tolist()
    return [
        (
            node_ranks[node_start : node_start + net.num_nodes],
            edge_ranks[edge_start : edge_start + net.num_edges],
            tables,
            node_start,
            edge_start,
        )
        for net, node_start, edge_start in zip(nets, node_base.tolist(), edge_base.tolist())
    ]


def girvan_newman_dense(nets: Sequence[DenseEgoNet]) -> list[list[list[int]]]:
    """Best-modularity GN partition of each dense ego net (all extracted
    from one :class:`CSRGraph`).

    The nets' engines run in lockstep, up to :data:`_GN_WINDOW` at a time:
    each round collects every engine's Brandes requests and scores them all
    at once, so the fixed cost of a NumPy call is shared across egos.  An
    engine's partition does not depend on which others share its rounds.
    Each engine stops once an exact integer bound shows no later level of
    its dendrogram can beat the best one (the stop rule of
    :class:`_GNEngine`), so a sweep rarely runs down to singletons; the
    oracle, ``girvan_newman_levels``, still sweeps to the end.
    Returns, per net, the blocks as local index lists, ordered by their
    smallest member's :data:`repro.types.node_key`.
    """
    ranks = _call_ranks(nets)
    partitions: list[list[list[int]]] = [[] for _ in nets]
    queue = iter(range(len(nets)))
    live: list[tuple[int, _GNEngine]] = []
    while True:
        while len(live) < _GN_WINDOW:
            position = next(queue, None)
            if position is None:
                break
            net = nets[position]
            if net.num_edges:
                live.append((position, _GNEngine(net, *ranks[position])))
            else:
                by_key = sorted(range(net.num_nodes), key=ranks[position][0].__getitem__)
                partitions[position] = [[i] for i in by_key]
        if not live:
            return partitions
        requests = []
        waiting = []
        for position, engine in live:
            comps = engine.advance()
            if comps:
                requests += [(engine, comp) for comp in comps]
                waiting.append((position, engine))
            else:
                partitions[position] = engine.best_blocks
        live = waiting
        _score(requests)
