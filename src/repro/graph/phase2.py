"""NumPy kernel layer for Phase II feature aggregation.

Phase II (Equations 1-2, Algorithm 1) is dominated by interpreter-bound
gathers over :class:`repro.graph.interactions.InteractionStore` — the dict
path re-scans every member pair of a community once *per member*, costing
``O(k * |C|^2 * |I|)`` Python work per community.  This module compiles the
two Phase II stores into flat arrays once and then answers every
per-community question with batched NumPy gathers:

* :class:`InteractionMatrix` — CSR adjacency over a node <-> index interner
  (the same interning scheme as :class:`repro.graph.csr.CSRGraph`), with one
  dense ``|I|``-vector per directed edge entry.
* :class:`NodeFeatureMatrix` — a dense ``(n + 1) x |f|`` view of
  :class:`repro.graph.features.NodeFeatureStore`; the final all-zero row is
  the sentinel for nodes with no stored features, so batched gathers never
  branch on missing nodes.
* :class:`Phase2Kernel` — the compiled pair plus
  :meth:`Phase2Kernel.community_rows_batch`, which computes every
  community's member-pair interaction totals **once** (``O(|C|^2)`` instead
  of ``O(k * |C|^2)``) and derives all requested members' Equation-2 share
  vectors from them in one shot, across a whole batch of communities, and
  :meth:`Phase2Kernel.community_tensor`, which scatters those batch rows
  directly into the zero-padded ``(n, 1, k, |I|+|f|)`` CommCNN input tensor
  with no intermediate per-community matrices.

The compiled stores support **delta compilation**: an update that only
changes values already representable in the snapshot — an existing edge's
interaction vector, an interned node's feature row — is patched in place
(:meth:`Phase2Kernel.patch_interaction`, :meth:`Phase2Kernel.patch_features`)
instead of recompiled; structural deltas (new nodes, new interaction edges)
report ``False`` and the caller falls back to a full recompile, so patched
and recompiled kernels always produce bit-identical community aggregates.

Parity contract: interaction counts are integer-valued in every workload the
repo generates, and sums of integers below 2^53 are exact in float64
regardless of accumulation order, so the share vectors — and everything
:class:`repro.core.aggregation.FeatureMatrixBuilder` derives from them —
match the dict path bit-for-bit (see ``tests/test_phase2_csr.py``).  With
non-integer counts the two paths agree to accumulation-order ulps.
"""

from __future__ import annotations

from typing import Collection, Sequence

import numpy as np

from repro.graph.features import NodeFeatureStore
from repro.graph.interactions import InteractionStore
from repro.types import Node

__all__ = ["InteractionMatrix", "NodeFeatureMatrix", "Phase2Kernel"]


class InteractionMatrix:
    """CSR snapshot of an :class:`InteractionStore` over interned nodes.

    ``indices[indptr[i]:indptr[i + 1]]`` holds the (ascending) neighbour
    indices that node ``i`` has interactions with, and ``data`` carries the
    corresponding ``|I|``-vectors — one row per directed entry, so a row
    gather needs no canonical-edge bookkeeping.  Self-interactions are
    dropped at build time because the Equation-1 pair sums never include
    them.
    """

    __slots__ = ("indptr", "indices", "data", "num_dims")

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, num_dims: int
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.num_dims = num_dims

    @classmethod
    def from_store(
        cls, store: InteractionStore, index: dict[Node, int]
    ) -> "InteractionMatrix":
        """Compile ``store`` against an existing node -> dense-index interner.

        Edges with an endpoint outside ``index`` are skipped (mirroring how
        the dict path simply never looks them up).
        """
        n = len(index)
        num_dims = store.num_dims
        us: list[int] = []
        vs: list[int] = []
        vectors: list[np.ndarray] = []
        for (u, v), vector in store.items():
            if u == v:
                continue
            iu = index.get(u)
            iv = index.get(v)
            if iu is None or iv is None:
                continue
            us.append(iu)
            vs.append(iv)
            vectors.append(vector)
        num_edges = len(us)
        if num_edges == 0:
            return cls(
                np.zeros(n + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.zeros((0, num_dims), dtype=np.float64),
                num_dims,
            )
        iu = np.array(us, dtype=np.int64)
        iv = np.array(vs, dtype=np.int64)
        edge_data = np.array(vectors, dtype=np.float64)
        src = np.concatenate([iu, iv])
        dst = np.concatenate([iv, iu])
        edge_id = np.concatenate([np.arange(num_edges)] * 2)
        order = np.lexsort((dst, src))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(indptr, dst[order], edge_data[edge_id[order]], num_dims)

    def _entry_position(self, src: int, dst: int) -> int:
        """Position of the directed entry ``src -> dst`` in ``data``, or -1.

        Within-row neighbour indices are ascending by construction (the
        build lexsort orders on ``(src, dst)``), so the lookup is a binary
        search over the row slice.
        """
        start = int(self.indptr[src])
        stop = int(self.indptr[src + 1])
        pos = start + int(np.searchsorted(self.indices[start:stop], dst))
        if pos < stop and int(self.indices[pos]) == dst:
            return pos
        return -1

    def patch_edge(self, iu: int, iv: int, vector: np.ndarray) -> bool:
        """Overwrite both directed data rows of interned pair ``(iu, iv)``.

        Delta compilation: an interaction update on an edge the CSR already
        holds is a two-row in-place write, no recompile.  Returns ``False``
        — and writes nothing — when either directed entry is absent (a new
        edge needs a structural recompile); both positions are located
        before the first write, so a failed patch never leaves the matrix
        half-updated.
        """
        pos_uv = self._entry_position(iu, iv)
        if pos_uv < 0:
            return False
        pos_vu = self._entry_position(iv, iu)
        if pos_vu < 0:
            return False
        self.data[pos_uv] = vector
        self.data[pos_vu] = vector
        return True


class NodeFeatureMatrix:
    """Dense ``(n + 1) x |f|`` view of a :class:`NodeFeatureStore`.

    Row ``i`` is the feature vector of interned node ``i``; the final row is
    all-zero and acts as the sentinel for nodes with no stored features, so
    ``dense[ids]`` is a total function over any id batch.
    """

    __slots__ = ("dense", "num_features")

    def __init__(self, dense: np.ndarray) -> None:
        self.dense = dense
        self.num_features = int(dense.shape[1])

    @classmethod
    def from_store(
        cls, store: NodeFeatureStore, index: dict[Node, int]
    ) -> "NodeFeatureMatrix":
        dense = np.zeros((len(index) + 1, store.num_features), dtype=np.float64)
        for node in store.nodes():
            i = index.get(node)
            if i is not None:
                dense[i] = store.get_view(node)
        return cls(dense)

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Feature rows for a batch of interned ids (sentinel-safe)."""
        return self.dense[ids]

    def patch_row(self, row: int, values: np.ndarray) -> None:
        """Overwrite one interned node's feature row in place (delta path)."""
        self.dense[row] = values


class Phase2Kernel:
    """Compiled Phase II state: interaction CSR + dense feature matrix.

    Compile once per (features, interactions) pair — typically per pipeline
    ``fit`` — and reuse across every community.  The kernel snapshots the
    stores; mutations made to them afterwards are not reflected.
    """

    __slots__ = ("interactions", "features", "_index", "_sentinel")

    def __init__(
        self,
        interactions: InteractionMatrix,
        features: NodeFeatureMatrix,
        index: dict[Node, int],
    ) -> None:
        self.interactions = interactions
        self.features = features
        self._index = index
        self._sentinel = len(index)

    @classmethod
    def compile(
        cls, features: NodeFeatureStore, interactions: InteractionStore
    ) -> "Phase2Kernel":
        """Intern every node of both stores and compile.

        The interner order is deterministic: interaction endpoints in store
        iteration order, then feature-store nodes not already seen.
        """
        index: dict[Node, int] = {}
        for u, v in interactions.edges_with_interaction():
            if u not in index:
                index[u] = len(index)
            if v not in index:
                index[v] = len(index)
        for node in features.nodes():
            if node not in index:
                index[node] = len(index)
        return cls(
            InteractionMatrix.from_store(interactions, index),
            NodeFeatureMatrix.from_store(features, index),
            index,
        )

    @property
    def num_nodes(self) -> int:
        return len(self._index)

    # ------------------------------------------------------ delta compilation
    def patch_interaction(self, u: Node, v: Node, vector: np.ndarray | None) -> bool:
        """Patch the compiled interaction entry for ``(u, v)`` in place.

        ``vector`` is the edge's *new* per-dimension count vector; ``None``
        (or all zeros) marks a removed interaction — the CSR slot is zeroed
        rather than deleted, which is output-exact because a zero vector
        contributes exactly ``0.0`` to every Equation-1 pair sum, the same
        as the recompiled kernel that drops the entry.  Returns ``False``
        when the delta cannot be expressed as an in-place write (an
        endpoint outside the interner, or a brand-new edge with no CSR
        slot): the caller must fall back to a full recompile to stay
        bit-identical.  Self-interactions are ``True`` no-ops — Equation 1
        never includes them, patched or recompiled.
        """
        iu = self._index.get(u)
        iv = self._index.get(v)
        if iu is None or iv is None:
            return False
        if iu == iv:
            return True
        num_dims = self.interactions.num_dims
        if vector is None:
            data = np.zeros(num_dims, dtype=np.float64)
        else:
            data = np.asarray(vector, dtype=np.float64)
            if data.shape != (num_dims,):
                raise ValueError(
                    f"interaction vector must have shape ({num_dims},), "
                    f"got {data.shape}"
                )
        return self.interactions.patch_edge(iu, iv, data)

    def patch_features(self, node: Node, values: np.ndarray) -> bool:
        """Patch one node's compiled feature row in place.

        Returns ``False`` when ``node`` is outside the interner (a recompile
        would widen the dense matrix — the caller must recompile instead).
        """
        i = self._index.get(node)
        if i is None:
            return False
        row = np.asarray(values, dtype=np.float64)
        if row.shape != (self.features.num_features,):
            raise ValueError(
                f"feature vector must have shape ({self.features.num_features},), "
                f"got {row.shape}"
            )
        self.features.patch_row(i, row)
        return True

    # ------------------------------------------------------ Equation 1/2 batch
    def community_rows_batch(
        self, communities: Sequence[tuple[Collection[Node], Sequence[Node]]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Full Phase II rows for a batch of communities, in one sweep.

        Each item is ``(members, selected)``: the full member set (defining
        the Equation-1 pair totals) and the members whose rows are wanted, in
        row order.  Returns ``(rows, offsets)`` where ``rows`` is a
        ``sum(len(selected)) x (|I| + |f|)`` matrix — Equation-2 share block
        followed by the individual-feature block — and community ``c`` owns
        ``rows[offsets[c]:offsets[c + 1]]``.

        The member-pair totals of every community are found together: member
        adjacency rows are gathered from the CSR arrays, and a single
        ``searchsorted`` against per-community keys ``c * n + member`` keeps
        exactly the entries whose neighbour is a fellow member of the same
        community.  Per-member totals then reduce via ``bincount`` and pair
        totals via one more segment sum (each pair is seen from both
        endpoints, and halving the double-count is exact in float64).  No
        per-community NumPy call remains — total cost is a fixed number of
        array ops regardless of the batch size.
        """
        num_comms = len(communities)
        num_dims = self.interactions.num_dims
        num_columns = num_dims + self.features.num_features
        index_get = self._index.get
        n = self._sentinel

        sel_sizes = np.fromiter(
            (len(selected) for _, selected in communities),
            dtype=np.int64,
            count=num_comms,
        )
        offsets = np.zeros(num_comms + 1, dtype=np.int64)
        np.cumsum(sel_sizes, out=offsets[1:])
        total_selected = int(offsets[-1])
        rows = np.zeros((total_selected, num_columns))
        if num_comms == 0:
            return rows, offsets

        # Interned member ids per community (missing nodes dropped — they
        # cannot contribute interactions) and interned selected ids (missing
        # nodes kept as -1 so their rows resolve to the zero sentinel).
        member_ids: list[int] = []
        member_sizes = np.zeros(num_comms, dtype=np.int64)
        selected_ids: list[int] = []
        for c, (members, selected) in enumerate(communities):
            count = 0
            for member in members:
                i = index_get(member)
                if i is not None:
                    member_ids.append(i)
                    count += 1
            member_sizes[c] = count
            for member in selected:
                selected_ids.append(index_get(member, -1))
        total_members = len(member_ids)
        sel_ids = np.array(selected_ids, dtype=np.int64)

        # Individual-feature block: one dense gather (sentinel-safe).
        rows[:, num_dims:] = self.features.dense[np.where(sel_ids < 0, n, sel_ids)]

        if total_members == 0:
            return rows, offsets

        comm_of_member = np.repeat(np.arange(num_comms), member_sizes)
        all_members = np.array(member_ids, dtype=np.int64)
        order = np.lexsort((all_members, comm_of_member))
        all_members = all_members[order]
        # keys is globally sorted: ascending by community, then by member id.
        # The stride is n + 1 (not n) so the sentinel id ``n`` used for
        # missing selected nodes below can never alias a real member of a
        # neighbouring community.
        stride = n + 1
        keys = comm_of_member * stride + all_members

        # Per-member interaction totals restricted to fellow members.
        node_totals = np.zeros((total_members + 1, num_dims))  # +1: sentinel row
        indptr = self.interactions.indptr
        starts = indptr[all_members]
        counts = indptr[all_members + 1] - starts
        total_entries = int(counts.sum())
        if total_entries:
            seg = np.repeat(np.arange(total_members), counts)
            entry_offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
            positions = (
                np.arange(total_entries)
                - np.repeat(entry_offsets, counts)
                + np.repeat(starts, counts)
            )
            neighbor = self.interactions.indices[positions]
            query = comm_of_member[seg] * stride + neighbor
            pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
            valid = keys[pos] == query
            matched = self.interactions.data[positions[valid]]
            seg_valid = seg[valid]
            for dim in range(num_dims):
                node_totals[:total_members, dim] = np.bincount(
                    seg_valid, weights=matched[:, dim], minlength=total_members
                )

        # Pair totals per community: every pair is counted once from each
        # endpoint, and halving the double-count is exact for integer sums.
        pair_totals = np.empty((num_comms, num_dims))
        for dim in range(num_dims):
            pair_totals[:, dim] = np.bincount(
                comm_of_member,
                weights=node_totals[:total_members, dim],
                minlength=num_comms,
            )
        pair_totals /= 2.0

        # Selected rows resolve into node_totals through the same key space;
        # non-members and unknown nodes miss and land on the sentinel row.
        comm_of_selected = np.repeat(np.arange(num_comms), sel_sizes)
        sel_keys = comm_of_selected * stride + np.where(sel_ids < 0, n, sel_ids)
        pos = np.minimum(np.searchsorted(keys, sel_keys), keys.size - 1)
        gathered = np.where(keys[pos] == sel_keys, pos, total_members)
        numerators = node_totals[gathered]
        denominators = pair_totals[comm_of_selected]
        np.divide(
            numerators,
            denominators,
            out=rows[:, :num_dims],
            where=denominators > 0.0,
        )
        return rows, offsets

    def community_statistics(
        self,
        communities: Sequence[tuple[Collection[Node], Sequence[Node]]],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Mean/std statistic vectors for a batch of communities.

        Each item is ``(members, ordered)`` where ``ordered`` is the full
        tightness ordering (not truncated to ``k``); row ``c`` of the result
        is the ``2 * (|I| + |f|) + 1`` LoCEC-XGB vector — mean block, std
        block, community size.  The segment reductions replay exactly the
        arithmetic of ``rows.mean(axis=0)`` / ``rows.std(axis=0)`` on each
        community's row block — sequential sums in row order, one divide,
        one sqrt — so the result is bit-identical to the dict aggregation
        path, and (because every reduction is per-community) independent of
        how the batch is split: computing some communities alone yields the
        same rows as computing them inside the full batch — what lets
        ``apply_updates`` re-score only the dirty ones.

        ``out`` (optional) is the preallocated target to fill in place; a
        fresh zero matrix is allocated when omitted.
        """
        num_comms = len(communities)
        columns = self.interactions.num_dims + self.features.num_features
        if out is None:
            out = np.zeros((num_comms, 2 * columns + 1), dtype=np.float64)
        if num_comms == 0:
            return out
        rows, offsets = self.community_rows_batch(communities)
        counts = np.diff(offsets)
        comm_of_row = np.repeat(np.arange(num_comms), counts)
        sums = np.empty((num_comms, columns))
        for column in range(columns):
            sums[:, column] = np.bincount(
                comm_of_row, weights=rows[:, column], minlength=num_comms
            )
        mean = sums / counts[:, None]
        deviations = rows - mean[comm_of_row]
        deviations *= deviations
        for column in range(columns):
            sums[:, column] = np.bincount(
                comm_of_row, weights=deviations[:, column], minlength=num_comms
            )
        out[:, :columns] = mean
        out[:, columns : 2 * columns] = np.sqrt(sums / counts[:, None])
        out[:, -1] = counts
        return out

    def community_tensor(
        self,
        communities: Sequence[tuple[Collection[Node], Sequence[Node]]],
        k: int,
    ) -> np.ndarray:
        """CNN input tensor ``(n, 1, k, |I| + |f|)`` straight from batch rows.

        One fancy-index scatter places every community's Phase II rows into
        its zero-padded ``k``-row slab — no intermediate per-community
        ``CommunityFeatureMatrix`` objects, no Python loop over communities.
        Each ``selected`` list must already be truncated to at most ``k``
        members (the aggregation layer guarantees this).
        """
        rows, offsets = self.community_rows_batch(communities)
        num_comms = len(communities)
        num_columns = self.interactions.num_dims + self.features.num_features
        tensor = np.zeros((num_comms, 1, k, num_columns), dtype=np.float64)
        if rows.shape[0] == 0:
            return tensor
        counts = np.diff(offsets)
        if counts.max() > k:
            raise ValueError(
                f"selected member lists must hold at most k={k} rows, "
                f"got {int(counts.max())}"
            )
        comm_of_row = np.repeat(np.arange(num_comms), counts)
        row_within = np.arange(rows.shape[0]) - np.repeat(offsets[:-1], counts)
        tensor[comm_of_row, 0, row_within] = rows
        return tensor
