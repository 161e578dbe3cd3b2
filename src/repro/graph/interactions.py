"""Sparse per-edge interaction counts (the paper's matrices ``I``).

The paper models user interactions as ``|I|`` matrices of size ``n × n``
where entry ``I^j_{uv}`` counts how many times ``u`` and ``v`` interacted on
dimension ``j`` (messaging, liking pictures, commenting on articles, ...).
At WeChat scale those matrices are enormously sparse — around 60 % of friend
pairs have *no* interaction at all over a month — so this store keeps a
single dict keyed by canonical edge whose values are dense NumPy vectors of
length ``|I|``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.exceptions import DimensionMismatchError, FeatureError
from repro.types import Edge, InteractionDim, Node, canonical_edge


class InteractionStore:
    """Sparse storage of interaction counts on undirected edges.

    Parameters
    ----------
    num_dims:
        Number of interaction dimensions ``|I|``.  Defaults to the seven
        WeChat-style dimensions of :class:`repro.types.InteractionDim`.

    Examples
    --------
    >>> store = InteractionStore()
    >>> store.record(1, 2, InteractionDim.MESSAGE, count=3)
    >>> store.get(2, 1, InteractionDim.MESSAGE)
    3.0
    >>> store.get(1, 5, InteractionDim.MESSAGE)
    0.0
    """

    __slots__ = ("_num_dims", "_counts", "_version")

    def __init__(self, num_dims: int = InteractionDim.count()) -> None:
        if num_dims <= 0:
            raise FeatureError("num_dims must be positive")
        self._num_dims = int(num_dims)
        self._counts: dict[Edge, np.ndarray] = {}
        self._version = 0

    @property
    def num_dims(self) -> int:
        """The number of interaction dimensions ``|I|``."""
        return self._num_dims

    @property
    def version(self) -> int:
        """Write counter; compiled snapshots use it to detect staleness."""
        return self._version

    @property
    def num_edges_with_interaction(self) -> int:
        """Number of edges that have at least one recorded interaction."""
        return len(self._counts)

    # ------------------------------------------------------------------ writes
    def record(self, u: Node, v: Node, dim: int, count: float = 1.0) -> None:
        """Add ``count`` interactions of dimension ``dim`` between ``u`` and ``v``."""
        self._check_dim(dim)
        edge = canonical_edge(u, v)
        vector = self._counts.get(edge)
        if vector is None:
            vector = np.zeros(self._num_dims, dtype=np.float64)
            self._counts[edge] = vector
        vector[int(dim)] += count
        self._version += 1

    def set_vector(self, u: Node, v: Node, vector: np.ndarray) -> None:
        """Replace the whole interaction vector of edge ``(u, v)``."""
        arr = np.asarray(vector, dtype=np.float64)
        if arr.shape != (self._num_dims,):
            raise DimensionMismatchError(
                f"expected vector of shape ({self._num_dims},), got {arr.shape}"
            )
        if np.any(arr < 0):
            raise FeatureError("interaction counts must be non-negative")
        edge = canonical_edge(u, v)
        if np.any(arr > 0):
            self._counts[edge] = arr.copy()
        else:
            self._counts.pop(edge, None)
        self._version += 1

    def update_from(
        self, records: Iterable[tuple[Node, Node, int, float]]
    ) -> None:
        """Bulk-record ``(u, v, dim, count)`` tuples."""
        for u, v, dim, count in records:
            self.record(u, v, dim, count)

    # ------------------------------------------------------------------- reads
    def get(self, u: Node, v: Node, dim: int) -> float:
        """Return ``I^dim_{uv}`` (0.0 when the pair never interacted)."""
        self._check_dim(dim)
        vector = self._counts.get(canonical_edge(u, v))
        return float(vector[int(dim)]) if vector is not None else 0.0

    def vector(self, u: Node, v: Node) -> np.ndarray:
        """Return the full interaction vector of edge ``(u, v)`` (a copy)."""
        vector = self._counts.get(canonical_edge(u, v))
        if vector is None:
            return np.zeros(self._num_dims, dtype=np.float64)
        return vector.copy()

    def vector_view(self, u: Node, v: Node) -> np.ndarray | None:
        """Read-only, no-copy view of edge ``(u, v)``'s vector, or ``None``.

        The batch accessor for hot loops (Equation 1/2 pair scans): unlike
        :meth:`vector` it neither copies nor materialises zeros for silent
        edges — callers skip ``None`` instead of adding a zero vector.  The
        returned array is not writable.
        """
        vector = self._counts.get(canonical_edge(u, v))
        if vector is None:
            return None
        view = vector.view()
        view.flags.writeable = False
        return view

    def total(self, u: Node, v: Node) -> float:
        """Total interactions between ``u`` and ``v`` across all dimensions."""
        vector = self._counts.get(canonical_edge(u, v))
        return float(vector.sum()) if vector is not None else 0.0

    def has_interaction(self, u: Node, v: Node) -> bool:
        return canonical_edge(u, v) in self._counts

    def edges_with_interaction(self) -> Iterator[Edge]:
        return iter(self._counts)

    def items(self) -> Iterator[tuple[Edge, np.ndarray]]:
        """Iterate ``(edge, vector)`` pairs; vectors are the internal arrays."""
        return iter(self._counts.items())

    # --------------------------------------------------------------- utilities
    def restrict_to(self, nodes: Iterable[Node]) -> "InteractionStore":
        """Return a new store containing only interactions between ``nodes``."""
        keep = set(nodes)
        restricted = InteractionStore(self._num_dims)
        for (u, v), vector in self._counts.items():
            if u in keep and v in keep:
                restricted._counts[(u, v)] = vector.copy()
        return restricted

    def sparsity(self, total_edges: int) -> float:
        """Fraction of ``total_edges`` with *no* recorded interaction."""
        if total_edges <= 0:
            return 0.0
        silent = total_edges - len(self._counts)
        return max(0.0, silent / total_edges)

    def _check_dim(self, dim: int) -> None:
        if not 0 <= int(dim) < self._num_dims:
            raise FeatureError(
                f"interaction dimension {dim} out of range [0, {self._num_dims})"
            )

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return (
            f"InteractionStore(num_dims={self._num_dims}, "
            f"edges_with_interaction={len(self._counts)})"
        )
