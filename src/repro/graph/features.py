"""Per-node individual feature storage (the paper's matrix ``F``).

Each user has a small dense vector of profile features ``f_v`` (gender, age
bucket, ...).  These features are independent of any local community, unlike
the interaction features computed by Equation 1 of the paper.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, FeatureError, NodeNotFoundError
from repro.types import DEFAULT_FEATURE_NAMES, Node


class NodeFeatureStore:
    """Dense per-node feature vectors with named dimensions.

    Parameters
    ----------
    feature_names:
        Names of the feature dimensions.  ``|f|`` is ``len(feature_names)``.

    Examples
    --------
    >>> store = NodeFeatureStore(["gender", "age_bucket"])
    >>> store.set(7, [1.0, 3.0])
    >>> store.get(7)
    array([1., 3.])
    """

    __slots__ = ("_feature_names", "_features", "_default", "_default_view", "_version")

    def __init__(
        self, feature_names: Sequence[str] = DEFAULT_FEATURE_NAMES
    ) -> None:
        if not feature_names:
            raise FeatureError("at least one feature dimension is required")
        self._feature_names = tuple(str(name) for name in feature_names)
        self._features: dict[Node, np.ndarray] = {}
        self._default = np.zeros(len(self._feature_names), dtype=np.float64)
        self._default_view = self._default.view()
        self._default_view.flags.writeable = False
        self._version = 0

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self._feature_names

    @property
    def num_features(self) -> int:
        """The paper's ``|f|``: length of each individual feature vector."""
        return len(self._feature_names)

    @property
    def num_nodes(self) -> int:
        return len(self._features)

    @property
    def version(self) -> int:
        """Write counter; compiled snapshots use it to detect staleness."""
        return self._version

    # ------------------------------------------------------------------ access
    def set(self, node: Node, values: Sequence[float] | np.ndarray) -> None:
        """Set the feature vector of ``node``."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (self.num_features,):
            raise DimensionMismatchError(
                f"expected feature vector of shape ({self.num_features},), "
                f"got {arr.shape}"
            )
        self._features[node] = arr.copy()
        self._version += 1

    def get(self, node: Node) -> np.ndarray:
        """Return the feature vector of ``node`` (a copy).

        Raises :class:`NodeNotFoundError` when the node has no features.
        """
        try:
            return self._features[node].copy()
        except KeyError:
            raise NodeNotFoundError(node) from None

    def get_or_default(self, node: Node) -> np.ndarray:
        """Return the feature vector of ``node`` or an all-zero default.

        LoCEC must handle users with private/empty profiles; they contribute
        a zero individual-feature block but still carry interaction features.
        """
        vector = self._features.get(node)
        return vector.copy() if vector is not None else self._default.copy()

    def get_view(self, node: Node) -> np.ndarray:
        """Read-only, no-copy view of ``node``'s vector (or the zero default).

        The batch accessor for hot loops: callers that only read (stacking
        into a preallocated matrix, summing) skip the per-call allocation of
        :meth:`get_or_default`.  The returned array is not writable.
        """
        vector = self._features.get(node)
        if vector is None:
            return self._default_view
        view = vector.view()
        view.flags.writeable = False
        return view

    def nodes(self) -> Iterator[Node]:
        return iter(self._features)

    # --------------------------------------------------------------- utilities
    def matrix(self, nodes: Sequence[Node]) -> np.ndarray:
        """Stack feature vectors of ``nodes`` into a ``len(nodes) × |f|`` matrix."""
        out = np.zeros((len(nodes), self.num_features), dtype=np.float64)
        features = self._features
        for row, node in enumerate(nodes):
            vector = features.get(node)
            if vector is not None:
                out[row] = vector
        return out

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, node: Node) -> bool:
        return node in self._features

    def __repr__(self) -> str:
        return (
            f"NodeFeatureStore(num_features={self.num_features}, "
            f"num_nodes={self.num_nodes})"
        )
