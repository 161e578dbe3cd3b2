"""Tests for the interaction store and the node feature store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    DimensionMismatchError,
    FeatureError,
    NodeNotFoundError,
)
from repro.graph import InteractionStore, NodeFeatureStore
from repro.types import InteractionDim


class TestInteractionStore:
    def test_default_dimension_count(self):
        store = InteractionStore()
        assert store.num_dims == InteractionDim.count()

    def test_invalid_dimension_count(self):
        with pytest.raises(FeatureError):
            InteractionStore(num_dims=0)

    def test_record_and_get_symmetric(self):
        store = InteractionStore()
        store.record(1, 2, InteractionDim.MESSAGE, 3)
        assert store.get(1, 2, InteractionDim.MESSAGE) == 3.0
        assert store.get(2, 1, InteractionDim.MESSAGE) == 3.0

    def test_record_accumulates(self):
        store = InteractionStore()
        store.record(1, 2, 0, 1)
        store.record(2, 1, 0, 2)
        assert store.get(1, 2, 0) == 3.0

    def test_get_unknown_pair_is_zero(self):
        store = InteractionStore()
        assert store.get(7, 8, 0) == 0.0
        assert store.total(7, 8) == 0.0
        assert store.vector_view(7, 8) is None

    def test_out_of_range_dimension_raises(self):
        store = InteractionStore(num_dims=3)
        with pytest.raises(FeatureError):
            store.record(1, 2, 5)
        with pytest.raises(FeatureError):
            store.get(1, 2, -1)

    def test_vector_returns_copy(self):
        store = InteractionStore(num_dims=2)
        store.record(1, 2, 0, 1)
        vector = store.vector(1, 2)
        vector[0] = 99
        assert store.get(1, 2, 0) == 1.0

    def test_set_vector_and_shape_validation(self):
        store = InteractionStore(num_dims=3)
        store.set_vector(1, 2, np.array([1.0, 0.0, 2.0]))
        assert store.total(1, 2) == 3.0
        with pytest.raises(DimensionMismatchError):
            store.set_vector(1, 2, np.array([1.0, 2.0]))

    def test_set_vector_rejects_negative(self):
        store = InteractionStore(num_dims=2)
        with pytest.raises(FeatureError):
            store.set_vector(1, 2, np.array([-1.0, 0.0]))

    def test_set_zero_vector_removes_edge(self):
        store = InteractionStore(num_dims=2)
        store.record(1, 2, 0, 1)
        store.set_vector(1, 2, np.zeros(2))
        assert store.vector_view(1, 2) is None

    def test_sparsity(self):
        store = InteractionStore(num_dims=2)
        store.record(1, 2, 0, 1)
        assert store.sparsity(total_edges=4) == pytest.approx(0.75)
        assert store.sparsity(total_edges=0) == 0.0

    def test_len_and_items(self, small_interactions):
        assert len(small_interactions) == 4
        items = dict(small_interactions.items())
        assert len(items) == 4

    def test_total_sums_all_dimensions(self):
        store = InteractionStore(num_dims=3)
        store.record(1, 2, 0, 1)
        store.record(1, 2, 2, 4)
        assert store.total(1, 2) == 5.0


class TestNodeFeatureStore:
    def test_requires_at_least_one_feature(self):
        with pytest.raises(FeatureError):
            NodeFeatureStore([])

    def test_set_and_get(self):
        store = NodeFeatureStore(["a", "b"])
        store.set(1, [1.0, 2.0])
        np.testing.assert_allclose(store.get(1), [1.0, 2.0])

    def test_get_returns_copy(self):
        store = NodeFeatureStore(["a"])
        store.set(1, [5.0])
        vector = store.get(1)
        vector[0] = 0.0
        assert store.get(1)[0] == 5.0

    def test_get_missing_raises(self):
        store = NodeFeatureStore(["a"])
        with pytest.raises(NodeNotFoundError):
            store.get(1)

    def test_get_or_default_is_zeros(self):
        store = NodeFeatureStore(["a", "b"])
        np.testing.assert_allclose(store.get_or_default(9), [0.0, 0.0])

    def test_shape_validation(self):
        store = NodeFeatureStore(["a", "b"])
        with pytest.raises(DimensionMismatchError):
            store.set(1, [1.0])

    def test_matrix_stacking(self, small_features):
        matrix = small_features.matrix([1, 2, 3])
        assert matrix.shape == (3, 2)
        np.testing.assert_allclose(matrix[0], small_features.get(1))

    def test_matrix_empty(self, small_features):
        assert small_features.matrix([]).shape == (0, 2)

    def test_set_many_and_contains(self):
        store = NodeFeatureStore(["a"])
        for node, values in [(1, [1.0]), (2, [2.0])]:
            store.set(node, values)
        assert 1 in store and 2 in store
        assert len(store) == 2

    def test_num_features(self, small_features):
        assert small_features.num_features == 2
