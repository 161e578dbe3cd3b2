"""Parity tests: the exact GBDT growth and the stacked forest must match
their oracle.

A fit below :data:`~repro.ml.gbdt.HIST_AUTO_MIN_ROWS` rows grows its trees
with the vectorized exact search (:func:`repro.ml.forest.grow_exact` over
:func:`~repro.ml.forest.best_split_array`) and answers all inference from
its one :class:`ForestTensor`.  The oracle, ``tests/exact_reference.py``,
scans each node feature by feature and walks node pointers row by row;
both execute the same float64 operations in the same order, so fitted
splits, leaf numbering, predictions, probabilities and the LoCEC-XGB
leaf-value embedding must be **bit-identical** — this suite sweeps
randomized regression targets, boosted multi-class problems,
hypothesis-generated tie-heavy matrices (the presorted split search orders
equal values by rank code, so ties are where it could part from the scalar
scan), the Phase II community classifier and the direct Phase2Kernel CNN
tensor path, plus the iterative flattening of a deep chain.  Parametrized
cases name the oracle ``"node"``, the exact grower ``"array"`` and the
histogram grower ``"hist"``.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.exact_reference as exact_reference
from repro.core.community_classifier import GBDTCommunityClassifier
from repro.core.config import GBDTConfig
from repro.core.division import LocalCommunity
from repro.exceptions import NotFittedError
from repro.ml.forest import (
    FeaturePresort,
    ForestTensor,
    RegressionTreeConfig,
    TreeTensor,
    grow_exact,
)
from repro.ml.gbdt import HIST_AUTO_MIN_ROWS, GradientBoostedClassifier
from repro.ml.hist import BinnedDataset, HistTreeGrower
from tests.exact_reference import (
    Node,
    ReferenceBoostedClassifier,
    apply_nodes,
    assert_forest_is,
    forest_arrays,
    forest_leaf_indices,
    node_depth,
    reference_tree,
)

SEEDS = (0, 1, 2, 3, 4)


def random_tree_problem(seed: int, n: int = 150, num_features: int = 5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, num_features))
    # Duplicate feature values exercise the cannot-split-between-equal mask.
    X[:, 0] = np.round(X[:, 0] * 2.0) / 2.0
    gradients = rng.normal(size=n)
    hessians = np.abs(rng.normal(size=n)) + 0.05
    return X, gradients, hessians


def random_classification_problem(seed: int, n: int = 120, num_classes: int = 3):
    rng = np.random.default_rng(seed + 100)
    X = rng.normal(size=(n, 4))
    y = rng.integers(0, num_classes, size=n)
    return X, y


def grow_hist(X, gradients, hessians, config):
    """One tree by :class:`HistTreeGrower` (a round of one gradient column)."""
    binned = BinnedDataset.from_matrix(X, config.max_bins)
    tensors, values = HistTreeGrower(binned, config).grow(
        np.asarray(gradients, dtype=np.float64)[:, None],
        np.asarray(hessians, dtype=np.float64)[:, None],
    )
    return tensors[0], values[:, 0]


class Grown(NamedTuple):
    """One grown tree, read the same way whichever grower made it."""

    threshold: float  # the root's split threshold (0.0 for a lone leaf)
    predict: Callable  # rows -> walked leaf value per row
    apply: Callable  # rows -> walked leaf id per row
    values: np.ndarray  # the leaf values the grower recorded for its rows
    num_leaves: int


def grow_tree(route, X, gradients, hessians, config=None) -> Grown:
    """One tree on ``route``: ``"node"`` the oracle's scan and pointer
    walks, ``"array"`` :func:`grow_exact`, ``"hist"`` the histogram grower
    (both read through a one-tree :class:`ForestTensor`)."""
    config = config or RegressionTreeConfig()
    X = np.asarray(X, dtype=np.float64)
    if route == "node":
        root, values = reference_tree(config, X, gradients, hessians)
        return Grown(
            root.threshold,
            lambda rows: np.array([leaf.value for leaf in apply_nodes(root, rows)]),
            lambda rows: np.array([leaf.leaf_id for leaf in apply_nodes(root, rows)]),
            values,
            int((forest_arrays([root])["feature"] < 0).sum()),
        )
    if route == "array":
        presort = FeaturePresort.from_matrix(X)
        tensor, values = grow_exact(presort, gradients, hessians, config)
    else:
        tensor, values = grow_hist(X, gradients, hessians, config)
    forest = ForestTensor([tensor])
    return Grown(
        float(tensor.threshold[0]),
        lambda rows: forest.leaf_values_matrix(np.atleast_2d(rows))[:, 0],
        lambda rows: forest_leaf_indices(forest, rows)[:, 0],
        values,
        int((tensor.feature < 0).sum()),
    )


def make_model(route, **kwargs):
    """A boosted classifier: ``"node"`` names the oracle, ``"array"`` the
    product (every design here is below the histogram crossover)."""
    if route == "node":
        return ReferenceBoostedClassifier(**kwargs)
    return GradientBoostedClassifier(**kwargs)


def flat_roots(model: ReferenceBoostedClassifier) -> list[Node]:
    return [root for round_trees in model.trees_ for root in round_trees]


class TestBackendResolution:
    def test_auto_resolves_to_array_with_numpy(self):
        # Below the row crossover every fit grows exact trees.
        X, y = random_classification_problem(0)
        assert X.shape[0] < HIST_AUTO_MIN_ROWS
        model = GradientBoostedClassifier(num_rounds=2).fit(X, y)
        assert model.num_hist_passes_ == 0
        assert_forest_is(
            model.forest_, flat_roots(ReferenceBoostedClassifier(num_rounds=2).fit(X, y))
        )

    def test_unknown_backend_rejected(self):
        # There is no selector to get wrong: the row count picks the split
        # search, and a stale ``backend=`` caller fails.  The pointer-walk
        # oracle is reached in tests/exact_reference.py.
        for backend in ("auto", "array", "hist", "node", "csr"):
            with pytest.raises(TypeError):
                GradientBoostedClassifier(backend=backend)


class TestSplitThreshold:
    """Between adjacent doubles the midpoint rounds up to the upper value; a
    threshold equal to it would send the rows grown into the right leaf to
    the left one (``x <= threshold`` goes left)."""

    @pytest.mark.parametrize("backend", ("node", "array", "hist"))
    def test_adjacent_doubles_keep_training_rows_in_their_leaf(self, backend):
        # Column 5 of division_dense's design holds this pair.
        lo, hi = 0.1818181818181818, 0.18181818181818182
        assert np.nextafter(lo, 1.0) == hi and 0.5 * (lo + hi) == hi
        X = np.array([[lo], [lo], [hi], [hi]])
        config = RegressionTreeConfig(max_depth=1, min_samples_leaf=1)
        tree = grow_tree(backend, X, np.array([-1.0, -1.0, 1.0, 1.0]), np.ones(4), config)
        assert tree.threshold == lo
        np.testing.assert_array_equal(
            tree.predict(X), [2.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0]
        )


class TestTreeParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fitted_splits_bit_identical(self, seed):
        # Features, thresholds, values, child slots and leaf ids: the exact
        # grower's flattened tree is the oracle's, leaf numbering included.
        X, gradients, hessians = random_tree_problem(seed)
        config = RegressionTreeConfig(max_depth=4, min_samples_leaf=3)
        root, expected = reference_tree(config, X, gradients, hessians)
        tensor, values = grow_exact(
            FeaturePresort.from_matrix(X), gradients, hessians, config
        )
        assert_forest_is(ForestTensor([tensor]), [root])
        np.testing.assert_array_equal(values, expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_predict_apply_leaf_values_bit_identical(self, seed):
        X, gradients, hessians = random_tree_problem(seed)
        config = RegressionTreeConfig(max_depth=5)
        node_tree = grow_tree("node", X, gradients, hessians, config)
        array_tree = grow_tree("array", X, gradients, hessians, config)
        fresh = np.random.default_rng(seed + 50).normal(size=(60, X.shape[1]))
        for batch in (X, fresh, fresh[0]):
            assert np.array_equal(node_tree.predict(batch), array_tree.predict(batch))
            assert np.array_equal(node_tree.apply(batch), array_tree.apply(batch))
        assert node_tree.num_leaves == array_tree.num_leaves

    def test_tensor_accessor_matches_node_walk(self):
        # The oracle's own tree, flattened by TreeTensor.from_root: the
        # forest walk lands every row where the pointer walk does, and the
        # preorder numbering is the one the oracle gave while it grew.
        X, gradients, hessians = random_tree_problem(9)
        root, _ = reference_tree(RegressionTreeConfig(), X, gradients, hessians)
        tensor = TreeTensor.from_root(root)
        assert isinstance(tensor, TreeTensor)
        assert_forest_is(ForestTensor([tensor]), [root])
        forest = ForestTensor([tensor])
        leaves = apply_nodes(root, X)
        assert np.array_equal(
            forest.leaf_values_matrix(X)[:, 0], [leaf.value for leaf in leaves]
        )
        assert np.array_equal(
            forest_leaf_indices(forest, X)[:, 0], [leaf.leaf_id for leaf in leaves]
        )

    def test_standalone_tree_builds_its_own_presort(self):
        # A tree grown on a presort of its own equals one grown on a presort
        # that already grew other trees (a fit shares one across all its
        # trees, so growth must leave it untouched), and the node scan's.
        X, gradients, hessians = random_tree_problem(7)
        config = RegressionTreeConfig(max_depth=4)
        shared = FeaturePresort.from_matrix(X)
        for other in range(3):
            grow_exact(shared, np.roll(gradients, other + 1), hessians, config)
        alone, _ = grow_exact(FeaturePresort.from_matrix(X), gradients, hessians, config)
        reused, _ = grow_exact(shared, gradients, hessians, config)
        root, _ = reference_tree(config, X, gradients, hessians)
        assert_forest_is(ForestTensor([alone]), [root])
        assert_forest_is(ForestTensor([reused]), [root])

    def test_rank_codes_widen_past_65536_rows(self):
        # All-distinct values: the largest rank is rows - 1, which fits
        # uint16 at exactly 65,536 rows and not one row later.
        assert FeaturePresort.from_matrix(np.arange(65536.0)[:, None]).codes.dtype == np.uint16
        rng = np.random.default_rng(0)
        X = rng.permutation(65537).astype(np.float64)[:, None]
        gradients = rng.normal(size=X.shape[0])
        hessians = np.abs(rng.normal(size=X.shape[0])) + 0.05
        presort = FeaturePresort.from_matrix(X)
        assert presort.codes.dtype == np.uint32
        assert int(presort.codes.max()) == 65536
        config = RegressionTreeConfig(max_depth=1)
        tensor, _ = grow_exact(presort, gradients, hessians, config)
        root, _ = reference_tree(config, X, gradients, hessians)
        assert int((tensor.feature < 0).sum()) == 2
        assert_forest_is(ForestTensor([tensor]), [root])

    def test_single_leaf_tree(self):
        X = np.ones((8, 2))
        tree = grow_tree("array", X, np.full(8, -1.0), np.ones(8))
        assert tree.num_leaves == 1
        assert np.array_equal(tree.apply(X), np.zeros(8, dtype=np.int64))

    def test_predict_before_fit_raises(self):
        # A tree exists only inside a fitted forest: nothing reads one
        # before a fit.
        model = GradientBoostedClassifier()
        with pytest.raises(NotFittedError):
            model.leaf_values(np.zeros((2, 2)))
        with pytest.raises(NotFittedError):
            model.proba_from_leaf_values(np.zeros((2, 2)))

    def test_iterative_depth_survives_deep_chains(self):
        # A 5000-deep left chain: recursion would blow the interpreter limit
        # (default 1000) on trees like this, in the oracle's node_depth and
        # in the product's TreeTensor.from_root alike.
        node = Node(-1.0)
        for _ in range(5000):
            node = Node(0.0, feature=0, threshold=0.0, left=node, right=Node(1.0))
        assert node_depth(node) == 5000
        tensor = TreeTensor.from_root(node)
        assert tensor.num_nodes == 10001
        # Left-first preorder: the deepest leaf is leaf 0, the root's right
        # child the last leaf.
        forest = ForestTensor([tensor])
        rows = np.array([[-1.0], [1.0]])
        np.testing.assert_array_equal(forest_leaf_indices(forest, rows), [[0], [5000]])
        np.testing.assert_array_equal(forest.leaf_values_matrix(rows), [[-1.0], [1.0]])


class TestForestParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_gbdt_outputs_bit_identical(self, seed):
        X, y = random_classification_problem(seed)
        kwargs = dict(num_rounds=8, max_depth=3)
        node_model = ReferenceBoostedClassifier(**kwargs).fit(X, y)
        array_model = GradientBoostedClassifier(**kwargs).fit(X, y)
        assert_forest_is(array_model.forest_, flat_roots(node_model))
        assert node_model.train_loss_history_ == array_model.train_loss_history_
        fresh = np.random.default_rng(seed + 200).normal(size=(40, X.shape[1]))
        for batch in (X, fresh, fresh[0]):
            assert np.array_equal(
                node_model.decision_function(batch),
                array_model.decision_function(batch),
            )
            assert np.array_equal(
                node_model.predict_proba(batch), array_model.predict_proba(batch)
            )
            assert np.array_equal(
                node_model.predict(batch), array_model.predict(batch)
            )
            assert np.array_equal(
                node_model.leaf_values(batch), array_model.leaf_values(batch)
            )
            assert np.array_equal(
                node_model.leaf_indices(batch),
                forest_leaf_indices(array_model.forest_, batch),
            )

    @pytest.mark.parametrize("backend", ("node", "array"))
    def test_proba_from_leaf_values_is_predict_proba(self, backend):
        # The one-walk scoring path: probabilities rebuilt from the leaf-value
        # embedding equal the walk-and-accumulate ones bit for bit (on the
        # oracle that is an independent per-tree loop).
        X, y = random_classification_problem(4)
        model = make_model(backend, num_rounds=6).fit(X, y)
        fresh = np.random.default_rng(204).normal(size=(30, X.shape[1]))
        for batch in (X, fresh):
            assert np.array_equal(
                model.proba_from_leaf_values(model.leaf_values(batch)),
                model.predict_proba(batch),
            )

    def test_forest_tensor_from_node_trees(self):
        X, y = random_classification_problem(5)
        node_model = ReferenceBoostedClassifier(num_rounds=4).fit(X, y)
        forest = ForestTensor([TreeTensor.from_root(root) for root in flat_roots(node_model)])
        assert forest.num_trees == 4 * 3
        assert np.array_equal(
            forest.leaf_values_matrix(X), node_model.leaf_values(X)
        )
        assert np.array_equal(
            forest_leaf_indices(forest, X), node_model.leaf_indices(X)
        )

    def test_array_backend_populates_forest(self):
        # Every fit, on either split search, is one stacked forest of
        # rounds x classes trees: inference has no per-tree fallback.
        X, y = random_classification_problem(6)
        for route in ("array", "hist"):
            with _routed(route):
                model = GradientBoostedClassifier(num_rounds=2).fit(X, y)
            assert isinstance(model.forest_, ForestTensor)
            assert model.forest_.num_trees == 2 * 3
            assert (model.num_hist_passes_ > 0) == (route == "hist")
            assert model.leaf_values(X).shape == (len(X), 6)


# One value palette per column kind; ``None`` draws continuous floats.
COLUMN_PALETTES = (
    (0.0,),  # all-zero column
    (3.5,),  # constant column
    (-0.0, 0.0, 1.0),  # -0.0 beside 0.0: equal values, one rank code
    (-2.0, -1.0, 0.0, 1.0, 2.0),  # integer-valued, tie-heavy
    None,
)


@st.composite
def tie_heavy_problems(draw):
    """A small classification problem whose columns are mostly ties, plus
    hyper-parameters from the corners the hand-picked cases leave out."""
    num_rows = draw(st.integers(6, 36))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        palette = draw(st.sampled_from(COLUMN_PALETTES))
        values = (
            st.sampled_from(palette)
            if palette
            else st.floats(-4.0, 4.0, allow_nan=False, width=32)
        )
        columns.append(draw(st.lists(values, min_size=num_rows, max_size=num_rows)))
    X = np.array(columns, dtype=np.float64).T
    if draw(st.booleans()):
        X = np.vstack([X, X[: num_rows // 2]])  # duplicated rows
    num_classes = draw(st.integers(2, 4))
    labels = st.integers(0, num_classes - 1)
    y = np.array(draw(st.lists(labels, min_size=len(X), max_size=len(X))))
    kwargs = dict(
        num_classes=num_classes,
        num_rounds=draw(st.integers(1, 3)),
        max_depth=draw(st.integers(1, 3)),
        min_samples_leaf=draw(st.integers(1, 5)),
        gamma=draw(st.sampled_from((0.0, 0.05, 0.5))),
        reg_lambda=draw(st.sampled_from((0.0, 1.0))),
    )
    return X, y, kwargs


class TestGeneratedParity:
    @given(problem=tie_heavy_problems())
    @settings(max_examples=60, deadline=None)
    def test_fitted_forests_bit_identical(self, problem):
        X, y, kwargs = problem
        # reg_lambda=0 can saturate a leaf (zero hessian): both sides then
        # carry the same inf/NaN, which assert_array_equal compares as equal.
        with np.errstate(all="ignore"):
            node_model = ReferenceBoostedClassifier(**kwargs).fit(X, y)
            array_model = GradientBoostedClassifier(**kwargs).fit(X, y)
        assert_forest_is(array_model.forest_, flat_roots(node_model))
        np.testing.assert_array_equal(
            node_model.train_loss_history_, array_model.train_loss_history_
        )



@st.composite
def partition_problems(draw):
    """A design of tie-heavy and ulp-adjacent columns (the midpoint of two
    adjacent doubles rounds to the upper one about half the time), with
    gradients, hessians and class labels for it."""
    num_rows = draw(st.integers(4, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            palette = draw(st.sampled_from([p for p in COLUMN_PALETTES if p]))
        else:
            base = draw(st.floats(-4.0, 4.0, allow_nan=False))
            palette = (base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf))
        values = st.sampled_from(palette)
        columns.append(draw(st.lists(values, min_size=num_rows, max_size=num_rows)))
    X = np.array(columns, dtype=np.float64).T
    weights = st.floats(-2.0, 2.0, allow_nan=False)
    gradients = np.array(draw(st.lists(weights, min_size=num_rows, max_size=num_rows)))
    hessians = np.abs(gradients[::-1]) + 0.1
    y = np.array(draw(st.lists(st.integers(0, 2), min_size=num_rows, max_size=num_rows)))
    y[:3] = [0, 1, 2]
    config = dict(
        max_depth=draw(st.integers(1, 4)), min_samples_leaf=draw(st.integers(1, 3))
    )
    return X, gradients, hessians, y, config


def _walked_growth(route, X):
    """The ``route``'s grower with its recorded training values replaced by
    a walk of the trees it grew over ``X``."""
    if route == "node":
        grow = exact_reference.reference_tree

        def walked(config, X, gradients, hessians):
            root, _ = grow(config, X, gradients, hessians)
            return root, np.array([leaf.value for leaf in apply_nodes(root, X)])

        return mock.patch.object(exact_reference, "reference_tree", walked)
    if route == "array":
        def walked(presort, gradients, hessians, config):
            tensor, _ = grow_exact(presort, gradients, hessians, config)
            return tensor, ForestTensor([tensor]).leaf_values_matrix(X)[:, 0]

        return mock.patch("repro.ml.gbdt.grow_exact", walked)
    grow = HistTreeGrower.grow

    def walked(self, gradients, hessians):
        tensors, _ = grow(self, gradients, hessians)
        return tensors, ForestTensor(tensors).leaf_values_matrix(X)

    return mock.patch.object(HistTreeGrower, "grow", walked)


def _routed(route):
    """``route``'s split search for every product fit in the block."""
    crossover = 0 if route == "hist" else HIST_AUTO_MIN_ROWS
    return mock.patch("repro.ml.gbdt.HIST_AUTO_MIN_ROWS", crossover)


def _forest(model):
    if isinstance(model, ReferenceBoostedClassifier):
        return forest_arrays(flat_roots(model))
    return {name: getattr(model.forest_, name) for name in ForestTensor.__slots__}


class TestScoresFromThePartition:
    """The growers' recorded training values are the walked predictions, so
    a fit that reads them grows the model a fit that walks its trees grows."""

    @given(problem=partition_problems())
    @settings(max_examples=60, deadline=None)
    def test_recorded_training_values_are_predictions(self, problem):
        X, gradients, hessians, _, config = problem
        for route in ("node", "array", "hist"):
            tree = grow_tree(route, X, gradients, hessians, RegressionTreeConfig(**config))
            np.testing.assert_array_equal(tree.values, tree.predict(X), err_msg=route)

    @given(problem=partition_problems())
    @settings(max_examples=30, deadline=None)
    def test_fit_equals_a_walk_based_fit(self, problem):
        X, _, _, y, config = problem
        for route in ("node", "array", "hist"):
            with _routed(route):
                fitted = make_model(route, num_rounds=3, **config).fit(X, y)
                with _walked_growth(route, X):
                    walked = make_model(route, num_rounds=3, **config).fit(X, y)
            for name, array in _forest(fitted).items():
                np.testing.assert_array_equal(
                    array, _forest(walked)[name], err_msg=f"{route} {name}"
                )
            assert fitted.train_loss_history_ == walked.train_loss_history_
            np.testing.assert_array_equal(fitted.train_leaf_values_, walked.leaf_values(X))

    @pytest.mark.parametrize("backend", ("array", "hist"))
    def test_an_unsampled_fit_walks_no_tree(self, backend, monkeypatch):
        X, y = random_classification_problem(2)
        walks = []
        leaf_slots = ForestTensor.leaf_slots
        monkeypatch.setattr(
            ForestTensor,
            "leaf_slots",
            lambda self, rows: walks.append(len(rows)) or leaf_slots(self, rows),
        )
        with _routed(backend):
            model = GradientBoostedClassifier(num_rounds=4).fit(X, y)
        assert (model.num_hist_passes_ > 0) == (backend == "hist")
        assert walks == []

def random_stores_and_communities(seed: int):
    """Random Phase II stores plus communities (mirrors test_phase2_csr)."""
    from repro.graph.features import NodeFeatureStore
    from repro.graph.interactions import InteractionStore

    rng = random.Random(seed)
    features = NodeFeatureStore(["f0", "f1", "f2"])
    interactions = InteractionStore(num_dims=4)
    num_nodes = 26
    for node in range(num_nodes):
        if rng.random() < 0.8:
            features.set(node, [rng.randint(0, 5) + 0.5 for _ in range(3)])
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < 0.3:
                interactions.record(u, v, rng.randrange(4), rng.randint(1, 9))
    communities = []
    for index in range(14):
        size = rng.choice([1, 2, 4, 7, 10])
        members = frozenset(rng.sample(range(num_nodes + 2), size))
        tightness = {member: rng.random() for member in members}
        communities.append(
            LocalCommunity(ego=-index, members=members, tightness=tightness, index=0)
        )
    return features, interactions, communities


class TestCommunityClassifierParity:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_gbdt_community_classifier_bit_identical(self, seed):
        from repro.core.aggregation import FeatureMatrixBuilder

        features, interactions, communities = random_stores_and_communities(seed)
        labels = np.array([index % 3 for index in range(len(communities))])
        builder = FeatureMatrixBuilder(features, interactions, k=6)
        classifier = GBDTCommunityClassifier(
            builder, config=GBDTConfig(num_rounds=6)
        ).fit(communities, labels)
        probabilities = classifier.predict_proba(communities)
        vectors = classifier.result_vectors(communities)
        # The classifier's model on the same design, fitted by the oracle
        # and by the array kernels.
        design = builder.statistic_vectors(communities)
        node, array = (
            make_model(route, num_rounds=6, num_classes=3).fit(design, labels)
            for route in ("node", "array")
        )
        assert np.array_equal(node.predict_proba(design), array.predict_proba(design))
        assert np.array_equal(node.predict_proba(design), probabilities)
        # The Phase III leaf-value embedding r_C must match bit-for-bit too.
        assert np.array_equal(node.leaf_values(design), array.leaf_values(design))
        assert np.array_equal(
            node.leaf_values(design), classifier._model.leaf_values(design)
        )
        # r_C's probability block is derived from the leaf values, not from
        # a second walk, and still is predict_proba to the last bit.
        assert np.array_equal(vectors[:, :3], probabilities)

    def test_result_vectors_walk_the_forest_once(self, monkeypatch):
        """Once, and only over the rows the fit did not partition: the first
        scoring after the fit takes the training communities' vectors from
        it, and a later scoring walks everything it is asked for."""
        from repro.core.aggregation import FeatureMatrixBuilder

        features, interactions, communities = random_stores_and_communities(0)
        trained = communities[::2]
        labels = [index % 3 for index in range(len(trained))]
        classifier = GBDTCommunityClassifier(
            FeatureMatrixBuilder(features, interactions, k=6),
            config=GBDTConfig(num_rounds=4),
        ).fit(trained, labels)
        walks = []
        leaf_slots = ForestTensor.leaf_slots
        monkeypatch.setattr(
            ForestTensor,
            "leaf_slots",
            lambda self, X: walks.append(len(X)) or leaf_slots(self, X),
        )
        first = classifier.result_vectors(communities)
        assert walks == [len(communities) - len(trained)]
        again = classifier.result_vectors(communities)
        assert walks == [len(communities) - len(trained), len(communities)]
        np.testing.assert_array_equal(first, again)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_matrices_as_tensor_path_bit_identical(self, seed):
        """Direct Phase2Kernel->CNN tensor path vs the per-pair reference."""
        from repro.core.aggregation import FeatureMatrixBuilder, reference_feature_matrix

        features, interactions, communities = random_stores_and_communities(seed)
        for k in (3, 6, 20):  # truncation, the default, and heavy padding
            builder = FeatureMatrixBuilder(features, interactions, k=k)
            reference = np.array(
                [
                    reference_feature_matrix(c, features, interactions, k).matrix
                    for c in communities
                ]
            )[:, None]
            assert np.array_equal(reference, builder.matrices_as_tensor(communities))
        assert builder.matrices_as_tensor([]).shape == (0, 1, 20, 7)
