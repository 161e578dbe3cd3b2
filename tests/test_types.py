"""Tests for repro.types and repro.exceptions."""

from __future__ import annotations

import pytest

from repro import exceptions
from repro.types import (
    PRF,
    ClassificationReport,
    InteractionDim,
    LabeledEdge,
    MomentsCategory,
    RelationType,
    SecondCategory,
    canonical_edge,
)


class TestRelationType:
    def test_classification_targets_are_the_three_major_types(self):
        targets = RelationType.classification_targets()
        assert targets == (
            RelationType.FAMILY,
            RelationType.COLLEAGUE,
            RelationType.SCHOOLMATE,
        )

    def test_class_indices_are_stable(self):
        assert int(RelationType.FAMILY) == 0
        assert int(RelationType.COLLEAGUE) == 1
        assert int(RelationType.SCHOOLMATE) == 2

    def test_other_is_not_a_classification_target(self):
        assert RelationType.OTHER not in RelationType.classification_targets()

    def test_display_names_match_paper_tables(self):
        assert RelationType.FAMILY.display_name == "Family Members"
        assert RelationType.COLLEAGUE.display_name == "Colleague"
        assert RelationType.SCHOOLMATE.display_name == "Schoolmates"


class TestSecondCategory:
    def test_every_second_category_maps_to_a_first_category(self):
        for category in SecondCategory:
            assert isinstance(category.first_category, RelationType)

    def test_kin_is_family(self):
        assert SecondCategory.KIN.first_category is RelationType.FAMILY

    def test_university_is_schoolmate(self):
        assert SecondCategory.UNIVERSITY.first_category is RelationType.SCHOOLMATE

    def test_past_colleague_is_colleague(self):
        assert SecondCategory.PAST_COLLEAGUE.first_category is RelationType.COLLEAGUE


class TestInteractionDim:
    def test_count_matches_enum_size(self):
        assert InteractionDim.count() == len(InteractionDim) == 7

    def test_values_are_contiguous_indices(self):
        assert sorted(int(dim) for dim in InteractionDim) == list(range(7))


class TestMomentsCategory:
    def test_like_and_comment_dims_are_distinct(self):
        for category in MomentsCategory:
            assert category.like_dim != category.comment_dim

    def test_picture_maps_to_picture_dims(self):
        assert MomentsCategory.PICTURE.like_dim is InteractionDim.LIKE_PICTURE
        assert MomentsCategory.PICTURE.comment_dim is InteractionDim.COMMENT_PICTURE


class TestCanonicalEdge:
    def test_order_independent(self):
        assert canonical_edge(2, 1) == canonical_edge(1, 2)

    def test_is_idempotent(self):
        edge = canonical_edge(5, 3)
        assert canonical_edge(*edge) == edge

    def test_string_nodes(self):
        assert canonical_edge("b", "a") == canonical_edge("a", "b")


class TestLabeledEdge:
    def test_edge_property_is_canonical(self):
        item = LabeledEdge(5, 2, RelationType.FAMILY)
        assert item.edge == canonical_edge(2, 5)

    def test_is_hashable_and_frozen(self):
        item = LabeledEdge(1, 2, RelationType.COLLEAGUE)
        assert hash(item) is not None
        with pytest.raises(AttributeError):
            item.u = 3  # type: ignore[misc]


class TestPRF:
    def test_from_counts_perfect(self):
        prf = PRF.from_counts(tp=10, fp=0, fn=0)
        assert prf.precision == prf.recall == prf.f1 == 1.0

    def test_from_counts_zero_predictions(self):
        prf = PRF.from_counts(tp=0, fp=0, fn=5)
        assert prf.precision == 0.0
        assert prf.recall == 0.0
        assert prf.f1 == 0.0

    def test_from_counts_known_values(self):
        prf = PRF.from_counts(tp=6, fp=2, fn=6)
        assert prf.precision == pytest.approx(0.75)
        assert prf.recall == pytest.approx(0.5)
        assert prf.f1 == pytest.approx(0.6)


class TestClassificationReport:
    def test_as_rows_ordering_matches_paper(self):
        report = ClassificationReport(
            per_class={
                RelationType.FAMILY: PRF(0.9, 0.9, 0.9),
                RelationType.COLLEAGUE: PRF(0.8, 0.8, 0.8),
                RelationType.SCHOOLMATE: PRF(0.7, 0.7, 0.7),
            },
            overall=PRF(0.85, 0.85, 0.85),
        )
        names = [row[0] for row in report.as_rows()]
        assert names == ["Colleague", "Family Members", "Schoolmates", "Overall"]


class TestExceptions:
    def test_hierarchy_roots_at_repro_error(self):
        assert issubclass(exceptions.GraphError, exceptions.ReproError)
        assert issubclass(exceptions.PipelineError, exceptions.ReproError)
        assert issubclass(exceptions.DatasetError, exceptions.ReproError)

    def test_node_not_found_is_keyerror(self):
        error = exceptions.NodeNotFoundError(42)
        assert isinstance(error, KeyError)
        assert error.node == 42

    def test_not_fitted_mentions_estimator_type(self):
        class Dummy:
            pass

        error = exceptions.NotFittedError(Dummy())
        assert "Dummy" in str(error)

    def test_self_loop_error_carries_node(self):
        error = exceptions.SelfLoopError("u")
        assert error.node == "u"
