"""Shared domain types for the LoCEC reproduction.

The paper classifies WeChat relationships into three *major* first-category
types (family members, colleagues, schoolmates); a fourth catch-all bucket
("others") exists in the survey but is excluded from classification.  The
survey additionally records thirteen second-category sub-types (Table I).

This module defines those label spaces, the canonical interaction dimensions
used throughout the reproduction, and small typed containers shared by the
graph substrate, the synthetic generator and the LoCEC pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Sequence

Node = Hashable
Edge = tuple[Node, Node]


class RelationType(enum.IntEnum):
    """First-category relationship types used for classification.

    The integer values double as class indices for every classifier in the
    library, so the ordering here is load-bearing: ``FAMILY`` is class 0,
    ``COLLEAGUE`` class 1 and ``SCHOOLMATE`` class 2.  ``OTHER`` exists only
    for survey bookkeeping and is never a prediction target.
    """

    FAMILY = 0
    COLLEAGUE = 1
    SCHOOLMATE = 2
    OTHER = 3

    @classmethod
    def classification_targets(cls) -> tuple["RelationType", ...]:
        """The three major types the paper classifies edges into."""
        return (cls.FAMILY, cls.COLLEAGUE, cls.SCHOOLMATE)

    @property
    def display_name(self) -> str:
        """Human-readable name matching the paper's tables."""
        return _DISPLAY_NAMES[self]


_DISPLAY_NAMES = {
    RelationType.FAMILY: "Family Members",
    RelationType.COLLEAGUE: "Colleague",
    RelationType.SCHOOLMATE: "Schoolmates",
    RelationType.OTHER: "Others",
}


class SecondCategory(enum.Enum):
    """Second-category sub-types from Table I of the paper."""

    # Family members
    NEXT_OF_KIN = "next_of_kin"
    KIN = "kin"
    IN_LAW = "in_law"
    FAMILY_UNKNOWN = "family_unknown"
    # Colleagues
    CURRENT_COLLEAGUE = "current_colleague"
    PAST_COLLEAGUE = "past_colleague"
    COLLEAGUE_UNKNOWN = "colleague_unknown"
    # Schoolmates
    PRIMARY_SCHOOL = "primary_school"
    MIDDLE_SCHOOL = "middle_school"
    UNIVERSITY = "university"
    GRADUATE_SCHOOL = "graduate_school"
    SCHOOL_UNKNOWN = "school_unknown"
    # Others
    INTEREST = "interest"
    BUSINESS = "business"
    AGENT = "agent"
    PRIVATE = "private"
    OTHER_UNKNOWN = "other_unknown"

    @property
    def first_category(self) -> RelationType:
        """Map a second-category sub-type back to its first category."""
        return _SECOND_TO_FIRST[self]


_SECOND_TO_FIRST = {
    SecondCategory.NEXT_OF_KIN: RelationType.FAMILY,
    SecondCategory.KIN: RelationType.FAMILY,
    SecondCategory.IN_LAW: RelationType.FAMILY,
    SecondCategory.FAMILY_UNKNOWN: RelationType.FAMILY,
    SecondCategory.CURRENT_COLLEAGUE: RelationType.COLLEAGUE,
    SecondCategory.PAST_COLLEAGUE: RelationType.COLLEAGUE,
    SecondCategory.COLLEAGUE_UNKNOWN: RelationType.COLLEAGUE,
    SecondCategory.PRIMARY_SCHOOL: RelationType.SCHOOLMATE,
    SecondCategory.MIDDLE_SCHOOL: RelationType.SCHOOLMATE,
    SecondCategory.UNIVERSITY: RelationType.SCHOOLMATE,
    SecondCategory.GRADUATE_SCHOOL: RelationType.SCHOOLMATE,
    SecondCategory.SCHOOL_UNKNOWN: RelationType.SCHOOLMATE,
    SecondCategory.INTEREST: RelationType.OTHER,
    SecondCategory.BUSINESS: RelationType.OTHER,
    SecondCategory.AGENT: RelationType.OTHER,
    SecondCategory.PRIVATE: RelationType.OTHER,
    SecondCategory.OTHER_UNKNOWN: RelationType.OTHER,
}


class InteractionDim(enum.IntEnum):
    """Interaction dimensions observed between user pairs.

    These mirror the behaviours the paper analyses in Section II: instant
    messaging plus liking/commenting under the three Moments post categories
    (pictures, articles, games).  The integer value is the column index of
    the dimension inside :class:`repro.graph.InteractionStore`.
    """

    MESSAGE = 0
    LIKE_PICTURE = 1
    LIKE_ARTICLE = 2
    LIKE_GAME = 3
    COMMENT_PICTURE = 4
    COMMENT_ARTICLE = 5
    COMMENT_GAME = 6

    @classmethod
    def count(cls) -> int:
        """Number of interaction dimensions (the paper's ``|I|``)."""
        return len(cls)


class MomentsCategory(enum.Enum):
    """Moments post categories analysed in Figure 3 of the paper."""

    PICTURE = "picture"
    ARTICLE = "article"
    GAME = "game"

    @property
    def like_dim(self) -> InteractionDim:
        return {
            MomentsCategory.PICTURE: InteractionDim.LIKE_PICTURE,
            MomentsCategory.ARTICLE: InteractionDim.LIKE_ARTICLE,
            MomentsCategory.GAME: InteractionDim.LIKE_GAME,
        }[self]

    @property
    def comment_dim(self) -> InteractionDim:
        return {
            MomentsCategory.PICTURE: InteractionDim.COMMENT_PICTURE,
            MomentsCategory.ARTICLE: InteractionDim.COMMENT_ARTICLE,
            MomentsCategory.GAME: InteractionDim.COMMENT_GAME,
        }[self]


node_key = repr
"""The one canonical order on node labels.

Wherever the library must *decide* an order — the endpoints of a canonical
edge, communities within an ego, egos within a division, ties between equal
scores — it sorts by this key, so every result is a function of its inputs'
value and never of insertion history, set iteration order or hash seed.
Distinct nodes must have distinct keys.
"""


def canonical_edge(u: Node, v: Node) -> Edge:
    """Return the canonical (sorted) representation of an undirected edge.

    The graph is undirected, so ``(u, v)`` and ``(v, u)`` denote the same
    relationship.  Every map keyed by edges in the library uses this
    canonical form.
    """
    return (u, v) if node_key(u) <= node_key(v) else (v, u)


def edge_key(edge: Edge) -> str:
    """Sort key of a canonical edge, spelled from its endpoints' keys."""
    return f"({node_key(edge[0])}, {node_key(edge[1])})"


@dataclass(frozen=True)
class LabeledEdge:
    """A ground-truth labeled relationship, as collected by the user survey."""

    u: Node
    v: Node
    label: RelationType
    second_category: SecondCategory | None = None

    @property
    def edge(self) -> Edge:
        return canonical_edge(self.u, self.v)


@dataclass
class ClassificationReport:
    """Per-class and overall precision/recall/F1, as in Tables IV and V."""

    per_class: dict[RelationType, "PRF"] = field(default_factory=dict)
    overall: "PRF | None" = None

    def as_rows(self) -> list[tuple[str, float, float, float]]:
        """Rows in the paper's table order: colleague, family, schoolmate, overall."""
        order = (
            RelationType.COLLEAGUE,
            RelationType.FAMILY,
            RelationType.SCHOOLMATE,
        )
        rows = [
            (
                label.display_name,
                self.per_class[label].precision,
                self.per_class[label].recall,
                self.per_class[label].f1,
            )
            for label in order
            if label in self.per_class
        ]
        if self.overall is not None:
            rows.append(
                ("Overall", self.overall.precision, self.overall.recall, self.overall.f1)
            )
        return rows


@dataclass(frozen=True)
class PRF:
    """A (precision, recall, F1) triple."""

    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "PRF":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        return cls(precision=precision, recall=recall, f1=f1)


DEFAULT_FEATURE_NAMES: Sequence[str] = (
    "gender",
    "age_bucket",
    "tenure_years",
    "activity_level",
)
"""Default individual (profile) feature names used by the synthetic generator."""
