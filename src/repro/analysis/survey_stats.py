"""Survey statistics (Table I)."""

from __future__ import annotations

from repro.synthetic.survey import SurveyResult
from repro.types import RelationType


def table1_rows(survey: SurveyResult) -> list[tuple[str, float, str, float]]:
    """Rows of Table I: (first category, ratio, second category, ratio).

    Second categories with zero observations are omitted; the "Unknown"
    second-category bucket per first category collects the edges whose second
    category was left unspecified.
    """
    first = survey.first_category_ratios()
    second = survey.second_category_ratios()

    # Unspecified second categories per first category.
    unknown: dict[RelationType, int] = {relation: 0 for relation in RelationType}
    for item in survey.labeled_edges:
        if item.second_category is None:
            unknown[item.label] += 1
    total = max(survey.num_labeled, 1)

    rows: list[tuple[str, float, str, float]] = []
    for relation in (
        RelationType.FAMILY,
        RelationType.COLLEAGUE,
        RelationType.SCHOOLMATE,
        RelationType.OTHER,
    ):
        first_ratio = first.get(relation, 0.0)
        second_rows: list[tuple[str, float]] = []
        for category, ratio in sorted(second.items(), key=lambda kv: -kv[1]):
            if category.first_category == relation:
                second_rows.append((category.value, ratio))
        second_rows.append(("unknown", unknown[relation] / total))
        for name, ratio in second_rows:
            rows.append((relation.display_name, first_ratio, name, ratio))
    return rows


def major_type_share(survey: SurveyResult) -> float:
    """Share of labeled edges covered by the three major types (paper: 84 %)."""
    first = survey.first_category_ratios()
    return sum(
        first.get(relation, 0.0) for relation in RelationType.classification_targets()
    )
