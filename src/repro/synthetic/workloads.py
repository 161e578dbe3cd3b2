"""Canned experiment workloads built on the synthetic generator.

Every paper experiment starts from the same kind of object: a network plus a
set of labeled edges split into train/test.  :class:`ExperimentWorkload`
bundles that, caches the expensive Phase I division result so parameter
sweeps (Figure 10b, Figure 11) do not re-run Girvan–Newman per setting, and
provides the "percentage of labeled edges" sub-sampling used by Figure 11.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.division import DivisionResult, divide
from repro.core.labels import split_labeled_edges
from repro.synthetic.config import WeChatConfig
from repro.synthetic.network import SocialNetworkDataset, generate_network
from repro.synthetic.survey import SurveyResult, run_survey
from repro.types import LabeledEdge


@dataclass
class ExperimentWorkload:
    """A dataset + survey + train/test split ready for the experiments."""

    dataset: SocialNetworkDataset
    survey: SurveyResult
    train_edges: list[LabeledEdge]
    test_edges: list[LabeledEdge]
    seed: int = 0
    _division_cache: dict[str, DivisionResult] = field(default_factory=dict, repr=False)

    @property
    def labeled_edges(self) -> list[LabeledEdge]:
        return self.train_edges + self.test_edges

    @property
    def labeled_fraction(self) -> float:
        """Fraction of all network edges that carry a survey label."""
        if self.dataset.num_edges == 0:
            return 0.0
        return len(self.labeled_edges) / self.dataset.num_edges

    def division(self, detector: str = "girvan_newman") -> DivisionResult:
        """Phase I result for the full network, cached per detector."""
        if detector not in self._division_cache:
            self._division_cache[detector] = divide(self.dataset.graph, detector=detector)
        return self._division_cache[detector]

    def subsample_train(
        self, label_fraction: float, seed: int | None = None
    ) -> list[LabeledEdge]:
        """Keep only ``label_fraction`` of the training labels (Figure 11 sweep)."""
        if not 0.0 < label_fraction <= 1.0:
            raise ValueError("label_fraction must be in (0, 1]")
        if label_fraction >= 1.0:
            return list(self.train_edges)
        rng = random.Random(self.seed if seed is None else seed)
        keep = max(1, int(round(len(self.train_edges) * label_fraction)))
        return rng.sample(self.train_edges, keep)


def make_workload(
    scale: str = "small",
    seed: int = 0,
    train_fraction: float = 0.8,
    major_types_only: bool = True,
) -> ExperimentWorkload:
    """Build a ready-to-use experiment workload.

    Parameters
    ----------
    scale:
        ``"tiny"`` (unit tests), ``"small"`` (~300 users), ``"medium"``
        (~1,200 users, the default experiment size) or ``"large"``.
    seed:
        Master seed (generator + survey + splits).
    train_fraction:
        Fraction of labeled edges used for training (paper: 80 %).
    major_types_only:
        Restrict labels to family/colleague/schoolmate (the paper's focus).
    """
    config = _config_for_scale(scale, seed)
    dataset = generate_network(config)
    survey = run_survey(dataset, config)
    labeled = survey.major_type_edges() if major_types_only else survey.labeled_edges
    train, test = split_labeled_edges(labeled, train_fraction=train_fraction, seed=seed)
    return ExperimentWorkload(
        dataset=dataset, survey=survey, train_edges=train, test_edges=test, seed=seed
    )


def _config_for_scale(scale: str, seed: int) -> WeChatConfig:
    scale = scale.lower()
    if scale == "tiny":
        config = WeChatConfig(num_users=120, seed=seed)
    elif scale == "small":
        config = WeChatConfig.small(seed)
    elif scale == "medium":
        config = WeChatConfig.medium(seed)
    elif scale == "large":
        config = WeChatConfig.large(seed)
    else:
        raise ValueError(f"unknown scale {scale!r}; use tiny/small/medium/large")
    return config
