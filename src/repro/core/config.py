"""Configuration for the LoCEC pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ModelConfigError
from repro.ml.gbdt import GradientBoostedClassifier
from repro.ml.logistic import LogisticRegression


@dataclass
class CommCNNConfig:
    """Hyper-parameters of the CommCNN community classifier (Figure 8)."""

    num_filters: int = 8
    """Number of filters in each convolution branch."""

    dense_units: int = 32
    """Width of the first fully connected layer."""

    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 2e-3
    dropout: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        """Build the CommCNN classifier for a one-cell input: its layer and
        trainer constructors hold every range check on these values."""
        from repro.core.commcnn import build_commcnn_classifier

        build_commcnn_classifier(k=1, num_columns=1, num_classes=2, config=self)


@dataclass
class GBDTConfig:
    """Hyper-parameters of the XGBoost-style community classifier."""

    num_rounds: int = 40
    learning_rate: float = 0.3
    max_depth: int = 3
    min_samples_leaf: int = 2
    max_bins: int = 256
    """Histogram resolution of the histogram split search, which the fit
    takes at :data:`repro.ml.forest.HIST_AUTO_MIN_ROWS` rows and above
    (ignored by the exact search below it)."""

    def classifier(self, num_classes: int | None = None) -> GradientBoostedClassifier:
        """The boosted-tree model these hyper-parameters define."""
        return GradientBoostedClassifier(
            num_rounds=self.num_rounds,
            learning_rate=self.learning_rate,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            num_classes=num_classes,
            max_bins=self.max_bins,
        )

    def validate(self) -> None:
        """Build :meth:`classifier`: its constructor holds every range check."""
        self.classifier()


@dataclass
class ResilienceConfig:
    """Retry knobs of the sharded Phase I executor.

    Read by :class:`repro.runtime.executor.ShardedDivisionExecutor`, whose
    backoff schedule is fixed beside its retry loop
    (:func:`repro.runtime.executor.backoff_delay`).  A shard whose attempts
    run out is skipped: its egos are missing from the merged division and
    listed in ``ExecutionReport.failed_shards``.

    Attributes
    ----------
    max_attempts:
        Total tries per shard (1 = no retries).
    seed:
        Seed of the deterministic backoff jitter, drawn per
        ``(seed, shard_id, attempt)`` so schedules are reproducible.
    """

    max_attempts: int = 3
    seed: int = 0

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ModelConfigError("max_attempts must be >= 1")


@dataclass
class LoCECConfig:
    """Top-level configuration of the LoCEC pipeline (Algorithm 2).

    Attributes
    ----------
    k:
        Number of feature-matrix rows per community.  The paper's parameter
        study (Figure 10b) selects ``k = 20``.
    community_model:
        ``"cnn"`` for LoCEC-CNN (CommCNN) or ``"xgb"`` for LoCEC-XGB.
    community_detector:
        Phase I algorithm: ``"girvan_newman"`` (paper default),
        ``"label_propagation"`` or ``"louvain"`` (ablations).
    edge_lr_l2:
        L2 strength of the Phase III logistic-regression edge labeler, whose
        fit is the minimiser of its penalised objective (so it must be
        positive; see :class:`repro.ml.logistic.LogisticRegression`).
    """

    k: int = 20
    community_model: str = "cnn"
    community_detector: str = "girvan_newman"
    edge_lr_l2: float = 1e-4
    cnn: CommCNNConfig = field(default_factory=CommCNNConfig)
    gbdt: GBDTConfig = field(default_factory=GBDTConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    """Retry knobs of a write's supervised re-division; see
    :class:`ResilienceConfig`."""

    def validate(self) -> None:
        """Reject up front every value a model constructor would reject after
        Phases I-II: the model settings are checked by calling those
        constructors, which hold each check."""
        if self.k < 1:
            raise ModelConfigError("k must be >= 1")
        if self.community_model not in {"cnn", "xgb"}:
            raise ModelConfigError(
                f"community_model must be 'cnn' or 'xgb', got {self.community_model!r}"
            )
        if self.community_detector not in {
            "girvan_newman",
            "label_propagation",
            "louvain",
        }:
            raise ModelConfigError(
                "community_detector must be one of 'girvan_newman', "
                f"'label_propagation', 'louvain', got {self.community_detector!r}"
            )
        self.resilience.validate()
        LogisticRegression(l2=self.edge_lr_l2)
        self.cnn.validate()
        self.gbdt.validate()

    @property
    def runtime_options(self) -> ResilienceConfig:
        """Read-only view of :attr:`resilience`, the only runtime knobs left;
        the end-to-end benchmark records ``asdict(config.runtime_options)``."""
        return self.resilience

    @classmethod
    def locec_cnn(cls, **overrides: object) -> "LoCECConfig":
        """Convenience constructor for the LoCEC-CNN variant."""
        config = cls(community_model="cnn", **overrides)
        config.validate()
        return config

    @classmethod
    def locec_xgb(cls, **overrides: object) -> "LoCECConfig":
        """Convenience constructor for the LoCEC-XGB variant."""
        config = cls(community_model="xgb", **overrides)
        config.validate()
        return config
