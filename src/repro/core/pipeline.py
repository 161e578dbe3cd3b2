"""The LoCEC pipeline (Algorithm 2): division → aggregation → combination.

:class:`LoCEC` orchestrates the three phases end to end:

1. **Division** — ego networks + local community detection for every ego.
2. **Aggregation** — community feature construction (Algorithm 1) and
   community classification (CommCNN or GBDT), yielding ``r_C`` per community.
3. **Combination** — Equation 4 edge features + logistic-regression edge
   labeling.

Typical usage::

    pipeline = LoCEC(LoCECConfig.locec_cnn())
    pipeline.fit(graph, features, interactions, train_edges)
    report = pipeline.evaluate(test_edges)
    result = pipeline.classify_network()          # Figure 13-style output

A fitted pipeline also serves *online*: :meth:`LoCEC.apply_updates` folds a
batch of graph/store deltas into the fitted state incrementally (re-dividing
only the egos whose ego networks changed and re-scoring only the dirty
communities), and :class:`repro.serve.ServingSession` wraps the pipeline in a
request layer with batched prediction and latency accounting.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.clock import Clock, SystemClock
from repro.core.aggregation import FeatureMatrixBuilder
from repro.core.combination import (
    AgreementEdgeLabeler,
    CommunityKey,
    EdgeFeatureBuilder,
    EdgeLabeler,
    community_key,
)
from repro.core.community_classifier import (
    CNNCommunityClassifier,
    CommunityClassifier,
    GBDTCommunityClassifier,
)
from repro.core.config import LoCECConfig
from repro.core.division import DivisionResult, LocalCommunity, divide
from repro.core.labels import CommunityVotes, EdgeLabelIndex, labeled_communities
from repro.core.results import (
    CommunityClassification,
    EdgeClassification,
    LoCECResult,
)
from repro.exceptions import (
    DimensionMismatchError,
    EdgeNotFoundError,
    FeatureError,
    NotFittedError,
    PipelineError,
    SelfLoopError,
)
from repro.graph.features import NodeFeatureStore
from repro.graph.graph import Graph
from repro.graph.interactions import InteractionStore
from repro.ml.metrics import classification_report
from repro.types import (
    ClassificationReport,
    Edge,
    LabeledEdge,
    Node,
    RelationType,
    canonical_edge,
    node_key,
)


@dataclass
class PhaseTimings:
    """Wall-clock seconds per phase of one :meth:`LoCEC.fit` or
    :meth:`LoCEC.apply_updates` call.

    ``training`` is the community-classifier fit (0 on an update that kept
    the model warm); ``aggregation`` is the rest of Phase II — training-set
    derivation, store deltas and community scoring; ``combination`` is the
    Phase III labeler.
    """

    division: float = 0.0
    aggregation: float = 0.0
    combination: float = 0.0
    training: float = 0.0

    @property
    def total(self) -> float:
        return self.division + self.aggregation + self.combination + self.training

    def as_dict(self) -> dict[str, float]:
        return {
            "training": self.training,
            "phase1_division": self.division,
            "phase2_aggregation": self.aggregation,
            "phase3_combination": self.combination,
            "total": self.total,
        }


@dataclass
class FitSummary:
    """Bookkeeping produced by :meth:`LoCEC.fit` (sizes and timings)."""

    num_egos: int = 0
    num_communities: int = 0
    num_labeled_communities: int = 0
    num_training_edges: int = 0
    timings: PhaseTimings = field(default_factory=PhaseTimings)


@dataclass
class UpdateReport:
    """Bookkeeping produced by :meth:`LoCEC.apply_updates`.

    ``kernel_patched`` is ``True`` when every store delta was folded into
    the compiled Phase II kernel in place (delta compilation) — ``False``
    means a structural delta forced a full recompile on next use.
    ``labeler_refit`` is ``True`` when the Phase III model was trained again
    — ``False`` means the update left its Equation 4 design matrix equal, so
    the fitted model is already the one a from-scratch fit would produce.
    """

    num_added_edges: int = 0
    num_removed_edges: int = 0
    num_interaction_deltas: int = 0
    num_feature_updates: int = 0
    num_dirty_egos: int = 0
    num_rescored_communities: int = 0
    classifier_refit: bool = False
    labeler_refit: bool = False
    kernel_patched: bool = True
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    stale_egos: tuple[Node, ...] = ()
    """Always ``()``: a write lands whole or raises.  Kept because the
    end-to-end benchmark reads it on every write; the change that next
    edits the benchmark drops the read, and this field with it."""


def _checked_vector(values: Sequence[float], length: int, where: str) -> np.ndarray:
    """``values`` as a finite float vector of ``length``, or a typed error."""
    vector = np.asarray(values, dtype=np.float64)
    if vector.shape != (length,):
        raise DimensionMismatchError(
            f"{where}: expected vector of shape ({length},), got {vector.shape}"
        )
    if not np.isfinite(vector).all():
        raise FeatureError(f"{where}: values must be finite")
    return vector


class LoCEC:
    """Local Community-based Edge Classification pipeline.

    Parameters
    ----------
    config:
        Pipeline configuration; :meth:`LoCECConfig.locec_cnn` and
        :meth:`LoCECConfig.locec_xgb` build the two published variants.
    """

    def __init__(
        self, config: LoCECConfig | None = None, clock: Clock | None = None
    ) -> None:
        self.config = config or LoCECConfig()
        self.config.validate()
        # Phase timings route through the injectable clock so the zero-sleep
        # test tier can drive fit() under virtual time.
        self._clock = clock or SystemClock()
        self.division_: DivisionResult | None = None
        self.community_classifier_: CommunityClassifier | None = None
        self.edge_labeler_: EdgeLabeler | None = None
        self.feature_builder_: FeatureMatrixBuilder | None = None
        self.edge_feature_builder_: EdgeFeatureBuilder | None = None
        self.fit_summary_: FitSummary | None = None
        self._graph: Graph | None = None
        self._num_classes = len(RelationType.classification_targets())
        # Fitted-state snapshot consumed by apply_updates (incremental path).
        self._features: NodeFeatureStore | None = None
        self._interactions: InteractionStore | None = None
        self._label_index = EdgeLabelIndex()
        self._votes = CommunityVotes()
        self._train_communities: list[LocalCommunity] = []
        self._train_labels: list[int] = []
        self._train_keys: set[CommunityKey] = set()
        self._update_epoch = 0

    # ---------------------------------------------------------------- training
    def fit(
        self,
        graph: Graph,
        features: NodeFeatureStore,
        interactions: InteractionStore,
        labeled_edges: Sequence[LabeledEdge],
        egos: Iterable[Node] | None = None,
        division: DivisionResult | None = None,
    ) -> "LoCEC":
        """Run Algorithm 2's training side.

        Parameters
        ----------
        graph, features, interactions:
            The network ``G``, user feature matrix ``F`` and interaction
            matrices ``I``.
        labeled_edges:
            The survey ground truth ``E_labeled`` used to train the community
            classifier and the edge labeler.
        egos:
            Optional subset of nodes to process in Phase I (default: all).
        division:
            Optional pre-computed Phase I result.  Passing one lets
            experiments that sweep Phase II/III parameters reuse the expensive
            community detection; it must cover every ego needed downstream.
        """
        if not labeled_edges:
            raise PipelineError("LoCEC.fit requires at least one labeled edge")
        self._graph = graph
        self._features = features
        self._interactions = interactions
        self._label_index = EdgeLabelIndex(labeled_edges)
        self._votes = CommunityVotes()
        summary = FitSummary(num_training_edges=len(labeled_edges))
        timings = summary.timings

        with self._timed(timings, "division"):
            if division is None:
                division = divide(
                    graph, egos=egos, detector=self.config.community_detector
                )
            self.division_ = division
        summary.num_egos = division.num_egos
        summary.num_communities = division.num_communities

        with self._timed(timings, "aggregation"):
            self.feature_builder_ = FeatureMatrixBuilder(
                features=features, interactions=interactions, k=self.config.k
            )
            self.feature_builder_.follow(division)
            train_communities, train_labels = self._derive_training_set(
                "no local community has a derivable ground-truth label; "
                "check that labeled edges overlap the processed egos"
            )
        summary.num_labeled_communities = len(train_communities)
        with self._timed(timings, "training"):
            self._fit_community_classifier(train_communities, train_labels)
        with self._timed(timings, "aggregation"):
            communities = list(division.all_communities())
            vectors = self._score_communities(communities)
        with self._timed(timings, "combination"):
            self.edge_feature_builder_ = EdgeFeatureBuilder(
                division=division,
                result_vectors=dict(zip(map(community_key, communities), vectors)),
                result_vector_length=self.community_classifier_.result_vector_length,
            )
            self.edge_labeler_ = self._build_edge_labeler()
            self.edge_labeler_.fit(
                [item.edge for item in labeled_edges], [int(item.label) for item in labeled_edges]
            )

        self.fit_summary_ = summary
        return self

    # ------------------------------------- Algorithm 2's stages, written once
    @contextmanager
    def _timed(self, timings: PhaseTimings, phase: str) -> Iterator[None]:
        """Add the wall-clock of the enclosed block to ``timings.<phase>``."""
        start = self._clock.perf_counter()
        yield
        elapsed = self._clock.perf_counter() - start
        setattr(timings, phase, getattr(timings, phase) + elapsed)

    def _derive_training_set(
        self, empty_message: str
    ) -> tuple[list[LocalCommunity], list[int]]:
        """Communities of the current division with a derivable label, in
        :meth:`DivisionResult.all_communities` order — ``(node_key(ego),
        index)`` — so the training rows are a function of the inputs' value.
        Only egos whose community list a write replaced are voted again."""
        communities, labels = labeled_communities(
            self.division_, self._label_index, min_labeled_members=1, votes=self._votes
        )
        if not communities:
            raise PipelineError(empty_message)
        return communities, labels

    def _fit_community_classifier(
        self, train_communities: list[LocalCommunity], train_labels: list[int]
    ) -> None:
        """Build and fit a fresh community classifier; remember what it saw
        (``apply_updates`` refits only when that training set changes)."""
        self._train_communities = train_communities
        self._train_labels = train_labels
        self._train_keys = {community_key(c) for c in train_communities}
        self.community_classifier_ = self._build_community_classifier()
        self.community_classifier_.fit(train_communities, train_labels)

    def _build_community_classifier(self) -> CommunityClassifier:
        assert self.feature_builder_ is not None
        if self.config.community_model == "cnn":
            return CNNCommunityClassifier(
                self.feature_builder_,
                num_classes=self._num_classes,
                config=self.config.cnn,
            )
        return GBDTCommunityClassifier(
            self.feature_builder_,
            num_classes=self._num_classes,
            config=self.config.gbdt,
        )

    def _score_communities(self, communities: Sequence[LocalCommunity]) -> np.ndarray:
        """Result vector ``r_C`` of each community, one row each."""
        if not communities:
            return np.zeros((0, self.community_classifier_.result_vector_length))
        return self.community_classifier_.result_vectors(communities)

    def _build_edge_labeler(self) -> EdgeLabeler:
        return EdgeLabeler(
            self.edge_feature_builder_,
            num_classes=self._num_classes,
            l2=self.config.edge_lr_l2,
        )

    def _refit_edge_labeler(self, dirty_egos: set[Node] | None) -> bool:
        """Re-fit the Phase III labeler on its kept labeled edges after an
        update; return whether its model was trained.  The labeler's feature
        builder was mutated in place; :meth:`EdgeLabeler.fit` rebuilds the
        design rows of the edges incident to ``dirty_egos`` (every row when
        ``None``) and keeps the model when they equal the fitted ones."""
        fits_before = self.edge_labeler_.num_model_fits
        self.edge_labeler_.fit(dirty_egos=dirty_egos)
        return self.edge_labeler_.num_model_fits != fits_before

    # ----------------------------------------------------- incremental serving
    @property
    def graph(self) -> Graph | None:
        """The fitted friendship graph (mutated in place by updates)."""
        return self._graph

    @property
    def update_epoch(self) -> int:
        """Number of :meth:`apply_updates` calls folded into the fitted state."""
        return self._update_epoch

    def apply_updates(
        self,
        added_edges: Sequence[Edge] = (),
        removed_edges: Sequence[Edge] = (),
        interaction_deltas: Sequence[tuple[Node, Node, Sequence[float]]] = (),
        feature_updates: Sequence[tuple[Node, Sequence[float]]] = (),
    ) -> UpdateReport:
        """Fold a batch of graph/store deltas into the fitted state.

        The incremental counterpart of :meth:`fit`: instead of re-running
        Algorithm 2 from scratch, only the state actually touched by the
        deltas is recomputed, and the result is **bit-identical** to a
        from-scratch ``fit`` on the updated inputs.

        1. ``added_edges`` / ``removed_edges`` mutate the friendship graph.
           A changed edge ``(a, b)`` dirties exactly the egos whose ego
           network contains it: ``{a, b} ∪ (N(a) ∩ N(b))``.  Only those are
           re-divided, in one lockstep :func:`~repro.core.division.divide`
           call on their neighbourhood subgraph.  If that call raises, the
           graph edits are undone and the error propagates: nothing else has
           changed by then, so the pipeline is exactly as it was.
        2. ``interaction_deltas`` — ``(u, v, delta)`` triples added onto the
           stored interaction vector — and ``feature_updates`` —
           ``(node, values)`` replacements — are written to the live stores
           and *delta-compiled* into the Phase II kernel in place where
           possible (:meth:`FeatureMatrixBuilder.patch_kernel`).
        3. Fitted models stay warm: the community classifier is refit only
           when a delta touched its training set, and otherwise only dirty
           communities are re-scored, for either model: CommCNN scores in
           fixed-shape blocks, so a community's ``r_C`` does not depend on
           which communities share its batch.  The
           Phase III edge labeler is retrained only when its Equation 4
           design matrix moved (:attr:`UpdateReport.labeler_refit`): an
           update that changed no ego's communities and re-scored nothing
           cannot have moved it.  A labeled edge ``(u, v)`` reads only the
           community of ``v``'s ego holding ``u``, the community of ``u``'s
           ego holding ``v`` and their ``r_C``, so its row can have moved
           only if ``u`` or ``v`` is a changed ego or the ego of a
           re-scored community.  Exactly those rows are rebuilt (every row
           after a classifier refit, which re-scores every community) and
           compared by value with the kept ones; rows that differ are
           written into the design and the model is trained on all of it.
           Training is a deterministic function of that matrix and the
           fixed labels, so the kept model is the one a from-scratch fit
           produces.

        The whole batch is validated before the first mutation, so bad
        input leaves the pipeline exactly as it was and raises the typed
        error naming the offending delta: a self-loop in ``added_edges``
        (:class:`SelfLoopError`), an edge in ``removed_edges`` that is absent
        or listed twice (:class:`EdgeNotFoundError`), a wrong-length vector
        (:class:`DimensionMismatchError`), a non-finite one or a delta that
        would drive a stored count negative (:class:`FeatureError`).
        Re-adding an existing edge is legal.  Two failures can still come
        *after* the re-division: a refit that diverges
        (:class:`TrainingDivergedError`) and an update that removed every
        labeled community (:class:`PipelineError`).  Either one raises after
        the graph, the stores and the division were already changed, so the
        pipeline is left half-updated: nothing rolls those writes back, and
        the models no longer match the inputs.  Refit with :meth:`fit`
        before serving from it again.
        """
        self._require_fitted()
        interaction_writes, feature_writes = self._validate_updates(
            added_edges, removed_edges, interaction_deltas, feature_updates
        )
        report = UpdateReport(
            num_added_edges=len(added_edges),
            num_removed_edges=len(removed_edges),
            num_interaction_deltas=len(interaction_deltas),
            num_feature_updates=len(feature_updates),
        )
        timings = report.timings

        with self._timed(timings, "division"), self._graph_deltas(
            added_edges, removed_edges
        ) as dirty_egos:
            rescore_keys, changed_egos = self._redivide(dirty_egos)
        report.num_dirty_egos = len(dirty_egos)
        with self._timed(timings, "aggregation"):
            report.kernel_patched, dirty_keys = self._apply_store_deltas(
                interaction_writes, feature_writes
            )
            rescore_keys |= dirty_keys
            # The training set is a function of the division and the fixed
            # labeled edges: only a changed community list can move it.
            train_set = kept_set = (self._train_communities, self._train_labels)
            if changed_egos:
                train_set = self._derive_training_set(
                    "update removed every labeled community; refit from scratch"
                )
            report.classifier_refit = (
                train_set != kept_set or not rescore_keys.isdisjoint(self._train_keys)
            )
        if report.classifier_refit:
            with self._timed(timings, "training"):
                self._fit_community_classifier(*train_set)
        with self._timed(timings, "aggregation"):
            report.num_rescored_communities = self._rescore(
                rescore_keys, changed_egos, report.classifier_refit
            )
        # Equation 4 reads the division and the result vectors, nothing else:
        # only rows at an ego whose communities or scores changed can move.
        if changed_egos or report.num_rescored_communities:
            dirty = changed_egos.union(ego for ego, _ in rescore_keys)
            with self._timed(timings, "combination"):
                report.labeler_refit = self._refit_edge_labeler(
                    None if report.classifier_refit else dirty
                )

        self._update_epoch += 1
        return report

    def _validate_updates(
        self,
        added_edges: Sequence[Edge],
        removed_edges: Sequence[Edge],
        interaction_deltas: Sequence[tuple[Node, Node, Sequence[float]]],
        feature_updates: Sequence[tuple[Node, Sequence[float]]],
    ) -> tuple[list[tuple[Node, Node, np.ndarray]], list[tuple[Node, np.ndarray]]]:
        """Check a whole update batch against the fitted state; mutate nothing.

        Raises what the first offending delta would have raised mid-update,
        and returns the store writes to commit: the interaction vector each
        delta leaves behind (deltas on one edge accumulate in batch order)
        and each feature vector as an array.
        """
        for u, v in added_edges:
            if u == v:
                raise SelfLoopError(u)
        # Adds are applied before removes, so an edge added by this batch may
        # also be removed by it — once.
        present = {canonical_edge(u, v) for u, v in added_edges}
        removed: set[Edge] = set()
        for u, v in removed_edges:
            edge = canonical_edge(u, v)
            if edge in removed or not (self._graph.has_edge(u, v) or edge in present):
                raise EdgeNotFoundError(u, v)
            removed.add(edge)
        staged: dict[Edge, np.ndarray] = {}
        interaction_writes = []
        for position, (u, v, delta) in enumerate(interaction_deltas):
            where = f"interaction_deltas[{position}] on edge ({u!r}, {v!r})"
            edge = canonical_edge(u, v)
            stored = staged[edge] if edge in staged else self._interactions.vector(u, v)
            staged[edge] = stored + _checked_vector(
                delta, self._interactions.num_dims, where
            )
            if np.any(staged[edge] < 0):
                raise FeatureError(f"{where} would drive a stored count negative")
            interaction_writes.append((u, v, staged[edge]))
        width = self._features.num_features
        feature_writes = [
            (node, _checked_vector(values, width, f"feature_updates[{at}] on node {node!r}"))
            for at, (node, values) in enumerate(feature_updates)
        ]
        return interaction_writes, feature_writes

    @contextmanager
    def _graph_deltas(
        self, added_edges: Sequence[Edge], removed_edges: Sequence[Edge]
    ) -> Iterator[list[Node]]:
        """Mutate the graph; yield the egos to re-divide, in canonical order.

        A changed edge ``(a, b)`` dirties ``{a, b} ∪ (N(a) ∩ N(b))``.  Egos
        outside the fitted division (subset fits) stay un-divided; nodes
        introduced by this update always become egos.  If the block raises,
        every touched edge is put back as it was and the new nodes go.
        """
        graph, fitted_egos = self._graph, self.division_.communities_by_ego
        new_nodes = {node for edge in added_edges for node in edge if node not in graph}
        touched = [*added_edges, *removed_edges]
        present = {canonical_edge(u, v): graph.has_edge(u, v) for u, v in touched}
        for u, v in added_edges:
            graph.add_edge(u, v)
        for u, v in removed_edges:
            graph.remove_edge(u, v)
        dirty_egos: set[Node] = set()
        for u, v in touched:
            dirty_egos.update((u, v), graph.neighbors(u) & graph.neighbors(v))
        try:
            yield sorted(
                (ego for ego in dirty_egos if ego in fitted_egos or ego in new_nodes),
                key=node_key,
            )
        except BaseException:
            for edge, was_present in present.items():
                if graph.has_edge(*edge) != was_present:
                    (graph.add_edge if was_present else graph.remove_edge)(*edge)
            for node in new_nodes:
                graph.remove_node(node)
            raise

    def _redivide(self, dirty_egos: list[Node]) -> tuple[set[CommunityKey], set[Node]]:
        """Re-divide the dirty egos in one lockstep ``divide`` call and fold
        them into the division.

        Returns the keys of the new communities (to score) and the egos whose
        community list changed (their old scores go).  The division is only
        written after ``divide`` returned, so an error leaves it untouched.
        """
        if not dirty_egos:
            return set(), set()
        # An ego's division reads only its ego network, and equal graphs
        # divide equally: divide the dirty egos' neighbourhoods, not the
        # whole network.
        redivided = divide(
            self._graph.neighborhood_subgraph(dirty_egos),
            egos=dirty_egos,
            detector=self.config.community_detector,
        ).communities_by_ego
        division = self.division_
        rescore_keys: set[CommunityKey] = set()
        changed_egos: set[Node] = set()
        for ego in dirty_egos:
            # Identical communities (e.g. an idempotent edge re-add) keep the
            # old objects and their stored scores: rescoring identical inputs
            # would only write back identical values.
            if redivided[ego] != division.communities_by_ego.get(ego):
                division.communities_by_ego[ego] = redivided[ego]
                changed_egos.add(ego)
                rescore_keys.update(community_key(c) for c in redivided[ego])
        return rescore_keys, changed_egos

    def _apply_store_deltas(
        self,
        interaction_writes: list[tuple[Node, Node, np.ndarray]],
        feature_writes: list[tuple[Node, np.ndarray]],
    ) -> tuple[bool, set[CommunityKey]]:
        """Commit the validated store writes and patch the compiled kernel.

        Returns whether the kernel took every write in place
        (:attr:`UpdateReport.kernel_patched`) and the keys of the communities
        whose matrix changed.  A community's matrix depends only on its
        members' pairwise interactions and per-member features (the ego is
        not a member), so an interaction delta on (u, v) dirties exactly the
        communities of egos in N(u) ∩ N(v) containing both endpoints — and a
        feature update on n, the degenerate pair (n, n), the communities of
        N(n) containing n.  Their kept statistic rows are recomputed here.
        """
        graph = self._graph
        for u, v, vector in interaction_writes:
            self._interactions.set_vector(u, v, vector)
        for node, values in feature_writes:
            self._features.set(node, values)
        touched_edges = [(u, v) for u, v, _ in interaction_writes]
        touched_nodes = [node for node, _ in feature_writes]
        kernel_patched = self.feature_builder_.patch_kernel(
            feature_nodes=touched_nodes, interaction_edges=touched_edges
        )
        dirty: dict[CommunityKey, LocalCommunity] = {}
        for u, v in touched_edges + [(node, node) for node in touched_nodes]:
            if u not in graph or v not in graph:
                continue
            for ego in graph.neighbors(u) & graph.neighbors(v):
                for community in self.division_.communities_of(ego):
                    if u in community and v in community:
                        dirty[community_key(community)] = community
        self.feature_builder_.refresh_rows(list(dirty.values()))
        return kernel_patched, set(dirty)

    def _rescore(
        self,
        rescore_keys: set[CommunityKey],
        changed_egos: set[Node],
        classifier_refit: bool,
    ) -> int:
        """Refresh the stored result vectors; return how many were scored.

        A refit classifier re-scores every community; a warm one scores only
        the dirty ones.  Both community models score a row independently of
        the rows scored beside it — GBDT per row, CommCNN in fixed-shape
        blocks (:meth:`NeuralNetworkClassifier.predict_proba`) — so a
        subset's vectors equal the ones a from-scratch fit stores.  The
        Phase III edge index takes them at the cost of what they dirtied
        (:meth:`EdgeFeatureBuilder.refresh`).
        """
        division = self.division_
        if classifier_refit:
            communities = list(division.all_communities())
        else:
            communities = [
                community
                for ego in sorted({ego for ego, _ in rescore_keys}, key=node_key)
                for community in division.communities_of(ego)
                if community_key(community) in rescore_keys
            ]
            if not (communities or changed_egos):
                return 0
        self.edge_feature_builder_.refresh(
            [community_key(community) for community in communities],
            self._score_communities(communities),
            changed_egos,
            rescored_all=classifier_refit,
        )
        return len(communities)

    # --------------------------------------------------------------- inference
    def predict_edges(self, edges: Sequence[Edge]) -> list[RelationType]:
        """Predicted :class:`RelationType` for each edge, in input order.

        The whole batch is featurized (Equation 4) and scored through the
        Phase III logistic regression in one pass.  Edges whose endpoints
        share no classified community fall back to the zero feature vector
        rather than failing.  For a long-lived serving loop — latency
        accounting, incremental updates between batches — wrap the
        pipeline in :class:`repro.serve.ServingSession` and fold graph
        changes in with :meth:`apply_updates`.
        """
        self._require_fitted()
        assert self.edge_labeler_ is not None
        return self.edge_labeler_.predict_types(list(edges))

    def predict_edge_proba(self, edges: Sequence[Edge]) -> np.ndarray:
        """Class-probability matrix for a batch of edges.

        Row ``i`` holds the per-class probabilities of ``edges[i]`` (columns
        follow ``RelationType.classification_targets()`` order); an empty
        batch yields a ``(0, num_classes)`` matrix.  Same fallback
        semantics as :meth:`predict_edges`.
        """
        self._require_fitted()
        assert self.edge_labeler_ is not None
        return self.edge_labeler_.predict_proba(list(edges))

    def predict_edge(self, u: Node, v: Node) -> RelationType:
        """Predicted relationship type of a single edge."""
        return self.predict_edges([(u, v)])[0]

    def evaluate(self, labeled_edges: Sequence[LabeledEdge]) -> ClassificationReport:
        """Per-class precision/recall/F1 report on held-out labeled edges."""
        self._require_fitted()
        edges = [item.edge for item in labeled_edges]
        y_true = np.array([int(item.label) for item in labeled_edges])
        y_pred = np.array([int(label) for label in self.predict_edges(edges)])
        return classification_report(y_true, y_pred)

    # ----------------------------------------------------- network-level output
    def classify_communities(self) -> list[CommunityClassification]:
        """Predicted type of every local community found in Phase I."""
        self._require_fitted()
        assert self.division_ is not None and self.community_classifier_ is not None
        communities = list(self.division_.all_communities())
        if not communities:
            return []
        probabilities = self.community_classifier_.predict_proba(communities)
        classifications: list[CommunityClassification] = []
        for index, community in enumerate(communities):
            row = probabilities[index]
            classifications.append(
                CommunityClassification(
                    ego=community.ego,
                    index=community.index,
                    size=community.size,
                    label=RelationType(int(np.argmax(row))),
                    probabilities=tuple(float(x) for x in row),
                )
            )
        return classifications

    def classify_network(self, edges: Iterable[Edge] | None = None) -> LoCECResult:
        """Classify every community and every edge of the fitted graph.

        This is the "apply to the whole WeChat network" step whose output
        distribution the paper reports in Figure 13.
        """
        self._require_fitted()
        assert self._graph is not None
        edge_list = list(edges) if edges is not None else list(self._graph.edges())
        probabilities = self.predict_edge_proba(edge_list)
        edge_classifications = [
            EdgeClassification(
                edge=edge,
                label=RelationType(int(np.argmax(probabilities[index]))),
                probabilities=tuple(float(x) for x in probabilities[index]),
            )
            for index, edge in enumerate(edge_list)
        ]
        return LoCECResult(
            community_classifications=self.classify_communities(),
            edge_classifications=edge_classifications,
        )

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Public lifecycle hook; idempotent, and the pipeline stays usable.

        Releases nothing, by design: ``fit`` divides in-process (a pool
        route lost under the end-to-end benchmark, README "Why ``fit``
        divides serially"), and Phase II and a write's re-division run
        in-process too.  Callers (``with LoCEC(...)``,
        the benchmark harness) rely on the form.
        """

    def __enter__(self) -> "LoCEC":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------------- ablations
    def agreement_rule_predictions(self, edges: Sequence[Edge]) -> np.ndarray:
        """Predictions of the naive "agree-else-argmax" Phase III ablation."""
        self._require_fitted()
        assert self.edge_feature_builder_ is not None
        labeler = AgreementEdgeLabeler(self.edge_feature_builder_, self._num_classes)
        return labeler.predict(list(edges))

    def _require_fitted(self) -> None:
        if self.edge_labeler_ is None:
            raise NotFittedError(self)
