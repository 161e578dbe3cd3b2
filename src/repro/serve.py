"""Online serving layer for a fitted LoCEC pipeline.

The paper's production system classifies WeChat edges *continuously*; this
module is the request-side counterpart of :meth:`repro.core.LoCEC.fit`:

* :class:`ServingSession` — wraps a fitted pipeline in a long-lived session
  with batched :meth:`~ServingSession.predict_edges`, an LRU result cache
  keyed on the Phase II store versions (so any update — through the session
  or out of band — invalidates exactly the stale entries), and streaming
  latency accounting.
* :class:`StreamingMoments` — a Welford-style mean/variance accumulator used
  for latency percentiles without retaining per-request samples.
* :func:`replay_traffic` — a deterministic replay driver firing synthetic
  edge-update + query traffic (deltas drawn via
  :func:`repro.synthetic.sample_interaction_delta`) to measure sustained
  QPS, optionally under injected re-division faults.

All timing routes through the injectable :class:`repro.clock.Clock`, so the
zero-sleep test tier can drive a whole serving session under virtual time
and the determinism lint (``DET001``) stays clean.

Staleness semantics: a re-division fault during
:meth:`ServingSession.apply_updates` degrades (``on_shard_failure="skip"``)
to serving the affected egos' *previous* communities — stale but internally
consistent; :attr:`ServingSession.stale_egos` lists them until a later
update succeeds.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from random import Random
from statistics import NormalDist
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.clock import Clock, SystemClock
from repro.core.pipeline import LoCEC, UpdateReport
from repro.exceptions import NotFittedError, PipelineError
from repro.synthetic.interactions_gen import sample_interaction_delta
from repro.types import Edge, Node, RelationType

if TYPE_CHECKING:  # pragma: no cover - typing-only import (lazy at runtime)
    from repro.runtime.faultinject import FaultPlan

__all__ = [
    "ReplayReport",
    "ServingSession",
    "ServingStats",
    "StreamingMoments",
    "replay_traffic",
]


@dataclass
class StreamingMoments:
    """Welford's streaming mean/variance accumulator.

    Holds three scalars (count, mean, sum of squared deviations) no matter
    how many samples arrive, so a serving session can account for millions
    of request latencies without retaining them.  Percentiles come from a
    normal approximation (``mean + z_q * std``) — exact enough for latency
    dashboards, and the trade the paper's serving tier makes too.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Sample variance (zero until two samples arrived)."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def percentile(self, q: float) -> float:
        """Normal-approximation percentile, ``q`` in (0, 1)."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        if self.count == 0:
            return 0.0
        if self.variance == 0.0:
            return self.mean
        return self.mean + NormalDist().inv_cdf(q) * self.std

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "std": self.std,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


@dataclass
class ServingStats:
    """Running counters of a :class:`ServingSession`."""

    num_queries: int = 0
    num_batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    num_updates: int = 0
    num_labeler_refits: int = 0
    num_degraded_updates: int = 0
    query_seconds: float = 0.0
    update_seconds: float = 0.0
    batch_latency: StreamingMoments = field(default_factory=StreamingMoments)
    update_latency: StreamingMoments = field(default_factory=StreamingMoments)

    @property
    def cache_hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    @property
    def sustained_qps(self) -> float:
        """Queries per second over *all* session time, updates included."""
        seconds = self.query_seconds + self.update_seconds
        return self.num_queries / seconds if seconds > 0 else 0.0


class ServingSession:
    """A long-lived serving wrapper around a fitted :class:`LoCEC` pipeline.

    Parameters
    ----------
    pipeline:
        A fitted pipeline.  The session serves from (and applies updates
        to) the pipeline's live state; it does not copy it.
    cache_size:
        Maximum number of cached per-edge probability rows (LRU eviction;
        ``0`` disables caching).  Entries are keyed on the edge *and* a
        version token ``(feature store version, interaction store version,
        update epoch)``, so any update invalidates exactly the entries
        whose inputs moved — including out-of-band store writes.
    clock:
        Injectable time source for latency accounting (tests pass
        :class:`repro.clock.FakeClock`).

    Use as a context manager or call :meth:`close` (idempotent) when done.
    Closing drops the cache and refuses further use; it releases no pool
    today.
    """

    def __init__(
        self,
        pipeline: LoCEC,
        cache_size: int = 4096,
        clock: Clock | None = None,
    ) -> None:
        if pipeline.edge_labeler_ is None:
            raise NotFittedError(pipeline)
        if cache_size < 0:
            raise PipelineError("cache_size must be >= 0")
        self.pipeline: LoCEC = pipeline
        self.cache_size = cache_size
        self._clock = clock if clock is not None else SystemClock()
        self._num_classes = len(RelationType.classification_targets())
        self._cache: OrderedDict[
            Edge, tuple[tuple[int, int, int], np.ndarray]
        ] = OrderedDict()
        self._closed = False
        self.stats = ServingStats()

    # ---------------------------------------------------------------- queries
    def predict_proba(self, edges: Sequence[Edge]) -> np.ndarray:
        """Class-probability matrix for a batch of edges, cache-assisted.

        Cache misses are featurized and scored in a single batched pass
        through :meth:`LoCEC.predict_edge_proba`; hits are served from the
        LRU cache when their version token still matches the live stores.
        """
        self._ensure_open()
        batch = list(edges)
        start = self._clock.perf_counter()
        token = self._version_token()
        rows: list[np.ndarray | None] = []
        miss_edges: list[Edge] = []
        miss_positions: list[int] = []
        for position, edge in enumerate(batch):
            cached = self._cache.get(edge)
            if cached is not None and cached[0] == token:
                self._cache.move_to_end(edge)
                self.stats.cache_hits += 1
                rows.append(cached[1])
            else:
                self.stats.cache_misses += 1
                rows.append(None)
                miss_edges.append(edge)
                miss_positions.append(position)
        if miss_edges:
            scored = self.pipeline.predict_edge_proba(miss_edges)
            for index, position in enumerate(miss_positions):
                row = scored[index]
                rows[position] = row
                self._cache_store(batch[position], token, row)
        elapsed = self._clock.perf_counter() - start
        self.stats.num_queries += len(batch)
        self.stats.num_batches += 1
        self.stats.query_seconds += elapsed
        self.stats.batch_latency.add(elapsed)
        if not batch:
            return np.zeros((0, self._num_classes))
        return np.vstack([row for row in rows if row is not None])

    def predict_edges(self, edges: Sequence[Edge]) -> list[RelationType]:
        """Predicted :class:`RelationType` per edge (argmax of the proba)."""
        proba = self.predict_proba(edges)
        return [RelationType(int(index)) for index in np.argmax(proba, axis=1)]

    # ---------------------------------------------------------------- updates
    def apply_updates(
        self,
        added_edges: Sequence[Edge] = (),
        removed_edges: Sequence[Edge] = (),
        interaction_deltas: Sequence[tuple[Node, Node, Sequence[float]]] = (),
        feature_updates: Sequence[tuple[Node, Sequence[float]]] = (),
        fault_plan: "FaultPlan | None" = None,
    ) -> UpdateReport:
        """Fold deltas into the served state (see :meth:`LoCEC.apply_updates`).

        Bumping the pipeline's update epoch shifts the cache version token,
        so every cached row is invalidated in O(1) without touching the
        cache structure itself.
        """
        self._ensure_open()
        start = self._clock.perf_counter()
        report = self.pipeline.apply_updates(
            added_edges=added_edges,
            removed_edges=removed_edges,
            interaction_deltas=interaction_deltas,
            feature_updates=feature_updates,
            fault_plan=fault_plan,
        )
        elapsed = self._clock.perf_counter() - start
        self.stats.num_updates += 1
        self.stats.num_labeler_refits += report.labeler_refit
        if report.degraded:
            self.stats.num_degraded_updates += 1
        self.stats.update_seconds += elapsed
        self.stats.update_latency.add(elapsed)
        return report

    @property
    def stale_egos(self) -> frozenset[Node]:
        """Egos currently served stale communities (degraded re-division)."""
        return self.pipeline.stale_egos

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Drop the cache and refuse further use.  Idempotent."""
        self._closed = True
        self._cache.clear()

    def __enter__(self) -> "ServingSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- internals
    def _ensure_open(self) -> None:
        if self._closed:
            raise PipelineError("ServingSession is closed")

    def _version_token(self) -> tuple[int, int, int]:
        builder = self.pipeline.feature_builder_
        assert builder is not None
        return (
            builder.features.version,
            builder.interactions.version,
            self.pipeline.update_epoch,
        )

    def _cache_store(
        self, edge: Edge, token: tuple[int, int, int], row: np.ndarray
    ) -> None:
        if self.cache_size == 0:
            return
        self._cache[edge] = (token, row)
        self._cache.move_to_end(edge)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)


@dataclass
class ReplayReport:
    """Outcome of one :func:`replay_traffic` run."""

    num_batches: int = 0
    num_queries: int = 0
    num_updates: int = 0
    num_degraded_updates: int = 0
    num_structural_updates: int = 0
    seconds: float = 0.0
    cache_hit_rate: float = 0.0
    sustained_qps: float = 0.0
    query_latency: dict[str, float] = field(default_factory=dict)
    update_latency: dict[str, float] = field(default_factory=dict)
    stale_egos: tuple[Node, ...] = ()

    def as_dict(self) -> dict[str, float]:
        return {
            "num_batches": float(self.num_batches),
            "num_queries": float(self.num_queries),
            "num_updates": float(self.num_updates),
            "num_degraded_updates": float(self.num_degraded_updates),
            "num_structural_updates": float(self.num_structural_updates),
            "seconds": self.seconds,
            "cache_hit_rate": self.cache_hit_rate,
            "sustained_qps": self.sustained_qps,
            "num_stale_egos": float(len(self.stale_egos)),
        }


def replay_traffic(
    session: ServingSession,
    num_batches: int = 12,
    queries_per_batch: int = 32,
    updates_per_batch: int = 1,
    update_every: int = 3,
    structural_every: int = 4,
    seed: int = 0,
    fault_plan: "FaultPlan | None" = None,
) -> ReplayReport:
    """Fire deterministic synthetic update + query traffic at a session.

    Every batch issues ``queries_per_batch`` edge queries drawn from the
    served graph; every ``update_every``-th batch first applies
    ``updates_per_batch`` interaction deltas (drawn with the offline
    generator's Poisson sampler), and every ``structural_every``-th update
    round also toggles a friendship edge (add a non-adjacent pair, or
    remove one previously added).  ``fault_plan`` is forwarded to each
    update's supervised re-division, so a chaos run measures sustained QPS
    *while* re-divisions crash and egos degrade to stale service.
    """
    if num_batches < 1:
        raise PipelineError("num_batches must be >= 1")
    graph = session.pipeline.graph
    builder = session.pipeline.feature_builder_
    assert graph is not None and builder is not None
    rng = Random(seed)
    nodes = list(graph.nodes())
    num_dims = builder.interactions.num_dims
    report = ReplayReport()
    toggled: list[Edge] = []
    update_round = 0
    start = session._clock.perf_counter()
    for batch in range(num_batches):
        if update_every and batch % update_every == update_every - 1:
            update_round += 1
            edge_pool = list(graph.edges())
            deltas = []
            for _ in range(updates_per_batch):
                u, v = edge_pool[rng.randrange(len(edge_pool))]
                deltas.append((u, v, sample_interaction_delta(num_dims, rng)))
            added: list[Edge] = []
            removed: list[Edge] = []
            if structural_every and update_round % structural_every == 0:
                if toggled and rng.random() < 0.5:
                    removed.append(toggled.pop(rng.randrange(len(toggled))))
                else:
                    for _ in range(20):
                        u, v = rng.sample(nodes, 2)
                        if not graph.has_edge(u, v):
                            added.append((u, v))
                            toggled.append((u, v))
                            break
                if added or removed:
                    report.num_structural_updates += 1
            update = session.apply_updates(
                added_edges=added,
                removed_edges=removed,
                interaction_deltas=deltas,
                fault_plan=fault_plan,
            )
            report.num_updates += 1
            if update.degraded:
                report.num_degraded_updates += 1
        edge_pool = list(graph.edges())
        queries = [
            edge_pool[rng.randrange(len(edge_pool))] for _ in range(queries_per_batch)
        ]
        session.predict_edges(queries)
        report.num_batches += 1
        report.num_queries += len(queries)
    report.seconds = session._clock.perf_counter() - start
    report.cache_hit_rate = session.stats.cache_hit_rate
    report.sustained_qps = (
        report.num_queries / report.seconds if report.seconds > 0 else 0.0
    )
    report.query_latency = session.stats.batch_latency.summary()
    report.update_latency = session.stats.update_latency.summary()
    report.stale_egos = tuple(sorted(session.stale_egos, key=repr))
    return report
