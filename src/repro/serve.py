"""Online serving layer for a fitted LoCEC pipeline.

The paper's production system classifies WeChat edges *continuously*; this
module is the request-side counterpart of :meth:`repro.core.LoCEC.fit`:

* :class:`ServingSession` — wraps a fitted pipeline in a long-lived session
  with batched :meth:`~ServingSession.predict_edges` and streaming latency
  accounting.  Every batch is scored against the live state through
  :meth:`LoCEC.predict_edge_proba` (one search of the compiled Phase III
  edge index and two gathers), so a read after any write sees the new state.
* :class:`StreamingMoments` — a Welford mean/variance accumulator beside a
  fixed-size log-bucket histogram, for latency percentiles without
  retaining per-request samples.
* :func:`replay_traffic` — a deterministic replay driver firing synthetic
  edge-update + query traffic (deltas drawn via
  :func:`repro.synthetic.sample_interaction_delta`) to measure sustained
  QPS.

All timing routes through the injectable :class:`repro.clock.Clock`, so the
test tier can drive a whole serving session under virtual time and the
determinism lint (``DET001``) stays clean.

No ego is served stale communities: a write whose re-division raises
leaves the served state as it was (:meth:`LoCEC.apply_updates` also names
the two later failures that still leave a half-updated pipeline).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from random import Random
from typing import Sequence

import numpy as np

from repro.clock import Clock, SystemClock
from repro.core.pipeline import LoCEC, UpdateReport
from repro.exceptions import NotFittedError, PipelineError
from repro.synthetic.interactions_gen import sample_interaction_delta
from repro.types import Edge, Node, RelationType

__all__ = [
    "ReplayReport",
    "ServingSession",
    "ServingStats",
    "StreamingMoments",
    "replay_traffic",
]

_LOWEST = 1e-7
"""Lower edge of the first finite histogram bucket (100 ns in seconds)."""
_PER_OCTAVE = 8
"""Buckets per doubling: a bucket's midpoint is within 4.4 % of its values."""
_BUCKETS = 1 + 40 * _PER_OCTAVE
"""Bucket 0 holds values below :data:`_LOWEST`; the last one everything
from ``_LOWEST * 2**40`` (~1.1e5 s) up.  Percentiles clamp to the observed
range, so either end bucket reads no further out than the sample."""
_EDGES = [_LOWEST * 2 ** (i / _PER_OCTAVE) for i in range(_BUCKETS - 1)]
"""Lower edge of bucket ``i + 1``: a value's bucket is ``bisect_right``."""


@dataclass
class StreamingMoments:
    """Streaming mean/variance and percentiles of a sample.

    Welford's update keeps the mean and variance exactly in three scalars;
    percentiles come from a fixed-size histogram of log-spaced buckets
    (:data:`_PER_OCTAVE` per doubling from :data:`_LOWEST`), so a serving
    session can account for millions of request latencies without
    retaining them, and a bimodal sample (cache-like hits beside misses)
    keeps both modes.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    low: float = math.inf
    high: float = -math.inf
    buckets: list[int] = field(default_factory=lambda: [0] * _BUCKETS, repr=False)

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        self.low, self.high = min(self.low, value), max(self.high, value)
        self.buckets[bisect_right(_EDGES, value)] += 1

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
        """Percentile ``q`` in (0, 1), linearly interpolated between the
        two nearest ranks (numpy's default) and read off the histogram:
        each rank's value is its bucket's midpoint, clamped to the
        observed range — exact for a constant sample."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        if self.count == 0:
            return 0.0
        position = (self.count - 1) * q
        below = math.floor(position)
        cumulative = list(accumulate(self.buckets))
        # A rank's value: its bucket's geometric midpoint, clamped.
        lower, upper = (
            min(max(_LOWEST * 2 ** ((bucket - 0.5) / _PER_OCTAVE), self.low), self.high)
            for bucket in (bisect_right(cumulative, rank) for rank in (below, below + 1))
        )
        return lower + (position - below) * (upper - lower)

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
    """Running counters of a :class:`ServingSession`.

    ``cache_hits`` (always 0) and ``cache_misses`` (edges scored) are a
    shim: the session has no cache, and the frozen end-to-end benchmark
    still reads both for its ``serve.hit_ratio`` / ``serve.miss_edges``
    rows.  The change that next edits the benchmark drops them.
    """

    num_queries: int = 0
    num_batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    num_updates: int = 0
    num_labeler_refits: int = 0
    query_seconds: float = 0.0
    update_seconds: float = 0.0
    batch_latency: StreamingMoments = field(default_factory=StreamingMoments)
    update_latency: StreamingMoments = field(default_factory=StreamingMoments)

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
        to) the pipeline's live state; it does not copy it, and keeps no
        results of its own, so every read sees every applied write —
        including out-of-band store writes folded in through the pipeline.
    clock:
        Injectable time source for latency accounting (tests pass a
        virtual clock).

    Use as a context manager or call :meth:`close` (idempotent) when done.
    Closing refuses further use; it releases no pool today.
    """

    def __init__(self, pipeline: LoCEC, clock: Clock | None = None) -> None:
        if pipeline.edge_labeler_ is None:
            raise NotFittedError(pipeline)
        self.pipeline: LoCEC = pipeline
        self._clock = clock if clock is not None else SystemClock()
        self._closed = False
        self.stats = ServingStats()

    # ---------------------------------------------------------------- queries
    def predict_proba(self, edges: Sequence[Edge]) -> np.ndarray:
        """Class-probability matrix for a batch of edges, scored in one
        :meth:`LoCEC.predict_edge_proba` pass and timed."""
        self._ensure_open()
        batch = list(edges)
        start = self._clock.perf_counter()
        proba = self.pipeline.predict_edge_proba(batch)
        elapsed = self._clock.perf_counter() - start
        self.stats.cache_misses += len(batch)
        self.stats.num_queries += len(batch)
        self.stats.num_batches += 1
        self.stats.query_seconds += elapsed
        self.stats.batch_latency.add(elapsed)
        return proba

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
    ) -> UpdateReport:
        """Fold deltas into the served state (see :meth:`LoCEC.apply_updates`)."""
        self._ensure_open()
        start = self._clock.perf_counter()
        report = self.pipeline.apply_updates(
            added_edges=added_edges,
            removed_edges=removed_edges,
            interaction_deltas=interaction_deltas,
            feature_updates=feature_updates,
        )
        elapsed = self._clock.perf_counter() - start
        self.stats.num_updates += 1
        self.stats.num_labeler_refits += report.labeler_refit
        self.stats.update_seconds += elapsed
        self.stats.update_latency.add(elapsed)
        return report

    @property
    def stale_egos(self) -> frozenset[Node]:
        """Always empty: a write lands whole or raises.  Kept because the
        end-to-end benchmark reads it after every write; the change that
        next edits the benchmark drops the read, and this property."""
        return frozenset()

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Refuse further use.  Idempotent."""
        self._closed = True

    def __enter__(self) -> "ServingSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- internals
    def _ensure_open(self) -> None:
        if self._closed:
            raise PipelineError("ServingSession is closed")


@dataclass
class ReplayReport:
    """Outcome of one :func:`replay_traffic` run."""

    num_batches: int = 0
    num_queries: int = 0
    num_updates: int = 0
    num_structural_updates: int = 0
    seconds: float = 0.0
    sustained_qps: float = 0.0
    query_latency: dict[str, float] = field(default_factory=dict)
    update_latency: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        return {
            "num_batches": float(self.num_batches),
            "num_queries": float(self.num_queries),
            "num_updates": float(self.num_updates),
            "num_structural_updates": float(self.num_structural_updates),
            "seconds": self.seconds,
            "sustained_qps": self.sustained_qps,
        }


def replay_traffic(
    session: ServingSession,
    num_batches: int = 12,
    queries_per_batch: int = 32,
    updates_per_batch: int = 1,
    update_every: int = 3,
    structural_every: int = 4,
    seed: int = 0,
) -> ReplayReport:
    """Fire deterministic synthetic update + query traffic at a session.

    Every batch issues ``queries_per_batch`` edge queries drawn from the
    served graph; every ``update_every``-th batch first applies
    ``updates_per_batch`` interaction deltas (drawn with the offline
    generator's Poisson sampler), and every ``structural_every``-th update
    round also toggles a friendship edge (add a non-adjacent pair, or
    remove one previously added).
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
            session.apply_updates(
                added_edges=added, removed_edges=removed, interaction_deltas=deltas
            )
            report.num_updates += 1
        edge_pool = list(graph.edges())
        queries = [
            edge_pool[rng.randrange(len(edge_pool))] for _ in range(queries_per_batch)
        ]
        session.predict_edges(queries)
        report.num_batches += 1
        report.num_queries += len(queries)
    report.seconds = session._clock.perf_counter() - start
    report.sustained_qps = (
        report.num_queries / report.seconds if report.seconds > 0 else 0.0
    )
    report.query_latency = session.stats.batch_latency.summary()
    report.update_latency = session.stats.update_latency.summary()
    return report
