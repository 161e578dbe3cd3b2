"""Resilience primitives for the sharded execution runtime.

The paper's production deployment runs Phase I continuously across 50–200
servers, where transient worker failures, stragglers and hard crashes are
routine.  This module supplies the building blocks the shard supervisor
(:mod:`repro.runtime.supervisor`) is built from:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  **deterministic** jitter (seeded per ``(shard, attempt)``, so two runs of
  the same schedule sleep identically), plus retryable-exception
  classification.
* :class:`Clock` / :class:`SystemClock` / :class:`FakeClock` — an injectable
  time source.  Production uses :class:`SystemClock`; the test suite injects
  :class:`FakeClock` so every backoff/timeout path runs with **zero real
  sleeps**.
* :class:`ShardCheckpointStore` — per-shard spill of completed
  :class:`~repro.core.division.DivisionResult` objects, fingerprinted by
  shard content so ``run(resume_from=...)`` only skips checkpoints that
  match the work being resumed.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
from dataclasses import dataclass
from pathlib import Path

from repro.clock import Clock as Clock
from repro.clock import FakeClock as FakeClock
from repro.clock import SystemClock as SystemClock
from repro.core.division import DivisionResult
from repro.exceptions import (
    CheckpointError,
    ModelConfigError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.graph.graph import Graph
from repro.runtime.sharding import Shard
from repro.types import edge_key, node_key


# --------------------------------------------------------------------- clock
# Clock / SystemClock / FakeClock now live in the dependency-free
# :mod:`repro.clock` (so core/pipeline code and scripts can inject them
# without import cycles) and are re-exported above for compatibility.


# --------------------------------------------------------------- retry policy
#: Exception types retried by default.  ``TimeoutError`` covers
#: ``concurrent.futures.TimeoutError`` (an alias since Python 3.11) and the
#: builtin; ``OSError``/``ConnectionError`` model infra flakiness.
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    ShardTimeoutError,
    WorkerCrashError,
    TimeoutError,
    ConnectionError,
    OSError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``delay(attempt, key)`` for attempt ``n`` (1-based: the delay before the
    n-th retry) is ``min(base_delay * backoff_factor**(n-1), max_delay)``
    plus a jitter drawn from ``Random(f"{seed}:{key}:{attempt}")`` — a pure
    function of the policy seed and the (shard, attempt) pair, so schedules
    are reproducible across runs and processes.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    retryable_exceptions: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ModelConfigError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ModelConfigError("delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ModelConfigError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ModelConfigError("jitter must be in [0, 1]")

    @classmethod
    def from_config(cls, config: "object") -> "RetryPolicy":
        """Build a policy from a :class:`repro.core.config.ResilienceConfig`."""
        return cls(
            max_attempts=config.max_attempts,
            base_delay=config.backoff_base,
            backoff_factor=config.backoff_factor,
            max_delay=config.backoff_max,
            jitter=config.jitter,
            seed=config.seed,
        )

    def is_retryable(self, error: BaseException) -> bool:
        """True when ``error`` is worth retrying.

        An exception is retryable when it is an instance of one of
        ``retryable_exceptions`` or carries a truthy ``transient`` attribute
        (the fault-injection harness marks its synthetic transient errors
        that way).
        """
        if getattr(error, "transient", False):
            return True
        return isinstance(error, self.retryable_exceptions)

    def delay(self, attempt: int, key: object = 0) -> float:
        """Backoff before retry ``attempt`` (1-based) of work item ``key``."""
        if attempt < 1:
            return 0.0
        base = min(
            self.base_delay * self.backoff_factor ** (attempt - 1), self.max_delay
        )
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        rng = random.Random(f"{self.seed}:{key}:{attempt}")
        return base + rng.uniform(0.0, self.jitter * base)


# ----------------------------------------------------------- checkpointing
def graph_value_digest(graph: Graph) -> str:
    """Identity of a graph's *value*: node set + canonical edge set.

    Independent of insertion order, so an equal graph built another way has
    the same digest while any edge or node change invalidates the
    checkpoints bound to it.  O((V + E) log) — computed only when a
    checkpoint store is opened.
    """
    digest = hashlib.sha256()
    for node in sorted(map(node_key, graph.nodes())):
        digest.update(node.encode("utf-8") + b"\n")
    digest.update(b"--\n")
    for edge in sorted(map(edge_key, graph.edges())):
        digest.update(edge.encode("utf-8") + b"\n")
    return f"value|{digest.hexdigest()}"


def shard_fingerprint(
    shard: Shard, detector: str, graph_id: str | None = None
) -> str:
    """Content hash identifying a shard's work: id, ego list and detector.

    ``graph_id`` — the executor passes :func:`graph_value_digest` — is
    included when known: a checkpoint is only as trustworthy as the graph it
    was computed from, so any edge or node change invalidates old checkpoints.
    """
    work: tuple[object, ...] = (shard.shard_id, shard.egos, detector)
    if graph_id is not None:
        work = work + (graph_id,)
    payload = repr(work).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass
class ShardCheckpoint:
    """One spilled shard result."""

    fingerprint: str
    shard_id: int
    division: DivisionResult
    seconds: float


class ShardCheckpointStore:
    """Directory of per-shard pickled :class:`ShardCheckpoint` files.

    Writes are atomic (temp file + ``os.replace``) so a kill mid-write never
    leaves a truncated checkpoint that a resume would trust.  Loads validate
    the content fingerprint: a checkpoint written for different egos or a
    different detector — or, when the store is bound to a graph via
    ``graph_id``, a different graph — is ignored, not reused.
    """

    def __init__(self, directory: str | Path, graph_id: str | None = None) -> None:
        self.directory = Path(directory)
        self.graph_id = graph_id
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, shard_id: int) -> Path:
        return self.directory / f"shard-{shard_id:05d}.pkl"

    def save(self, shard: Shard, detector: str, division: DivisionResult,
             seconds: float) -> Path:
        checkpoint = ShardCheckpoint(
            fingerprint=shard_fingerprint(shard, detector, self.graph_id),
            shard_id=shard.shard_id,
            division=division,
            seconds=seconds,
        )
        path = self._path(shard.shard_id)
        tmp = path.with_suffix(".tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(checkpoint, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint for shard {shard.shard_id} at {path}: {exc}"
            ) from exc
        return path

    def load(self, shard: Shard, detector: str) -> ShardCheckpoint | None:
        """Return the checkpoint for ``shard`` if present and fingerprint-valid."""
        path = self._path(shard.shard_id)
        if not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                checkpoint: ShardCheckpoint = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as exc:
            raise CheckpointError(
                f"cannot read checkpoint for shard {shard.shard_id} at {path}: {exc}"
            ) from exc
        if checkpoint.fingerprint != shard_fingerprint(shard, detector, self.graph_id):
            return None  # stale: written for different work
        return checkpoint


# ------------------------------------------------------------- run summary
@dataclass
class ShardFailure:
    """Record of a shard that ended in failure (``on_shard_failure="skip"``)."""

    shard_id: int
    attempts: int
    error: str
    timeouts: int = 0
    """How many of the failed attempts were per-shard timeouts."""

    @classmethod
    def from_error(cls, shard_id: int, attempts: int, error: BaseException,
                   timeouts: int = 0) -> "ShardFailure":
        return cls(shard_id=shard_id, attempts=attempts, error=repr(error),
                   timeouts=timeouts)
