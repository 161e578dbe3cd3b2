"""Resilience primitives for the sharded execution runtime.

The paper's production deployment runs Phase I continuously across 50–200
servers, where transient worker failures, stragglers and hard crashes are
routine.  This module supplies the building blocks the executor's retry
loop (:mod:`repro.runtime.executor`) is built from:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  **deterministic** jitter (seeded per ``(shard, attempt)``, so two runs of
  the same schedule sleep identically), plus retryable-exception
  classification.
* :class:`Clock` / :class:`SystemClock` / :class:`FakeClock` — an injectable
  time source.  Production uses :class:`SystemClock`; the test suite injects
  :class:`FakeClock` so every backoff/timeout path runs with **zero real
  sleeps**.
* :class:`ShardFailure` — the record of a shard whose attempts ran out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.clock import Clock as Clock
from repro.clock import FakeClock as FakeClock
from repro.clock import SystemClock as SystemClock
from repro.core.config import ResilienceConfig
from repro.exceptions import ShardTimeoutError, WorkerCrashError


# --------------------------------------------------------------------- clock
# Clock / SystemClock / FakeClock now live in the dependency-free
# :mod:`repro.clock` (so core/pipeline code and scripts can inject them
# without import cycles) and are re-exported above for compatibility.


# --------------------------------------------------------------- retry policy
#: Exception types retried: the simulated hang and kill, and the builtin
#: ``TimeoutError`` / ``ConnectionError`` / ``OSError`` that model infra
#: flakiness in a shard's own code.
RETRYABLE: tuple[type[BaseException], ...] = (
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

    @classmethod
    def from_config(cls, config: ResilienceConfig) -> "RetryPolicy":
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
        :data:`RETRYABLE` or carries a truthy ``transient`` attribute (the
        fault-injection harness marks its synthetic transient errors that
        way).
        """
        if getattr(error, "transient", False):
            return True
        return isinstance(error, RETRYABLE)

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


# ------------------------------------------------------------- run summary
@dataclass
class ShardFailure:
    """Record of a shard whose attempts ran out; the executor skips it."""

    shard_id: int
    attempts: int
    error: str
    timeouts: int = 0
    """How many of the failed attempts were simulated hangs."""

    @classmethod
    def from_error(cls, shard_id: int, attempts: int, error: BaseException,
                   timeouts: int = 0) -> "ShardFailure":
        return cls(shard_id=shard_id, attempts=attempts, error=repr(error),
                   timeouts=timeouts)
