"""The supervised shard runner: the one supervision loop of the sharded runtime.

The production system streams work through 50–200 servers where worker
crashes, stragglers and partial failures are routine.  Sharded Phase I
(:mod:`repro.runtime.executor`) runs as shard → per-shard work → merge, and
this module is the only place that knows how to make that survivable:

* per-shard **retries** under a :class:`~repro.runtime.resilience.RetryPolicy`
  (exponential backoff, deterministic jitter, retryable-error
  classification),
* per-shard **timeouts** (``future.result(timeout=...)`` under a process
  pool; simulated on the injected clock under serial fault injection),
* a broken process pool is **rebuilt** up to ``max_pool_rebuilds`` times,
  and then the supervisor **degrades to in-process serial execution** for
  the remaining shards,
* ``on_shard_failure`` selects the failure semantics once a shard's attempt
  budget is spent — abort (``"raise"``), keep going with a first-class
  partial result (``"skip"``), or retry once in-process
  (``"serial_fallback"``).

A specialisation supplies only data and a module-level callable: the payload
every shard computes against, and ``shard_fn(payload, *task_args)``.  The
payload reaches each pool worker once, as the pool initializer's argument:
inherited under ``fork``, pickled under ``spawn`` / ``forkserver``.
Supervision changes *when* work happens, never *what* it computes, so any
fault schedule that eventually succeeds yields results identical to the clean
serial run.

Pool lifetime is the caller's ``with`` scope: the pool starts on the first
pooled :meth:`ShardSupervisor.run` and lives until
:meth:`ShardSupervisor.close`.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Protocol, Sequence, TypeVar

from repro.core.config import ResilienceConfig
from repro.exceptions import (
    ExecutorError,
    RetryExhaustedError,
    ShardFailedError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.runtime.faultinject import FaultPlan
from repro.runtime.resilience import Clock, RetryPolicy, ShardFailure

ResultT = TypeVar("ResultT")

#: One unit of supervised work: ``(shard_id, task_args)``.  The arguments
#: travel to the worker by pickle and reach ``shard_fn`` after the payload.
ShardTask = tuple[int, tuple[Any, ...]]


# ------------------------------------------------------------ worker process
_WORKER_PAYLOAD: object | None = None
_WORKER_FAULT_PLAN: FaultPlan | None = None
_WORKER_TIMEOUT: float | None = None


def reset_worker_state() -> None:
    """Explicit worker teardown: drop the cached payload and fault plan.

    Module globals live as long as the process, so without this a stale
    payload would survive in the parent after its pool is gone; ``close``
    calls it so in-process tests can assert nothing lingers.
    """
    global _WORKER_PAYLOAD, _WORKER_FAULT_PLAN, _WORKER_TIMEOUT
    _WORKER_PAYLOAD = None
    _WORKER_FAULT_PLAN = None
    _WORKER_TIMEOUT = None


def _init_worker(
    payload: object, fault_plan: FaultPlan | None, shard_timeout: float | None
) -> None:
    """Process-pool initializer: receive the payload once per worker process.

    Under ``fork`` the worker inherits the parent's object; under ``spawn``
    or ``forkserver`` it arrives pickled, once per worker instead of once
    per shard task.  The fault plan (tests / chaos runs only) travels
    alongside.
    """
    global _WORKER_PAYLOAD, _WORKER_FAULT_PLAN, _WORKER_TIMEOUT
    _WORKER_PAYLOAD = payload
    _WORKER_FAULT_PLAN = fault_plan
    _WORKER_TIMEOUT = shard_timeout


def _timed_call(
    shard_fn: Callable[..., ResultT], payload: object, args: tuple[Any, ...]
) -> tuple[ResultT, float]:
    # Worker-side duration measurement: the injectable Clock lives in the
    # supervisor process and deliberately does not travel to workers (a
    # FakeClock would report zero-length shards).  Measurement-only — the
    # shard result itself is time-independent.
    start = time.perf_counter()  # repro-lint: disable=DET001
    result = shard_fn(payload, *args)
    return result, time.perf_counter() - start  # repro-lint: disable=DET001


def _run_in_worker(
    shard_fn: Callable[..., ResultT],
    shard_id: int,
    attempt: int,
    args: tuple[Any, ...],
) -> tuple[ResultT, float]:
    if _WORKER_PAYLOAD is None:
        raise ExecutorError("worker initializer did not run")
    if _WORKER_FAULT_PLAN is not None:
        _WORKER_FAULT_PLAN.apply(
            shard_id, attempt, in_worker=True, timeout=_WORKER_TIMEOUT
        )
    return _timed_call(shard_fn, _WORKER_PAYLOAD, args)


# ----------------------------------------------------------------- reporting
class _ShardCounts(Protocol):
    """What a per-shard report must expose for the run-level totals."""

    seconds: float
    timeouts: int

    @property
    def retries(self) -> int: ...


ShardReportT = TypeVar("ShardReportT", bound=_ShardCounts)


@dataclass(kw_only=True)
class SupervisionReport(Generic[ShardReportT]):
    """Supervision accounting shared by every sharded execution report.

    Partial results are first-class: under ``on_shard_failure="skip"``
    ``shard_reports`` covers every shard that succeeded and ``failed_shards``
    names the ones that did not (with attempt counts and the final error),
    so callers can re-drive exactly the missing work.
    """

    shard_reports: list[ShardReportT] = field(default_factory=list)
    failed_shards: list[ShardFailure] = field(default_factory=list)
    pool_rebuilds: int = 0
    """Times a broken process pool was torn down and rebuilt."""
    degraded_to_serial: bool = False
    """True when repeated pool breakage forced in-process serial execution."""

    @property
    def total_seconds(self) -> float:
        """Worker compute seconds summed over shards (the serial-equivalent)."""
        return sum(report.seconds for report in self.shard_reports)

    @property
    def total_retries(self) -> int:
        retried = sum(report.retries for report in self.shard_reports)
        return retried + sum(max(0, item.attempts - 1) for item in self.failed_shards)

    @property
    def total_timeouts(self) -> int:
        timed_out = sum(report.timeouts for report in self.shard_reports)
        return timed_out + sum(item.timeouts for item in self.failed_shards)


@dataclass
class ShardAttempts:
    """Per-shard bookkeeping the supervisor threads through attempts."""

    shard_id: int
    args: tuple[Any, ...]
    attempt: int = 0  # attempts already made
    timeouts: int = 0

    def record_failure(self, error: BaseException) -> None:
        self.attempt += 1
        if isinstance(error, ShardTimeoutError):
            self.timeouts += 1


@dataclass(frozen=True)
class ShardOutcome(Generic[ResultT]):
    """One shard's final result after supervision."""

    shard_id: int
    result: ResultT
    seconds: float
    attempts: int
    """Total attempts made (1 = succeeded first try)."""
    timeouts: int
    """How many of the failed attempts were per-shard timeouts."""


# ---------------------------------------------------------------- supervisor
class ShardSupervisor(Generic[ResultT]):
    """Run shard tasks under supervision, serially or over a process pool.

    Parameters
    ----------
    payload:
        What every shard computes against (the executor's CSR snapshot).
        Passed to each pool worker once, as the pool initializer's argument.
    shard_fn:
        Module-level ``shard_fn(payload, *task_args) -> result``.
    num_workers:
        1 for serial (deterministic) execution; >1 uses a process pool.
    resilience:
        Fault-tolerance knobs (:class:`repro.core.config.ResilienceConfig`):
        retry budget and backoff, per-shard timeout, ``on_shard_failure``
        mode, pool-rebuild budget.
    fault_plan:
        Optional :class:`~repro.runtime.faultinject.FaultPlan` injecting
        deterministic faults into shard attempts (tests / chaos runs).
    clock:
        Time source for backoff sleeps and simulated hangs; tests inject
        :class:`~repro.runtime.resilience.FakeClock` so no retry path ever
        wall-sleeps.
    """

    def __init__(
        self,
        payload: object,
        *,
        shard_fn: Callable[..., ResultT],
        num_workers: int,
        resilience: ResilienceConfig,
        fault_plan: FaultPlan | None = None,
        clock: Clock,
    ) -> None:
        resilience.validate()
        self.payload = payload
        self.shard_fn = shard_fn
        self.num_workers = num_workers
        self.resilience = resilience
        self.retry_policy = RetryPolicy.from_config(resilience)
        self.fault_plan = fault_plan
        self.clock = clock
        self._pool: ProcessPoolExecutor | None = None
        # What the current ``run`` accumulates into.
        self._report: SupervisionReport[Any] = SupervisionReport()
        self._on_result: Callable[[ShardOutcome[ResultT]], None] | None = None
        self._outcomes: list[ShardOutcome[ResultT]] = []

    # ------------------------------------------------------------------ run
    def run(
        self,
        tasks: Sequence[ShardTask],
        report: SupervisionReport[Any],
        on_result: Callable[[ShardOutcome[ResultT]], None] | None = None,
    ) -> list[ShardOutcome[ResultT]]:
        """Execute ``tasks`` and return the completed outcomes by shard id.

        Supervision accounting lands in ``report``; ``on_result`` is called
        in the parent as each shard completes (checkpoint spill).
        """
        self._report, self._on_result, self._outcomes = report, on_result, []
        states = [ShardAttempts(shard_id, args) for shard_id, args in tasks]
        if states:
            if self.num_workers <= 1:
                self._run_serial(states)
            else:
                self._run_pool(states)
        report.failed_shards.sort(key=lambda item: item.shard_id)
        # Hand the results over rather than keep them: a supervisor held
        # open across calls must not pin the previous call's blocks.
        outcomes, self._outcomes, self._on_result = self._outcomes, [], None
        return sorted(outcomes, key=lambda outcome: outcome.shard_id)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the pool and worker globals.

        Idempotent and safe at any point; the context-manager form calls it
        on exit.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        reset_worker_state()

    def __enter__(self) -> "ShardSupervisor[ResultT]":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- internals
    def _complete(self, state: ShardAttempts, result: ResultT, seconds: float) -> None:
        outcome = ShardOutcome(
            shard_id=state.shard_id,
            result=result,
            seconds=seconds,
            attempts=state.attempt + 1,
            timeouts=state.timeouts,
        )
        self._outcomes.append(outcome)
        if self._on_result is not None:
            self._on_result(outcome)

    def _run_serial(self, states: list[ShardAttempts]) -> None:
        """Supervised in-process execution.

        Faults (when a plan is injected) run in *simulation* mode: hangs
        advance the injected clock and surface as ``ShardTimeoutError``,
        kills surface as ``WorkerCrashError`` — the parent process is never
        actually stalled or killed.
        """
        for state in states:
            while True:
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.apply(
                            state.shard_id,
                            state.attempt,
                            in_worker=False,
                            clock=self.clock,
                            timeout=self.resilience.shard_timeout,
                        )
                    result, seconds = _timed_call(
                        self.shard_fn, self.payload, state.args
                    )
                except Exception as exc:  # noqa: BLE001 — supervision boundary
                    state.record_failure(exc)
                    if self._should_retry(state, exc):
                        self.clock.sleep(
                            self.retry_policy.delay(state.attempt, key=state.shard_id)
                        )
                        continue
                    self._handle_exhausted(state, exc)
                    break
                self._complete(state, result, seconds)
                break

    def _run_pool(self, states: list[ShardAttempts]) -> None:
        """Supervised process-pool execution with pool-rebuild recovery."""
        timeout = self.resilience.shard_timeout
        report = self._report
        pool = self._ensure_pool()
        pending = states
        while pending:
            futures: list[tuple[ShardAttempts, Future[tuple[ResultT, float]] | None]] = []
            broken = False
            for state in pending:
                future = None
                if not broken:
                    try:
                        future = pool.submit(
                            _run_in_worker,
                            self.shard_fn,
                            state.shard_id,
                            state.attempt,
                            state.args,
                        )
                    except BrokenProcessPool:
                        broken = True
                futures.append((state, future))

            retry_wave: list[ShardAttempts] = []
            for state, future in futures:
                exc: Exception
                if future is None:
                    exc = WorkerCrashError(state.shard_id, detail="process pool broken")
                elif not wait([future], timeout=timeout).done:
                    # Waited, not ``future.result(timeout=...)``: since Python
                    # 3.11 a shard that itself raised the builtin
                    # ``TimeoutError`` would look exactly like an expired wait.
                    exc = ShardTimeoutError(state.shard_id, timeout or 0.0)
                    future.cancel()
                else:
                    try:
                        result, seconds = future.result()
                    except BrokenProcessPool:
                        broken = True
                        exc = WorkerCrashError(
                            state.shard_id, detail="worker process died"
                        )
                    except Exception as raw:  # noqa: BLE001 — supervision boundary
                        exc = raw
                    else:
                        self._complete(state, result, seconds)
                        continue
                state.record_failure(exc)
                if self._should_retry(state, exc):
                    retry_wave.append(state)
                else:
                    self._handle_exhausted(state, exc)

            if broken:
                pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
                report.pool_rebuilds += 1
                if report.pool_rebuilds > self.resilience.max_pool_rebuilds:
                    # The pool keeps dying: degrade to in-process serial
                    # execution for everything still unfinished.
                    report.degraded_to_serial = True
                    self._run_serial(retry_wave)
                    return
                pool = self._ensure_pool()

            if retry_wave:
                # One backoff per wave: the longest of the per-shard delays
                # (per-shard sleeps would serialize the pool).
                self.clock.sleep(
                    max(
                        self.retry_policy.delay(s.attempt, key=s.shard_id)
                        for s in retry_wave
                    )
                )
            pending = retry_wave

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.num_workers,
                initializer=_init_worker,
                initargs=(self.payload, self.fault_plan, self.resilience.shard_timeout),
            )
        return self._pool

    def _should_retry(self, state: ShardAttempts, exc: Exception) -> bool:
        return (
            self.retry_policy.is_retryable(exc)
            and state.attempt < self.retry_policy.max_attempts
        )

    def _handle_exhausted(self, state: ShardAttempts, exc: Exception) -> None:
        """Apply ``on_shard_failure`` once a shard's attempt budget is spent."""
        mode = self.resilience.on_shard_failure
        if mode == "serial_fallback":
            # Last resort: run the shard in-process, bypassing the pool and
            # the fault-injection layer (both model infrastructure faults,
            # and the in-process path has neither workers nor injectors).
            try:
                result, seconds = _timed_call(self.shard_fn, self.payload, state.args)
            except Exception as fallback_exc:  # noqa: BLE001 — supervision boundary
                raise ShardFailedError(
                    state.shard_id, state.attempt + 1, fallback_exc
                ) from fallback_exc
            self._complete(state, result, seconds)
            return
        if mode == "skip":
            self._report.failed_shards.append(
                ShardFailure.from_error(
                    state.shard_id, state.attempt, exc, state.timeouts
                )
            )
            return
        if self.retry_policy.is_retryable(exc):
            raise RetryExhaustedError(state.shard_id, state.attempt, exc) from exc
        raise ShardFailedError(state.shard_id, state.attempt, exc) from exc
