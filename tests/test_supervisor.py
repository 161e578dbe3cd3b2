"""Tests for the generic supervised shard runner (:mod:`repro.runtime.supervisor`).

The supervisor is driven directly with trivial module-level callables — no
graph, no kernel — so what is under test is the supervision itself: attempt
bookkeeping, retry ordering, backoff, ``on_shard_failure`` semantics and
pool lifetime.  Everything runs on a :class:`FakeClock`; the pooled wave
loop is exercised in the fast tier through an in-process stand-in for
``ProcessPoolExecutor`` and once, in the ``slow`` tier, against real worker
processes.
"""

from __future__ import annotations

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.runtime.supervisor as supervisor_module
from repro.core.config import ResilienceConfig
from repro.exceptions import (
    RetryExhaustedError,
    ShardFailedError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import paper_figure7_network
from repro.lint.config import default_config
from repro.runtime import FakeClock, Fault, FaultPlan, RetryPolicy
from repro.runtime.faultinject import PermanentInjectedError
from repro.runtime.supervisor import ShardSupervisor, SupervisionReport

PAYLOAD = 3
TASKS = [(shard_id, ([shard_id, shard_id + 10],)) for shard_id in range(3)]
CLEAN = {shard_id: [PAYLOAD * shard_id, PAYLOAD * (shard_id + 10)] for shard_id in range(3)}


# ------------------------------------------------- module-level specialisation
def _scale(factor, values):
    return [factor * value for value in values]


def _scale_unless_negative(factor, values):
    if factor < 0:
        raise ValueError("negative factor")
    return _scale(factor, values)


def _scale_first(boxed, values):
    return _scale(boxed[0], values)


#: Shards that already raised their own ``TimeoutError`` once.
_TIMED_OUT_ONCE: set[int] = set()


def _scale_after_own_timeout(factor, values):
    """Raise the builtin ``TimeoutError`` (a socket read, say) once per shard."""
    if values[0] not in _TIMED_OUT_ONCE:
        _TIMED_OUT_ONCE.add(values[0])
        raise TimeoutError("read timed out")
    return _scale(factor, values)


def _supervise(
    plan=None,
    *,
    payload=PAYLOAD,
    shard_fn=_scale,
    num_workers=1,
    clock=None,
    **resilience,
):
    return ShardSupervisor(
        payload,
        shard_fn=shard_fn,
        num_workers=num_workers,
        resilience=ResilienceConfig(**resilience),
        fault_plan=plan,
        clock=clock if clock is not None else FakeClock(),
    )


def _results(outcomes):
    return {outcome.shard_id: outcome.result for outcome in outcomes}


@pytest.fixture
def no_real_sleep(monkeypatch):
    def _boom(seconds):  # pragma: no cover - only fires on regression
        raise AssertionError(f"real time.sleep({seconds}) in fast-tier test")

    monkeypatch.setattr("time.sleep", _boom)


# ------------------------------------------------------------------ reporting
class TestReportTotals:
    def test_failed_shards_count_towards_retries_and_timeouts(self, no_real_sleep):
        plan = FaultPlan(
            [Fault(0, 0, "hang")] + [Fault(2, attempt, "hang") for attempt in range(3)]
        )
        report = SupervisionReport()
        with _supervise(plan, shard_timeout=1.0, on_shard_failure="skip") as supervisor:
            outcomes = supervisor.run(TASKS, report)
        assert [(o.shard_id, o.attempts, o.timeouts) for o in outcomes] == [
            (0, 2, 1),
            (1, 1, 0),
        ]
        (failure,) = report.failed_shards
        assert (failure.shard_id, failure.attempts, failure.timeouts) == (2, 3, 3)
        assert "ShardTimeoutError" in failure.error
        # Callers fold outcomes into their own per-shard reports; with none
        # folded in, the totals are exactly the failed shard's share.
        assert report.total_timeouts == 3
        assert report.total_retries == 2


# ---------------------------------------------------------------- serial loop
class TestSerialLoop:
    def test_clean_run_returns_outcomes_by_shard_id(self, no_real_sleep):
        report = SupervisionReport()
        clock = FakeClock()
        with _supervise(clock=clock) as supervisor:
            outcomes = supervisor.run(list(reversed(TASKS)), report)
        assert [o.shard_id for o in outcomes] == [0, 1, 2]
        assert _results(outcomes) == CLEAN
        assert all((o.attempts, o.timeouts) == (1, 0) for o in outcomes)
        assert clock.sleeps == []
        assert report.failed_shards == []

    def test_no_tasks_is_a_no_op(self):
        with _supervise(num_workers=2) as supervisor:
            assert supervisor.run([], SupervisionReport()) == []
            assert supervisor._pool is None

    def test_transient_retries_in_place_then_succeeds(self, no_real_sleep):
        plan = FaultPlan([Fault(1, 0, "transient"), Fault(1, 1, "transient")])
        clock = FakeClock()
        completed = []
        with _supervise(plan, clock=clock) as supervisor:
            outcomes = supervisor.run(
                TASKS, SupervisionReport(), on_result=lambda o: completed.append(o.shard_id)
            )
        # Serial retries happen in place: shard 1 finishes before shard 2 starts.
        assert completed == [0, 1, 2]
        assert [o.attempts for o in outcomes] == [1, 3, 1]
        assert _results(outcomes) == CLEAN
        policy = RetryPolicy.from_config(ResilienceConfig())
        assert clock.sleeps == [policy.delay(1, key=1), policy.delay(2, key=1)]

    def test_hang_surfaces_as_timeout_and_retries(self, no_real_sleep):
        plan = FaultPlan([Fault(0, 0, "hang")])
        clock = FakeClock()
        with _supervise(plan, clock=clock, shard_timeout=1.0) as supervisor:
            outcomes = supervisor.run(TASKS, SupervisionReport())
        assert (outcomes[0].attempts, outcomes[0].timeouts) == (2, 1)
        assert _results(outcomes) == CLEAN
        # The simulated stall (2x the timeout), then one backoff.
        policy = RetryPolicy.from_config(ResilienceConfig())
        assert clock.sleeps == [2.0, policy.delay(1, key=0)]

    def test_simulated_kill_is_retried(self, no_real_sleep):
        plan = FaultPlan([Fault(2, 0, "kill")])
        with _supervise(plan) as supervisor:
            outcomes = supervisor.run(TASKS, SupervisionReport())
        assert [o.attempts for o in outcomes] == [1, 1, 2]

    def test_retry_budget_exhaustion_raises_with_cause(self, no_real_sleep):
        plan = FaultPlan([Fault(0, attempt, "hang") for attempt in range(2)])
        with _supervise(plan, max_attempts=2, shard_timeout=1.0) as supervisor:
            with pytest.raises(RetryExhaustedError) as info:
                supervisor.run(TASKS, SupervisionReport())
        assert info.value.attempts == 2
        assert isinstance(info.value.cause, ShardTimeoutError)

    def test_permanent_raise_mode_aborts_without_retrying(self, no_real_sleep):
        clock = FakeClock()
        completed = []
        with _supervise(FaultPlan([Fault(1, 0, "permanent")]), clock=clock) as supervisor:
            with pytest.raises(ShardFailedError) as info:
                supervisor.run(
                    TASKS, SupervisionReport(), on_result=lambda o: completed.append(o.shard_id)
                )
        assert not isinstance(info.value, RetryExhaustedError)
        assert info.value.attempts == 1
        assert isinstance(info.value.cause, PermanentInjectedError)
        assert completed == [0] and clock.sleeps == []

    def test_permanent_skip_mode_keeps_going(self, no_real_sleep):
        report = SupervisionReport()
        plan = FaultPlan([Fault(1, 0, "permanent")])
        with _supervise(plan, on_shard_failure="skip") as supervisor:
            outcomes = supervisor.run(TASKS, report)
        assert _results(outcomes) == {0: CLEAN[0], 2: CLEAN[2]}
        (failure,) = report.failed_shards
        assert (failure.shard_id, failure.attempts, failure.timeouts) == (1, 1, 0)
        assert "PermanentInjectedError" in failure.error

    def test_permanent_serial_fallback_bypasses_the_injector(self, no_real_sleep):
        report = SupervisionReport()
        plan = FaultPlan([Fault(1, 0, "permanent")])
        with _supervise(plan, on_shard_failure="serial_fallback") as supervisor:
            outcomes = supervisor.run(TASKS, report)
        assert _results(outcomes) == CLEAN
        assert [o.attempts for o in outcomes] == [1, 2, 1]
        assert not report.failed_shards

    def test_serial_fallback_that_fails_too_raises(self, no_real_sleep):
        with _supervise(
            payload=-1, shard_fn=_scale_unless_negative, on_shard_failure="serial_fallback"
        ) as supervisor:
            with pytest.raises(ShardFailedError) as info:
                supervisor.run(TASKS, SupervisionReport())
        assert info.value.attempts == 2
        assert isinstance(info.value.cause, ValueError)


# ----------------------------------------------------- pooled loop, in-process
class _InlinePool:
    """``ProcessPoolExecutor`` stand-in running every task in this process."""

    created = 0
    broken_generations = 0

    def __init__(self, max_workers, initializer, initargs):
        type(self).created += 1
        self.generation = type(self).created
        initializer(*initargs)

    def submit(self, fn, *args):
        if self.generation <= self.broken_generations:
            raise BrokenProcessPool("injected: pool is dead")
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 — relayed like a worker would
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def inline_pool(monkeypatch, no_real_sleep):
    monkeypatch.setattr(_InlinePool, "created", 0)
    monkeypatch.setattr(_InlinePool, "broken_generations", 0)
    monkeypatch.setattr(supervisor_module, "ProcessPoolExecutor", _InlinePool)
    yield _InlinePool
    supervisor_module.reset_worker_state()


class TestPooledLoop:
    def test_retry_wave_sleeps_once_for_the_longest_delay(self, inline_pool):
        plan = FaultPlan([Fault(0, 0, "transient"), Fault(2, 0, "transient")])
        clock = FakeClock()
        completed = []
        with _supervise(plan, num_workers=2, clock=clock) as supervisor:
            outcomes = supervisor.run(
                TASKS, SupervisionReport(), on_result=lambda o: completed.append(o.shard_id)
            )
        # Failed shards rejoin as one wave after everything else was collected.
        assert completed == [1, 0, 2]
        assert [o.attempts for o in outcomes] == [2, 1, 2]
        assert _results(outcomes) == CLEAN
        policy = RetryPolicy.from_config(ResilienceConfig())
        assert clock.sleeps == [max(policy.delay(1, key=0), policy.delay(1, key=2))]

    def test_standing_pool_serves_every_run_until_close(self, inline_pool):
        payload = [PAYLOAD]  # an object whose identity the workers can show
        supervisor = _supervise(num_workers=2, payload=payload, shard_fn=_scale_first)
        assert _results(supervisor.run(TASKS, SupervisionReport())) == CLEAN
        assert _results(supervisor.run(TASKS, SupervisionReport())) == CLEAN
        # One pool served both runs, and its workers hold the payload as given.
        assert inline_pool.created == 1
        assert supervisor_module._WORKER_PAYLOAD is payload
        supervisor.close()
        supervisor.close()  # idempotent
        assert supervisor._pool is None
        assert supervisor_module._WORKER_PAYLOAD is None

    def test_a_shards_own_timeout_error_is_not_a_shard_timeout(self, inline_pool):
        """Since Python 3.11 ``concurrent.futures.TimeoutError`` *is* the
        builtin: a shard that raises it must count as the plain error it is,
        under a pool exactly as serially."""
        counts, causes = {}, {}
        for workers in (1, 2):
            _TIMED_OUT_ONCE.clear()
            report = SupervisionReport()
            with _supervise(
                num_workers=workers, shard_fn=_scale_after_own_timeout
            ) as supervisor:
                outcomes = supervisor.run(TASKS, report)
            assert _results(outcomes) == CLEAN
            counts[workers] = [(o.attempts, o.timeouts) for o in outcomes]
            _TIMED_OUT_ONCE.clear()
            with _supervise(
                num_workers=workers, shard_fn=_scale_after_own_timeout, max_attempts=1
            ) as supervisor:
                with pytest.raises(RetryExhaustedError) as info:
                    supervisor.run(TASKS, SupervisionReport())
            causes[workers] = type(info.value.cause)
        assert counts[1] == counts[2] == [(2, 0)] * 3
        assert causes[1] is causes[2] is TimeoutError

    def test_broken_pool_is_rebuilt_then_degrades_to_serial(self, inline_pool):
        inline_pool.broken_generations = 2
        report = SupervisionReport()
        with _supervise(num_workers=2, max_pool_rebuilds=1) as supervisor:
            outcomes = supervisor.run(TASKS, report)
            assert supervisor._pool is None  # degraded: no pool left standing
        assert _results(outcomes) == CLEAN
        # Two broken generations cost every shard two attempts.
        assert [o.attempts for o in outcomes] == [3, 3, 3]
        assert (report.pool_rebuilds, report.degraded_to_serial) == (2, True)
        assert inline_pool.created == 2

    def test_broken_pool_exhausting_the_attempt_budget_raises(self, inline_pool):
        inline_pool.broken_generations = 2
        with _supervise(num_workers=2, max_attempts=2, max_pool_rebuilds=5) as supervisor:
            with pytest.raises(RetryExhaustedError) as info:
                supervisor.run(TASKS, SupervisionReport())
        assert isinstance(info.value.cause, WorkerCrashError)


# --------------------------------------------------------------- lint scope
class TestLintScope:
    def test_mp_rules_cover_the_supervised_runtime(self):
        config = default_config()
        assert config.applies_to("MP001", "src/repro/runtime/executor.py")
        assert config.applies_to("MP001", "src/repro/runtime/supervisor.py")

    def test_pinned_entries_survive_scope_narrowing(self):
        """The explicit file entries keep the MP rules on the supervisor and
        its executor even if the broad src/repro prefix is dropped."""
        config = default_config().with_scope(
            "MP001",
            "src/repro/runtime/executor.py",
            "src/repro/runtime/supervisor.py",
        )
        assert config.applies_to("MP001", "src/repro/runtime/executor.py")
        assert config.applies_to("MP001", "src/repro/runtime/supervisor.py")
        assert not config.applies_to("MP001", "src/repro/core/pipeline.py")


# ------------------------------------------------------ pooled loop, for real
def _degree_sum(graph, nodes):
    return sum(graph.degree(node) for node in nodes)


@pytest.mark.slow
def test_killed_worker_exhausts_rebuild_budget_and_degrades_without_leaking():
    graph = CSRGraph.from_graph(paper_figure7_network())
    nodes = list(graph.nodes())
    tasks = [(shard_id, (nodes[shard_id::3],)) for shard_id in range(3)]
    clean = {shard_id: _degree_sum(graph, args[0]) for shard_id, args in tasks}
    report = SupervisionReport()
    with ShardSupervisor(
        graph,
        shard_fn=_degree_sum,
        num_workers=2,
        resilience=ResilienceConfig(max_pool_rebuilds=0),
        fault_plan=FaultPlan([Fault(0, 0, "kill")]),
        clock=FakeClock(),
    ) as supervisor:
        outcomes = supervisor.run(tasks, report)
        assert supervisor._pool is None  # the dead pool was not kept standing
    assert _results(outcomes) == clean
    assert (report.pool_rebuilds, report.degraded_to_serial) == (1, True)
    assert outcomes[0].attempts >= 2
    assert supervisor_module._WORKER_PAYLOAD is None
