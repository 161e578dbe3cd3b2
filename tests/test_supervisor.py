"""Tests for the generic supervised shard runner (:mod:`repro.runtime.supervisor`).

The supervisor is driven directly with trivial module-level callables — no
graph, no kernel — so what is under test is the supervision itself: attempt
bookkeeping, retry ordering, backoff, ``on_shard_failure`` semantics,
transport resolution and lease lifetime.  Everything runs on a
:class:`FakeClock`; the pooled wave loop is exercised in the fast tier
through an in-process stand-in for ``ProcessPoolExecutor`` and once, in the
``slow`` tier, against real worker processes and real shared memory.
"""

from __future__ import annotations

import pickle
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro.runtime.supervisor as supervisor_module
from repro.core.config import ResilienceConfig
from repro.exceptions import (
    ExecutorError,
    RetryExhaustedError,
    ShardFailedError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import paper_figure7_network
from repro.graph.shm import SharedCSRGraph, handle_nbytes, shm_supported
from repro.lint.config import default_config
from repro.runtime import FakeClock, Fault, FaultPlan, RetryPolicy
from repro.runtime.faultinject import PermanentInjectedError
from repro.runtime.supervisor import (
    ShardSupervisor,
    SupervisionReport,
    TransportStats,
)

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


def _double(payload):
    return payload * 2


def _no_shared_form(prepared):
    return None


def _publish_fails(prepared):
    raise OSError("no space left on /dev/shm")


def _must_not_publish(prepared):  # pragma: no cover - only fires on regression
    raise AssertionError("transport='pickle' must never publish")


@dataclass
class _FakeHandle:
    value: int

    def attach(self):
        return self.value


class _FakeLease:
    """Duck-typed :class:`~repro.graph.shm.ShmLease` that counts its closes."""

    segment_names = ("psm_fake_a", "psm_fake_b")
    segment_nbytes = 128

    def __init__(self, value):
        self.handle = _FakeHandle(value)
        self.released = False
        self.closes = 0

    def close(self):
        self.closes += 1
        self.released = True


_PUBLISHED: list[_FakeLease] = []


def _publish_fake(prepared):
    _PUBLISHED.append(_FakeLease(prepared))
    return _PUBLISHED[-1]


def _supervise(
    plan=None,
    *,
    payload=PAYLOAD,
    shard_fn=_scale,
    publish=_no_shared_form,
    prepare=None,
    num_workers=1,
    clock=None,
    **resilience,
):
    return ShardSupervisor(
        payload,
        shard_fn=shard_fn,
        publish=publish,
        prepare=prepare,
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

    def test_transport_stats_default_is_inline_with_no_fallback(self):
        stats = TransportStats()
        assert (stats.transport, stats.fallback_error) == ("inline", "")
        assert stats.shipped_bytes == 0


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
        assert report.transport.transport == "inline"
        assert report.transport.num_workers == 1
        assert report.transport.peak_worker_rss_bytes > 0

    def test_no_tasks_is_a_no_op(self):
        with _supervise(num_workers=2) as supervisor:
            assert supervisor.run([], SupervisionReport()) == []
            assert supervisor._pool is None

    def test_prepare_runs_once_in_the_parent(self, no_real_sleep):
        with _supervise(prepare=_double) as supervisor:
            outcomes = supervisor.run(TASKS, SupervisionReport())
        assert _results(outcomes) == {
            shard_id: [2 * value for value in block] for shard_id, block in CLEAN.items()
        }

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
    _PUBLISHED.clear()
    monkeypatch.setattr(_InlinePool, "created", 0)
    monkeypatch.setattr(_InlinePool, "broken_generations", 0)
    monkeypatch.setattr(supervisor_module, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(supervisor_module, "shm_supported", lambda: True)
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

    def test_payload_without_shared_form_travels_by_pickle(self, inline_pool):
        report = SupervisionReport()
        with _supervise(num_workers=2, prepare=_double) as supervisor:
            outcomes = supervisor.run(TASKS, report)
        assert outcomes[1].result == [2 * value for value in CLEAN[1]]
        stats = report.transport
        assert (stats.transport, stats.fallback_error) == ("pickle", "")
        assert stats.payload_bytes == len(pickle.dumps(PAYLOAD, pickle.HIGHEST_PROTOCOL))
        assert stats.shipped_bytes == 2 * stats.payload_bytes
        assert stats.segment_bytes == 0

    def test_explicit_pickle_never_publishes(self, inline_pool):
        report = SupervisionReport()
        with _supervise(
            num_workers=2, publish=_must_not_publish, transport="pickle"
        ) as supervisor:
            assert _results(supervisor.run(TASKS, report)) == CLEAN
        assert report.transport.transport == "pickle"

    def test_auto_records_why_it_fell_back_to_pickle(self, inline_pool):
        report = SupervisionReport()
        with _supervise(num_workers=2, publish=_publish_fails) as supervisor:
            assert _results(supervisor.run(TASKS, report)) == CLEAN
        assert report.transport.transport == "pickle"
        assert report.transport.fallback_error == repr(
            OSError("no space left on /dev/shm")
        )

    def test_explicit_shm_raises_the_publish_failure(self, inline_pool):
        with _supervise(
            num_workers=2, publish=_publish_fails, transport="shm"
        ) as supervisor:
            with pytest.raises(OSError, match="no space left"):
                supervisor.run(TASKS, SupervisionReport())
            assert supervisor._pool is None

    def test_explicit_shm_refuses_a_payload_without_shared_form(self, inline_pool):
        with _supervise(num_workers=2, transport="shm") as supervisor:
            with pytest.raises(ExecutorError, match="shared-memory form"):
                supervisor.run(TASKS, SupervisionReport())

    def test_lease_is_published_once_and_swept_exactly_once(self, inline_pool):
        first, second = SupervisionReport(), SupervisionReport()
        supervisor = _supervise(num_workers=2, publish=_publish_fake)
        assert _results(supervisor.run(TASKS, first)) == CLEAN
        assert _results(supervisor.run(TASKS, second)) == CLEAN
        (lease,) = _PUBLISHED  # the standing pool and lease served both runs
        assert inline_pool.created == 1
        for report in (first, second):
            stats = report.transport
            assert (stats.transport, stats.segment_bytes) == ("shm", 128)
            assert stats.payload_bytes == handle_nbytes(lease.handle)
        assert not lease.released
        supervisor.close()
        supervisor.close()  # idempotent
        assert lease.closes == 1
        # The sweep is credited to the run that was current when it happened.
        assert (first.transport.swept_segments, second.transport.swept_segments) == (0, 2)
        assert supervisor._pool is None and supervisor._lease is None
        assert supervisor_module._WORKER_PAYLOAD is None

    def test_broken_pool_is_rebuilt_then_degrades_to_serial(self, inline_pool):
        inline_pool.broken_generations = 2
        report = SupervisionReport()
        with _supervise(
            num_workers=2, publish=_publish_fake, max_pool_rebuilds=1
        ) as supervisor:
            outcomes = supervisor.run(TASKS, report)
            assert supervisor._pool is None  # degraded: no pool left standing
        assert _results(outcomes) == CLEAN
        # Two broken generations cost every shard two attempts.
        assert [o.attempts for o in outcomes] == [3, 3, 3]
        assert (report.pool_rebuilds, report.degraded_to_serial) == (2, True)
        assert inline_pool.created == 2
        # Every generation's lease was swept on its rebuild, once.
        assert [lease.closes for lease in _PUBLISHED] == [1, 1]
        assert report.transport.swept_segments == 4

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
        for rule in ("MP001", "MP003"):
            assert config.applies_to(rule, "src/repro/runtime/executor.py")
            assert config.applies_to(rule, "src/repro/runtime/supervisor.py")

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
@pytest.mark.skipif(not shm_supported(), reason="POSIX shared memory unavailable")
def test_killed_worker_exhausts_rebuild_budget_and_degrades_without_leaking():
    shm_dir = Path("/dev/shm")

    def segments():
        if not shm_dir.is_dir():  # pragma: no cover - non-Linux
            return set()
        return {p.name for p in shm_dir.iterdir() if p.name.startswith("psm_")}

    before = segments()
    graph = CSRGraph.from_graph(paper_figure7_network())
    nodes = list(graph.nodes())
    tasks = [(shard_id, (nodes[shard_id::3],)) for shard_id in range(3)]
    clean = {shard_id: _degree_sum(graph, args[0]) for shard_id, args in tasks}
    report = SupervisionReport()
    with ShardSupervisor(
        graph,
        shard_fn=_degree_sum,
        publish=SharedCSRGraph.publish,
        num_workers=2,
        resilience=ResilienceConfig(max_pool_rebuilds=0, transport="shm"),
        fault_plan=FaultPlan([Fault(0, 0, "kill")]),
        clock=FakeClock(),
    ) as supervisor:
        outcomes = supervisor.run(tasks, report)
    assert _results(outcomes) == clean
    assert (report.pool_rebuilds, report.degraded_to_serial) == (1, True)
    assert report.transport.transport == "shm"
    assert report.transport.swept_segments > 0
    assert outcomes[0].attempts >= 2
    assert segments() - before == set()
