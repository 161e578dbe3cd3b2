"""Tests for the executor's supervision loop (:mod:`repro.runtime.executor`).

Each shard of a :class:`ShardedDivisionExecutor` run is retried in place
until it succeeds or its attempts run out, and then it is skipped.  What is
under test here is that loop: attempt bookkeeping, retry ordering, backoff
on the injected clock and skip semantics.  Everything runs on a
:class:`FakeClock`, with zero real sleeps.
"""

from __future__ import annotations

import pytest

import repro.runtime.executor as executor_module
from repro.core.config import ResilienceConfig
from repro.graph.generators import paper_figure7_network
from repro.runtime import FakeClock, Fault, FaultPlan, ShardedDivisionExecutor
from repro.runtime.resilience import RetryPolicy

DETECTOR = "label_propagation"


@pytest.fixture
def graph():
    return paper_figure7_network()


@pytest.fixture
def clean(graph):
    return _executor().run(graph).division.communities_by_ego


def _executor(plan=None, *, clock=None, **resilience):
    return ShardedDivisionExecutor(
        num_shards=3,
        detector=DETECTOR,
        resilience=ResilienceConfig(**resilience),
        fault_plan=plan,
        clock=clock if clock is not None else FakeClock(),
    )


def _attempts(report):
    return [(r.shard_id, r.attempts, r.timeouts) for r in report.shard_reports]


@pytest.fixture
def no_real_sleep(monkeypatch):
    def _boom(seconds):  # pragma: no cover - only fires on regression
        raise AssertionError(f"real time.sleep({seconds}) in fast-tier test")

    monkeypatch.setattr("time.sleep", _boom)


# ------------------------------------------------------------------ reporting
class TestReportTotals:
    def test_failed_shards_count_towards_retries_and_timeouts(self, graph, no_real_sleep):
        plan = FaultPlan(
            [Fault(0, 0, "hang")] + [Fault(2, attempt, "hang") for attempt in range(3)]
        )
        report = _executor(plan).run(graph)
        assert _attempts(report) == [(0, 2, 1), (1, 1, 0)]
        (failure,) = report.failed_shards
        assert (failure.shard_id, failure.attempts, failure.timeouts) == (2, 3, 3)
        assert "ShardTimeoutError" in failure.error
        assert report.total_timeouts == 1 + 3
        assert report.total_retries == 1 + 2


# ---------------------------------------------------------------- retry loop
class TestSerialLoop:
    def test_clean_run_returns_outcomes_by_shard_id(self, graph, clean, no_real_sleep):
        clock = FakeClock()
        report = _executor(clock=clock).run(graph)
        assert _attempts(report) == [(0, 1, 0), (1, 1, 0), (2, 1, 0)]
        assert report.division.communities_by_ego == clean
        assert clock.sleeps == []
        assert report.failed_shards == []

    def test_no_tasks_is_a_no_op(self, graph):
        clock = FakeClock()
        report = _executor(FaultPlan([Fault(0, 0, "hang")]), clock=clock).run(
            graph, egos=[]
        )
        assert (report.shard_reports, report.failed_shards) == ([], [])
        assert report.division.num_egos == 0 and clock.sleeps == []

    def test_transient_retries_in_place_then_succeeds(self, graph, clean, no_real_sleep):
        plan = FaultPlan([Fault(1, 0, "transient"), Fault(1, 1, "transient")])
        clock = FakeClock()
        report = _executor(plan, clock=clock).run(graph)
        # Retries happen in place: shard 1 finishes before shard 2 starts.
        assert _attempts(report) == [(0, 1, 0), (1, 3, 0), (2, 1, 0)]
        assert report.division.communities_by_ego == clean
        policy = RetryPolicy.from_config(ResilienceConfig())
        assert clock.sleeps == [policy.delay(1, key=1), policy.delay(2, key=1)]

    def test_hang_surfaces_as_timeout_and_retries(self, graph, clean, no_real_sleep):
        plan = FaultPlan([Fault(0, 0, "hang", duration=2.0)])
        clock = FakeClock()
        report = _executor(plan, clock=clock).run(graph)
        assert _attempts(report)[0] == (0, 2, 1)
        assert report.division.communities_by_ego == clean
        # The simulated stall (the fault's duration), then one backoff.
        policy = RetryPolicy.from_config(ResilienceConfig())
        assert clock.sleeps == [2.0, policy.delay(1, key=0)]

    def test_simulated_kill_is_retried(self, graph, no_real_sleep):
        report = _executor(FaultPlan([Fault(2, 0, "kill")])).run(graph)
        assert [r.attempts for r in report.shard_reports] == [1, 1, 2]

    def test_permanent_skip_mode_keeps_going(self, graph, clean, no_real_sleep):
        clock = FakeClock()
        report = _executor(FaultPlan([Fault(1, 0, "permanent")]), clock=clock).run(graph)
        assert [r.shard_id for r in report.shard_reports] == [0, 2]
        (failure,) = report.failed_shards
        assert (failure.shard_id, failure.attempts, failure.timeouts) == (1, 1, 0)
        assert "PermanentInjectedError" in failure.error
        assert clock.sleeps == []  # a permanent fault is never retried
        # Round-robin put every third node in shard 1: exactly those are missing.
        skipped = set(list(graph.nodes())[1::3])
        assert set(report.division.communities_by_ego) == set(clean) - skipped
        for ego, communities in report.division.communities_by_ego.items():
            assert communities == clean[ego]

    def test_a_shards_own_timeout_error_is_not_a_shard_timeout(
        self, graph, clean, monkeypatch, no_real_sleep
    ):
        """A shard whose own code raises the builtin ``TimeoutError`` (a
        socket read, say) is retried as the plain error it is, and is not
        counted as a simulated hang."""
        timed_out_once = set()
        divide = executor_module.divide

        def divide_after_own_timeout(snapshot, egos, detector):
            if egos[0] not in timed_out_once:
                timed_out_once.add(egos[0])
                raise TimeoutError("read timed out")
            return divide(snapshot, egos=egos, detector=detector)

        monkeypatch.setattr(executor_module, "divide", divide_after_own_timeout)
        report = _executor().run(graph)
        assert _attempts(report) == [(0, 2, 0), (1, 2, 0), (2, 2, 0)]
        assert report.division.communities_by_ego == clean
        timed_out_once.clear()
        report = _executor(max_attempts=1).run(graph)
        assert report.shard_reports == []
        assert [f.error.split("(")[0] for f in report.failed_shards] == ["TimeoutError"] * 3
        assert report.total_timeouts == 0
