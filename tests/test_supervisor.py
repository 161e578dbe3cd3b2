"""Tests for the executor's supervision loop (:mod:`repro.runtime.executor`).

A :class:`ShardedDivisionExecutor` run proceeds in supervision rounds: every
pending shard applies its own fault-plan entry, the shards that pass are
divided together in one lockstep ``divide`` call, and a failed shard backs
off and joins the next round until it succeeds or its attempts run out, and
then it is skipped.  An error of the lockstep call itself counts against
every shard it carried.  What is under test here is that loop: attempt
bookkeeping, the rounds (counted as ``divide`` calls), backoff on the
injected clock and skip semantics, on hand-written and generated fault
schedules.  Everything runs on a :class:`FakeClock`, with zero real sleeps.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.executor as executor_module
from repro.clock import FakeClock
from repro.core.config import ResilienceConfig
from repro.graph.generators import paper_figure7_network
from repro.runtime import Fault, FaultPlan, ShardedDivisionExecutor
from repro.runtime.executor import backoff_delay
from repro.runtime.faultinject import FAULT_KINDS

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
def divide_calls(monkeypatch):
    """The egos of every lockstep ``divide`` call the executor makes."""
    calls = []
    divide = executor_module.divide

    def counted(snapshot, egos, detector):
        calls.append(list(egos))
        return divide(snapshot, egos=egos, detector=detector)

    monkeypatch.setattr(executor_module, "divide", counted)
    return calls


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
        # Shards 0 and 2 are divided in round 0; shard 1 retries alone in
        # rounds 1 and 2 and keeps its own attempt count and backoff keys.
        assert _attempts(report) == [(0, 1, 0), (1, 3, 0), (2, 1, 0)]
        assert report.division.communities_by_ego == clean
        assert clock.sleeps == [backoff_delay(1, 1, seed=0), backoff_delay(2, 1, seed=0)]

    def test_hang_surfaces_as_timeout_and_retries(self, graph, clean, no_real_sleep):
        plan = FaultPlan([Fault(0, 0, "hang", duration=2.0)])
        clock = FakeClock()
        report = _executor(plan, clock=clock).run(graph)
        assert _attempts(report)[0] == (0, 2, 1)
        assert report.division.communities_by_ego == clean
        # The simulated stall (the fault's duration), then one backoff.
        assert clock.sleeps == [2.0, backoff_delay(1, 0, seed=0)]

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


# ------------------------------------------------------------- counted rounds
class TestLockstepRounds:
    def test_a_clean_run_is_one_divide_call(self, graph, clean, divide_calls):
        report = _executor().run(graph)
        nodes = list(graph.nodes())
        # One call carrying every shard's egos, in shard order.
        assert divide_calls == [nodes[0::3] + nodes[1::3] + nodes[2::3]]
        assert report.division.communities_by_ego == clean

    @pytest.mark.parametrize("kind", ["transient", "hang", "kill"])
    @pytest.mark.parametrize("r", [1, 2])
    def test_faults_that_clear_by_attempt_r_make_r_plus_one_calls(
        self, graph, clean, divide_calls, no_real_sleep, kind, r
    ):
        # Shard s fails its first min(s, r) attempts, so shard min(s, r)
        # passes in each round 0..r and every round makes one call.
        plan = FaultPlan(
            Fault(shard, attempt, kind)
            for shard in range(3)
            for attempt in range(min(shard, r))
        )
        report = _executor(plan).run(graph)
        assert len(divide_calls) == r + 1
        assert [item.attempts for item in report.shard_reports] == [
            min(shard, r) + 1 for shard in range(3)
        ]
        assert report.division.communities_by_ego == clean


# -------------------------------------------------- generated fault schedules
@pytest.fixture(scope="module")
def figure7():
    graph = paper_figure7_network()
    return graph, _executor().run(graph).division.communities_by_ego


def _expected_outcome(plan, shard_id, max_attempts):
    """``(succeeded, attempts, timeouts, sleeps)`` of one shard, read off its
    own plan entries: a fault fails the attempt, a permanent one or the last
    attempt ends the shard, a clean attempt succeeds."""
    timeouts, sleeps = 0, []
    for attempt in range(max_attempts):
        fault = plan.fault_for(shard_id, attempt)
        if fault is None:
            return True, attempt + 1, timeouts, sleeps
        if fault.kind == "hang":
            timeouts += 1
            sleeps.append(fault.duration)
        if fault.kind == "permanent" or attempt + 1 == max_attempts:
            return False, attempt + 1, timeouts, sleeps
        sleeps.append(backoff_delay(attempt + 1, shard_id, seed=0))
    raise AssertionError("unreachable: the last attempt always ends the shard")


@st.composite
def _fault_plans(draw):
    max_attempts = draw(st.integers(1, 3))
    slots = st.tuples(st.integers(0, 2), st.integers(0, max_attempts - 1))
    faults = draw(st.dictionaries(slots, st.sampled_from(FAULT_KINDS), max_size=9))
    plan = FaultPlan(
        Fault(shard, attempt, kind, duration=0.25)
        for (shard, attempt), kind in faults.items()
    )
    return max_attempts, plan


class TestGeneratedFaultSchedules:
    """Random fault plans on the Figure 7 graph: every shard's outcome is
    what its own plan entries imply, whichever shards share its rounds."""

    @settings(max_examples=60, deadline=None)
    @given(drawn=_fault_plans())
    def test_each_shard_follows_its_own_plan(self, figure7, drawn):
        graph, clean = figure7
        max_attempts, plan = drawn
        clock = FakeClock()
        with mock.patch.object(
            executor_module, "divide", wraps=executor_module.divide
        ) as divide:
            report = _executor(plan, clock=clock, max_attempts=max_attempts).run(graph)
        expected = {s: _expected_outcome(plan, s, max_attempts) for s in range(3)}
        survivors = [s for s in range(3) if expected[s][0]]
        assert [f.shard_id for f in report.failed_shards] == [
            s for s in range(3) if not expected[s][0]
        ]
        assert _attempts(report) == [(s, *expected[s][1:3]) for s in survivors]
        assert [(f.attempts, f.timeouts) for f in report.failed_shards] == [
            expected[s][1:3] for s in range(3) if not expected[s][0]
        ]
        nodes = list(graph.nodes())
        assert report.division.communities_by_ego == {
            ego: clean[ego] for s in survivors for ego in nodes[s::3]
        }
        assert sorted(clock.sleeps) == sorted(
            sleep for s in range(3) for sleep in expected[s][3]
        )
        # A shard's attempt number is the round's: one call per round in
        # which some shard passed.
        assert divide.call_count == len({expected[s][1] for s in survivors})
