"""Fault-injection suite for the supervised shard executor.

Every retry / backoff / simulated-hang path runs on an injected
:class:`FakeClock` — **zero real sleeps** (enforced by a fixture that makes
``time.sleep`` raise).

The invariant checked throughout: any fault schedule that eventually
succeeds yields a merged ``DivisionResult`` bit-identical to the clean run,
and a shard whose attempts run out is skipped, never half-merged.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

from repro.core.config import ResilienceConfig
from repro.exceptions import (
    ModelConfigError,
    PipelineError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.clock import FakeClock
from repro.graph.generators import paper_figure7_network
from repro.runtime import Fault, FaultPlan, ShardedDivisionExecutor, run_chaos
from repro.runtime.executor import (
    BACKOFF_BASE,
    BACKOFF_FACTOR,
    BACKOFF_MAX,
    JITTER,
    backoff_delay,
    is_retryable,
)
from repro.runtime.faultinject import PermanentInjectedError, TransientInjectedError
from repro.runtime.sharding import Shard, shard_nodes, validate_shards


@pytest.fixture
def no_real_sleep(monkeypatch):
    """Fail the test if anything in the fast tier actually wall-sleeps."""

    def _boom(seconds):  # pragma: no cover - only fires on regression
        raise AssertionError(f"real time.sleep({seconds}) in fast-tier test")

    monkeypatch.setattr("time.sleep", _boom)


@pytest.fixture
def graph():
    return paper_figure7_network()


@pytest.fixture
def clean_division(graph):
    report = ShardedDivisionExecutor(num_shards=3, detector="girvan_newman").run(graph)
    return report.division


def _executor(graph, plan=None, clock=None, **resilience_kwargs):
    resilience = ResilienceConfig(**resilience_kwargs)
    return ShardedDivisionExecutor(
        num_shards=3,
        detector="girvan_newman",
        resilience=resilience,
        fault_plan=plan,
        clock=clock if clock is not None else FakeClock(),
    )


# ------------------------------------------------------------ retry policy
class TestRetryPolicy:
    """The executor's retry policy: fixed backoff constants, a jitter seeded
    per (run seed, shard, attempt), and the retryable error classes."""

    def test_delay_grows_exponentially_and_caps(self):
        for attempt in range(1, 10):
            base = min(BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1), BACKOFF_MAX)
            assert base <= backoff_delay(attempt, 0, seed=0) <= base * (1 + JITTER)
        assert backoff_delay(9, 0, seed=0) <= BACKOFF_MAX * (1 + JITTER)  # capped
        # The schedule the six-field RetryPolicy produced from the defaults,
        # to the bit: retiring it moved the numbers, not the sleeps.
        assert [backoff_delay(n, 2, seed=11) for n in range(1, 9)] == [
            0.05090673058974678, 0.10497296739640835, 0.21920819550909956,
            0.4021035225355415, 0.850185710219497, 1.7204682638437487,
            2.090921363854748, 2.014423099206591,
        ]

    def test_jitter_is_deterministic_and_bounded(self):
        first = backoff_delay(1, 3, seed=7)
        assert first == backoff_delay(1, 3, seed=7)  # pure function of (seed, shard, n)
        assert BACKOFF_BASE <= first <= BACKOFF_BASE * (1 + JITTER)
        assert backoff_delay(1, 4, seed=7) != first  # per-shard schedules differ

    def test_classification(self):
        assert is_retryable(ShardTimeoutError(0, 1.0))
        assert is_retryable(WorkerCrashError(0))
        assert is_retryable(TransientInjectedError(0, 0))  # transient attr
        assert not is_retryable(PermanentInjectedError(0, 0))
        assert not is_retryable(ValueError("boom"))

    def test_from_config(self, graph, no_real_sleep):
        """The executor takes its attempt budget and jitter seed from
        ``ResilienceConfig``."""
        plan = FaultPlan([Fault(0, attempt, "transient") for attempt in range(4)])
        clock = FakeClock()
        report = _executor(graph, plan=plan, clock=clock, max_attempts=5, seed=11).run(graph)
        assert report.failed_shards == [] and report.shard_reports[0].attempts == 5
        assert clock.sleeps == [backoff_delay(n, 0, seed=11) for n in range(1, 5)]
        report = _executor(graph, plan=plan, max_attempts=4, seed=11).run(graph)
        assert [item.shard_id for item in report.failed_shards] == [0]


class TestResilienceConfig:
    def test_validation(self):
        ResilienceConfig().validate()
        assert [field.name for field in dataclasses.fields(ResilienceConfig)] == [
            "max_attempts",
            "seed",
        ]
        with pytest.raises(ModelConfigError):
            ResilienceConfig(max_attempts=0).validate()

    def test_locec_config_carries_resilience(self):
        from repro.core.config import LoCECConfig

        config = LoCECConfig()
        assert config.runtime_options is config.resilience  # what the bench records
        config.resilience.max_attempts = 0
        with pytest.raises(ModelConfigError):
            config.validate()


class TestFakeClock:
    def test_sleep_advances_and_records(self):
        clock = FakeClock()
        clock.sleep(1.5)
        clock.sleep(0.5)
        assert clock.monotonic() == pytest.approx(2.0)
        assert clock.sleeps == [1.5, 0.5]


# ----------------------------------------------------------------- FaultPlan
class TestFaultPlan:
    def test_fault_lookup(self):
        plan = FaultPlan([Fault(1, 0, "transient"), Fault(2, 1, "hang")])
        assert plan.fault_for(1, 0).kind == "transient"
        assert plan.fault_for(1, 1) is None
        assert len(plan) == 2

    def test_duplicate_and_unknown_kind_rejected(self):
        with pytest.raises(PipelineError):
            FaultPlan([Fault(0, 0, "transient"), Fault(0, 0, "kill")])
        with pytest.raises(PipelineError):
            Fault(0, 0, "meteor_strike")

    def test_random_plan_is_seeded_and_eventually_succeeds(self):
        plans = [
            FaultPlan.random(range(8), seed=3, fault_rate=0.9, max_attempts=3)
            for _ in range(2)
        ]
        assert [list(p) for p in plans][0] == [list(p) for p in plans][1]
        # Faults only land on non-final attempts: attempt budget 3 means no
        # fault beyond attempt index 1, so every shard can still succeed.
        assert all(fault.attempt < 2 for fault in plans[0])
        assert len(plans[0]) > 0

    def test_injected_errors_survive_pickling(self):
        for error in (TransientInjectedError(3, 1), PermanentInjectedError(2, 0)):
            clone = pickle.loads(pickle.dumps(error))
            assert type(clone) is type(error)
            assert (clone.shard_id, clone.attempt) == (error.shard_id, error.attempt)
        timeout = pickle.loads(pickle.dumps(ShardTimeoutError(4, 2.5)))
        assert timeout.shard_id == 4 and timeout.timeout_seconds == 2.5

# ---------------------------------------------------------- shard validation
class TestShardValidation:
    def test_shard_nodes_dedupes_input(self):
        shards = shard_nodes([1, 2, 1, 3, 2], num_shards=2)
        covered = [node for shard in shards for node in shard.egos]
        assert sorted(covered) == [1, 2, 3]

    def test_empty_shards_dropped(self):
        shards = validate_shards(shard_nodes([1, 2], num_shards=5))
        assert len(shards) == 2
        assert all(shard.size > 0 for shard in shards)

    def test_duplicate_shard_ids_rejected(self):
        with pytest.raises(PipelineError):
            validate_shards([Shard(0, (1,)), Shard(0, (2,))])

    def test_overlapping_egos_rejected(self):
        with pytest.raises(PipelineError):
            validate_shards([Shard(0, (1, 2)), Shard(1, (2, 3))])

    def test_executor_drops_empty_shards(self, graph):
        report = ShardedDivisionExecutor(num_shards=6, detector="girvan_newman").run(
            graph, egos=[1, 2, 3]
        )
        assert len(report.shard_reports) == 3  # six requested, three non-empty
        assert report.division.num_egos == 3


# ------------------------------------------------------- serial supervision
class TestSerialSupervision:
    def test_transient_faults_and_timeout_yield_identical_division(
        self, graph, clean_division, no_real_sleep
    ):
        # Transient failures on two shards plus one simulated hang: the
        # acceptance scenario.  Everything recovers within the retry budget.
        plan = FaultPlan(
            [
                Fault(0, 0, "transient"),
                Fault(1, 0, "transient"),
                Fault(1, 1, "transient"),
                Fault(2, 0, "hang"),
            ]
        )
        clock = FakeClock()
        executor = _executor(graph, plan=plan, clock=clock)
        report = executor.run(graph)
        assert report.division.communities_by_ego == clean_division.communities_by_ego
        assert report.total_retries == 4
        assert report.total_timeouts == 1
        assert not report.failed_shards
        by_id = {r.shard_id: r for r in report.shard_reports}
        assert by_id[0].attempts == 2
        assert by_id[1].attempts == 3
        assert by_id[2].attempts == 2 and by_id[2].timeouts == 1
        # Backoff happened — on the virtual clock only.
        assert len(clock.sleeps) >= 4

    def test_kill_fault_is_simulated_and_retried_in_serial_mode(
        self, graph, clean_division, no_real_sleep
    ):
        plan = FaultPlan([Fault(0, 0, "kill")])
        report = _executor(graph, plan=plan).run(graph)
        assert report.division.communities_by_ego == clean_division.communities_by_ego
        assert report.total_retries == 1

    def test_skip_mode_keeps_partial_result_first_class(
        self, graph, clean_division, no_real_sleep
    ):
        plan = FaultPlan([Fault(1, attempt, "transient") for attempt in range(3)])
        report = _executor(graph, plan=plan, max_attempts=3).run(graph)
        assert [f.shard_id for f in report.failed_shards] == [1]
        assert report.failed_shards[0].attempts == 3
        assert "TransientInjectedError" in report.failed_shards[0].error
        # Exactly the other shards' egos survive, with correct content.
        done = {r.shard_id for r in report.shard_reports}
        assert done == {0, 2}
        for ego, communities in report.division.communities_by_ego.items():
            assert communities == clean_division.communities_by_ego[ego]

    def test_skipped_shard_keeps_its_timeouts_in_the_totals(
        self, graph, no_real_sleep
    ):
        """A shard that times out on every attempt and is then skipped must
        not vanish from ``total_timeouts`` (it used to report 0)."""
        plan = FaultPlan([Fault(1, attempt, "hang") for attempt in range(3)])
        report = _executor(graph, plan=plan, max_attempts=3).run(graph)
        (failure,) = report.failed_shards
        assert (failure.shard_id, failure.attempts, failure.timeouts) == (1, 3, 3)
        assert "ShardTimeoutError" in failure.error
        assert report.total_timeouts == 3
        assert report.total_retries == 2

    def test_backoff_uses_injected_clock_deterministically(self, graph, no_real_sleep):
        plan = FaultPlan([Fault(0, 0, "transient")])
        sleeps = []
        for _ in range(2):
            clock = FakeClock()
            _executor(graph, plan=plan, clock=clock).run(graph)
            sleeps.append(clock.sleeps)
        assert sleeps[0] == sleeps[1]  # deterministic jitter
        assert len(sleeps[0]) == 1


# ------------------------------------------------------------------- chaos
class TestChaos:
    def test_run_chaos_is_bit_identical_and_sleep_free(
        self, tiny_workload, no_real_sleep
    ):
        report = run_chaos(
            tiny_workload.dataset, num_shards=4, fault_rate=0.5, seed=3, max_egos=40
        )
        assert report.identical_to_clean
        assert not report.failed_shards
        assert report.completed_shards == report.num_shards == 4
        text = report.to_text()
        assert "identical to clean run: True" in text

    def test_cli_chaos_exit_code(self, capsys, no_real_sleep):
        from repro.cli import main

        code = main(
            ["chaos", "--scale", "tiny", "--seed", "1", "--fault-rate", "0.4",
             "--max-egos", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "identical to clean run: True" in out

    def test_chaos_has_no_phase2_leg(self, capsys):
        from repro.cli import build_parser
        from repro.runtime import ChaosReport

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["chaos", "--phase2-workers", "2"])
        assert exit_info.value.code == 2
        capsys.readouterr()  # argparse usage text
        names = [field.name for field in dataclasses.fields(ChaosReport)]
        names += list(inspect.signature(run_chaos).parameters)
        assert not [name for name in names if "phase2" in name]
