"""Fault-injection suite for the supervised shard executor.

The fast tier runs every retry/backoff/timeout path on an injected
:class:`FakeClock` — **zero real sleeps** (enforced by a fixture that makes
``time.sleep`` raise).  Process-pool recovery (hard worker kill →
``BrokenProcessPool`` → rebuild/degrade, real hang → future timeout) needs
real subprocesses and real waiting, so those tests are marked ``slow``.

The invariant checked throughout: any fault schedule that eventually
succeeds yields a merged ``DivisionResult`` bit-identical to the clean
serial run.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

import repro.runtime.executor as executor_module
from repro.core.config import ResilienceConfig
from repro.exceptions import (
    CheckpointError,
    ModelConfigError,
    PipelineError,
    RetryExhaustedError,
    ShardFailedError,
    ShardTimeoutError,
    WorkerCrashError,
)
from repro.graph.generators import paper_figure7_network
from repro.graph.graph import Graph
from repro.runtime import (
    FakeClock,
    Fault,
    FaultPlan,
    PermanentInjectedError,
    RetryPolicy,
    Shard,
    ShardCheckpointStore,
    ShardedDivisionExecutor,
    TransientInjectedError,
    run_chaos,
    shard_fingerprint,
    shard_nodes,
    validate_shards,
)
from repro.runtime.resilience import graph_value_digest


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


# --------------------------------------------------------------- RetryPolicy
class TestRetryPolicy:
    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, backoff_factor=2.0, max_delay=0.3,
                             jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(9) == pytest.approx(0.3)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5, seed=7)
        first = policy.delay(1, key=3)
        assert first == policy.delay(1, key=3)  # pure function of (seed, key, n)
        assert 0.1 <= first <= 0.1 * 1.5
        assert policy.delay(1, key=4) != first  # per-shard schedules differ

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(ShardTimeoutError(0, 1.0))
        assert policy.is_retryable(WorkerCrashError(0))
        assert policy.is_retryable(TransientInjectedError(0, 0))  # transient attr
        assert not policy.is_retryable(PermanentInjectedError(0, 0))
        assert not policy.is_retryable(ValueError("boom"))

    def test_validation(self):
        with pytest.raises(ModelConfigError):
            RetryPolicy(max_attempts=0).validate()
        with pytest.raises(ModelConfigError):
            RetryPolicy(backoff_factor=0.5).validate()
        with pytest.raises(ModelConfigError):
            RetryPolicy(jitter=1.5).validate()

    def test_from_config(self):
        config = ResilienceConfig(max_attempts=5, backoff_base=0.2, seed=11)
        policy = RetryPolicy.from_config(config)
        assert policy.max_attempts == 5
        assert policy.base_delay == pytest.approx(0.2)
        assert policy.seed == 11


class TestResilienceConfig:
    def test_validation(self):
        ResilienceConfig().validate()
        with pytest.raises(ModelConfigError):
            ResilienceConfig(on_shard_failure="retry_forever").validate()
        with pytest.raises(ModelConfigError):
            ResilienceConfig(shard_timeout=0.0).validate()
        with pytest.raises(ModelConfigError):
            ResilienceConfig(max_pool_rebuilds=-1).validate()

    def test_locec_config_carries_resilience(self):
        from repro.core.config import LoCECConfig

        config = LoCECConfig()
        assert config.runtime_options is config.resilience  # what the bench records
        config.resilience.on_shard_failure = "bogus"
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
        # Transient failures on two shards plus one hang-past-timeout: the
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
        executor = _executor(graph, plan=plan, clock=clock, shard_timeout=5.0)
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

    def test_retry_exhaustion_raises(self, graph, no_real_sleep):
        plan = FaultPlan([Fault(1, attempt, "transient") for attempt in range(3)])
        executor = _executor(graph, plan=plan, max_attempts=3)
        with pytest.raises(RetryExhaustedError) as info:
            executor.run(graph)
        assert info.value.shard_id == 1
        assert info.value.attempts == 3
        assert isinstance(info.value.cause, TransientInjectedError)

    def test_timeout_exhaustion_raises(self, graph, no_real_sleep):
        plan = FaultPlan([Fault(0, attempt, "hang") for attempt in range(3)])
        executor = _executor(graph, plan=plan, max_attempts=3, shard_timeout=1.0)
        with pytest.raises(RetryExhaustedError) as info:
            executor.run(graph)
        assert isinstance(info.value.cause, ShardTimeoutError)

    def test_permanent_fault_raises_without_retries(self, graph, no_real_sleep):
        plan = FaultPlan([Fault(2, 0, "permanent")])
        with pytest.raises(ShardFailedError) as info:
            _executor(graph, plan=plan).run(graph)
        assert not isinstance(info.value, RetryExhaustedError)
        assert info.value.attempts == 1

    def test_skip_mode_keeps_partial_result_first_class(
        self, graph, clean_division, no_real_sleep
    ):
        plan = FaultPlan([Fault(1, attempt, "transient") for attempt in range(3)])
        report = _executor(
            graph, plan=plan, max_attempts=3, on_shard_failure="skip"
        ).run(graph)
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
        report = _executor(
            graph, plan=plan, max_attempts=3, shard_timeout=1.0,
            on_shard_failure="skip",
        ).run(graph)
        (failure,) = report.failed_shards
        assert (failure.shard_id, failure.attempts, failure.timeouts) == (1, 3, 3)
        assert "ShardTimeoutError" in failure.error
        assert report.total_timeouts == 3
        assert report.total_retries == 2

    def test_serial_fallback_completes_despite_permanent_faults(
        self, graph, clean_division, no_real_sleep
    ):
        # The fallback re-runs the shard in-process with fault injection
        # bypassed (injected faults model infrastructure failures).
        plan = FaultPlan([Fault(0, 0, "permanent")])
        report = _executor(
            graph, plan=plan, on_shard_failure="serial_fallback"
        ).run(graph)
        assert report.division.communities_by_ego == clean_division.communities_by_ego
        assert not report.failed_shards

    def test_backoff_uses_injected_clock_deterministically(self, graph, no_real_sleep):
        plan = FaultPlan([Fault(0, 0, "transient")])
        sleeps = []
        for _ in range(2):
            clock = FakeClock()
            _executor(graph, plan=plan, clock=clock).run(graph)
            sleeps.append(clock.sleeps)
        assert sleeps[0] == sleeps[1]  # deterministic jitter
        assert len(sleeps[0]) == 1


# -------------------------------------------------------- checkpoint/resume
class TestCheckpointResume:
    def test_mid_run_failure_then_resume_recomputes_only_unfinished(
        self, graph, clean_division, tmp_path, no_real_sleep
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        # Shard 2 fails permanently: the run dies, shards 0 and 1 spilled.
        plan = FaultPlan([Fault(2, 0, "permanent")])
        executor = _executor(graph, plan=plan, checkpoint_dir=checkpoint_dir)
        with pytest.raises(ShardFailedError):
            executor.run(graph)
        store = ShardCheckpointStore(checkpoint_dir, graph_id=graph_value_digest(graph))
        shards = validate_shards(shard_nodes(list(graph.nodes()), 3))
        assert store.load(shards[0], "girvan_newman") is not None
        assert store.load(shards[1], "girvan_newman") is not None
        assert store.load(shards[2], "girvan_newman") is None

        # Resume without faults: only shard 2 is recomputed.
        report = _executor(graph, checkpoint_dir=checkpoint_dir).run(
            graph, resume_from=checkpoint_dir
        )
        assert report.division.communities_by_ego == clean_division.communities_by_ego
        by_id = {r.shard_id: r for r in report.shard_reports}
        assert by_id[0].from_checkpoint and by_id[1].from_checkpoint
        assert not by_id[2].from_checkpoint
        # The resumed run completed shard 2's checkpoint too.
        assert store.load(shards[2], "girvan_newman") is not None

    def test_checkpoints_with_wrong_fingerprint_are_ignored(
        self, graph, tmp_path, no_real_sleep
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        _executor(graph, checkpoint_dir=checkpoint_dir).run(graph)
        # Same directory, different detector: nothing may be reused.
        report = ShardedDivisionExecutor(
            num_shards=3,
            detector="label_propagation",
            resilience=ResilienceConfig(),
            clock=FakeClock(),
        ).run(graph, resume_from=checkpoint_dir)
        assert all(not r.from_checkpoint for r in report.shard_reports)

    def test_resume_after_an_edge_change_recomputes_every_shard(
        self, graph, clean_division, tmp_path, no_real_sleep
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        _executor(graph, checkpoint_dir=checkpoint_dir).run(graph)
        graph.remove_edge(2, 3)  # an edge among ego 1's friends
        resumed = _executor(graph).run(graph, resume_from=checkpoint_dir)
        assert not any(r.from_checkpoint for r in resumed.shard_reports)
        fresh = _executor(graph).run(graph).division.communities_by_ego
        assert resumed.division.communities_by_ego == fresh
        assert fresh != clean_division.communities_by_ego

    def test_resume_on_an_equal_graph_in_another_insertion_order_loads_every_shard(
        self, graph, clean_division, tmp_path, no_real_sleep
    ):
        checkpoint_dir = str(tmp_path / "ckpt")
        egos = list(graph.nodes())
        _executor(graph, checkpoint_dir=checkpoint_dir).run(graph, egos=egos)
        rebuilt = Graph(nodes=reversed(egos))
        for u, v in reversed(list(graph.edges())):
            rebuilt.add_edge(v, u)
        resumed = _executor(rebuilt).run(rebuilt, egos=egos, resume_from=checkpoint_dir)
        assert all(r.from_checkpoint for r in resumed.shard_reports)
        assert resumed.division.communities_by_ego == clean_division.communities_by_ego

    def test_graph_is_hashed_only_when_a_checkpoint_store_opens(
        self, graph, tmp_path, monkeypatch, no_real_sleep
    ):
        hashed = []
        monkeypatch.setattr(
            executor_module,
            "graph_value_digest",
            lambda g: hashed.append(g) or graph_value_digest(g),
        )
        _executor(graph).run(graph)
        assert hashed == []
        _executor(graph, checkpoint_dir=str(tmp_path / "ckpt")).run(graph)
        assert hashed == [graph]

    def test_no_tmp_files_left_behind(self, graph, tmp_path, no_real_sleep):
        checkpoint_dir = tmp_path / "ckpt"
        _executor(graph, checkpoint_dir=str(checkpoint_dir)).run(graph)
        assert not list(checkpoint_dir.glob("*.tmp"))
        assert len(list(checkpoint_dir.glob("shard-*.pkl"))) == 3

    def test_corrupt_checkpoint_raises_checkpoint_error(self, tmp_path):
        store = ShardCheckpointStore(tmp_path)
        shard = Shard(0, (1, 2))
        (tmp_path / "shard-00000.pkl").write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            store.load(shard, "girvan_newman")

    def test_fingerprint_depends_on_content(self):
        shard = Shard(0, (1, 2, 3))
        assert shard_fingerprint(shard, "girvan_newman") != shard_fingerprint(
            shard, "louvain"
        )
        assert shard_fingerprint(shard, "girvan_newman") != shard_fingerprint(
            Shard(0, (1, 2)), "girvan_newman"
        )


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


# ------------------------------------------------------- process-pool tier
@pytest.mark.slow
class TestPoolSupervision:
    def test_worker_transient_fault_is_retried(self, graph, clean_division):
        plan = FaultPlan([Fault(0, 0, "transient"), Fault(1, 0, "transient")])
        executor = ShardedDivisionExecutor(
            num_shards=3,
            num_workers=2,
            detector="girvan_newman",
            resilience=ResilienceConfig(backoff_base=0.01, backoff_max=0.05),
            fault_plan=plan,
        )
        report = executor.run(graph)
        assert report.division.communities_by_ego == clean_division.communities_by_ego
        assert report.total_retries == 2

    def test_hard_worker_kill_rebuilds_pool_and_recovers(self, graph, clean_division):
        # os._exit in a worker breaks the whole pool: the executor rebuilds
        # it once and the killed shard (plus collateral in-flight shards)
        # retries to a bit-identical merge without data loss.
        plan = FaultPlan([Fault(1, 0, "kill")])
        executor = ShardedDivisionExecutor(
            num_shards=3,
            num_workers=2,
            detector="girvan_newman",
            resilience=ResilienceConfig(
                backoff_base=0.01, backoff_max=0.05,
                on_shard_failure="serial_fallback",
            ),
            fault_plan=plan,
        )
        report = executor.run(graph)
        assert report.division.communities_by_ego == clean_division.communities_by_ego
        assert report.pool_rebuilds == 1
        assert not report.failed_shards

    def test_repeated_pool_breakage_degrades_to_serial(self, graph, clean_division):
        # Kills on consecutive attempts of the same shard exceed the rebuild
        # budget (0): execution degrades to in-process serial, where kills
        # are simulated as WorkerCrashError and retried — no data loss.
        plan = FaultPlan([Fault(1, 0, "kill"), Fault(1, 1, "kill")])
        executor = ShardedDivisionExecutor(
            num_shards=3,
            num_workers=2,
            detector="girvan_newman",
            resilience=ResilienceConfig(
                backoff_base=0.01, backoff_max=0.05, max_pool_rebuilds=0,
                max_attempts=4,
            ),
            fault_plan=plan,
        )
        report = executor.run(graph)
        assert report.degraded_to_serial
        assert report.division.communities_by_ego == clean_division.communities_by_ego

    def test_real_hang_hits_future_timeout_and_retries(self, graph, clean_division):
        plan = FaultPlan([Fault(0, 0, "hang", duration=1.2)])
        executor = ShardedDivisionExecutor(
            num_shards=3,
            num_workers=2,
            detector="girvan_newman",
            resilience=ResilienceConfig(
                shard_timeout=0.3, backoff_base=0.01, backoff_max=0.05
            ),
            fault_plan=plan,
        )
        report = executor.run(graph)
        assert report.division.communities_by_ego == clean_division.communities_by_ego
        assert report.total_timeouts == 1
