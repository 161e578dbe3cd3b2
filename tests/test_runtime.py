"""Tests for the WeChat-scale cost model and the scalability drivers."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import LoCEC, LoCECConfig
from repro.exceptions import ModelConfigError, PipelineError
from repro.runtime import (
    ClusterSpec,
    CostCalibration,
    CostModel,
    ScalabilityStudy,
    WorkloadSpec,
    measure_phases,
)


def _fast_xgb_config() -> LoCECConfig:
    config = LoCECConfig.locec_xgb()
    config.gbdt.num_rounds = 4
    return config


class TestCostModel:
    def test_default_calibration_reproduces_table6(self):
        estimate = ScalabilityStudy().table6()
        assert estimate.training_hours == pytest.approx(4.5)
        assert estimate.phase1_hours == pytest.approx(46.5, rel=0.01)
        assert estimate.phase2_hours == pytest.approx(15.3, rel=0.01)
        assert estimate.phase3_hours == pytest.approx(7.4, rel=0.01)
        assert estimate.total_hours == pytest.approx(73.7, rel=0.01)

    def test_phase1_dominates(self):
        estimate = ScalabilityStudy().table6()
        assert estimate.phase1_hours > estimate.phase2_hours > estimate.phase3_hours

    def test_runtime_linear_in_nodes(self):
        sweep = ScalabilityStudy().figure12a([100, 200, 500, 1000])
        totals = [estimate.total_hours for _, estimate in sweep]
        assert totals == sorted(totals)
        assert totals[1] == pytest.approx(2 * totals[0], rel=0.05)
        assert totals[3] == pytest.approx(10 * totals[0], rel=0.05)

    def test_runtime_decreases_with_servers(self):
        sweep = ScalabilityStudy().figure12b([100, 150, 200])
        totals = [estimate.total_hours for _, estimate in sweep]
        assert totals[0] > totals[1] > totals[2]
        assert totals[0] == pytest.approx(2 * totals[2], rel=0.05)

    def test_calibration_from_measurements(self):
        calibration = CostCalibration.from_measurements(
            phase1_seconds=10.0,
            num_nodes=100,
            phase2_seconds=5.0,
            num_communities=400,
            phase3_seconds=2.0,
            num_edges=1000,
        )
        assert calibration.phase1_per_node == pytest.approx(0.1)
        model = CostModel(calibration)
        estimate = model.estimate(
            WorkloadSpec(num_nodes=1000, num_edges=10000, num_communities=4000),
            ClusterSpec(num_servers=1, cores_per_server=1),
        )
        assert estimate.phase1_hours == pytest.approx(100.0 / 3600.0)

    def test_calibration_validation(self):
        with pytest.raises(ModelConfigError):
            CostCalibration(phase1_per_node=0.0).validate()
        with pytest.raises(ModelConfigError):
            CostCalibration.from_measurements(1, 0, 1, 1, 1, 1)

    def test_table_row_keys(self):
        row = ScalabilityStudy().table6().as_row()
        assert set(row) == {"Training", "Phase I", "Phase II", "Phase III", "Total"}

    def test_scaled_wechat_workload_preserves_density(self):
        workload = WorkloadSpec.scaled_wechat(100_000_000)
        assert workload.num_edges == pytest.approx(workload.num_nodes * 140, rel=0.01)


class TestMeasuredScaling:
    def test_measure_phases_returns_positive_times(self, tiny_workload):
        measured = measure_phases(tiny_workload, _fast_xgb_config(), max_egos=20)
        assert measured.num_nodes == 20
        assert measured.phase1_seconds > 0.0
        assert measured.phase2_seconds > 0.0
        assert measured.training_seconds > 0.0
        assert measured.phase3_seconds > 0.0
        calibration = measured.to_calibration()
        calibration.validate()

    def test_measure_phases_is_a_view_of_the_fit_it_ran(
        self, tiny_workload, ticking_clock, monkeypatch
    ):
        fitted = []
        product_fit = LoCEC.fit

        def spy(self, *args, **kwargs):
            fitted.append(self)
            return product_fit(self, *args, **kwargs)

        monkeypatch.setattr(LoCEC, "fit", spy)
        measured = measure_phases(
            tiny_workload, _fast_xgb_config(), max_egos=20, clock=ticking_clock
        )
        (pipeline,) = fitted
        summary = pipeline.fit_summary_
        assert measured.num_nodes == summary.num_egos == 20
        assert measured.num_communities == summary.num_communities
        assert measured.phase1_seconds == summary.timings.division > 0.0
        assert measured.phase2_seconds == summary.timings.aggregation > 0.0
        assert measured.training_seconds == summary.timings.training > 0.0
        # Phase III is one clock bracket around one predict_edge_proba call.
        assert measured.phase3_seconds == 1.0

    def test_measure_phases_lets_fits_typed_error_through(self, tiny_workload):
        sample = set(list(tiny_workload.dataset.graph.nodes())[:5])
        elsewhere = [
            item
            for item in tiny_workload.train_edges
            if item.u not in sample and item.v not in sample
        ]
        unlabeled_sample = replace(tiny_workload, train_edges=elsewhere)
        with pytest.raises(PipelineError, match="no local community"):
            measure_phases(unlabeled_sample, _fast_xgb_config(), max_egos=5)
