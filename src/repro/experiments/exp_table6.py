"""Table VI — projected running time (hours) of LoCEC-CNN at WeChat scale."""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.runtime.cost_model import CostCalibration
from repro.runtime.scalability import ScalabilityStudy, measure_phases
from repro.synthetic.workloads import ExperimentWorkload


def run(
    workload: ExperimentWorkload | None = None,
    calibration: CostCalibration | None = None,
    calibrate_from_measurement: bool = False,
    max_egos: int = 100,
) -> ExperimentResult:
    """Regenerate Table VI from the cost model.

    By default the calibration is back-solved from the paper's own Table VI,
    so the projection reproduces the paper's numbers exactly (this validates
    the decomposition, not the constants).  Pass
    ``calibrate_from_measurement=True`` with a workload to instead calibrate
    the per-item costs from the phase timings of a real ``LoCEC.fit`` on
    ``max_egos`` of its egos (:func:`~repro.runtime.scalability.measure_phases`)
    — the per-phase *proportions* are the meaningful comparison there.
    """
    notes = "calibration back-solved from the paper's Table VI"
    if calibration is None and calibrate_from_measurement:
        if workload is None:
            raise ValueError("a workload is required to calibrate from measurements")
        measured = measure_phases(workload, max_egos=max_egos)
        calibration = measured.to_calibration()
        notes = (
            f"calibration read from a local LoCEC.fit on {measured.num_nodes} egos / "
            f"{measured.num_communities} communities / {measured.num_edges} edges"
        )
    study = ScalabilityStudy(calibration or CostCalibration())
    estimate = study.table6()
    row: dict[str, object] = {"Method": "LoCEC-CNN"}
    row.update(estimate.as_row())
    return ExperimentResult(
        experiment_id="table6",
        title="Running time (hours) of LoCEC-CNN on the full network, 100 servers",
        rows=[row],
        notes=notes,
    )
