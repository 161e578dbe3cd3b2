"""Figure 12 — scalability study: run time vs input nodes and vs servers."""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentResult
from repro.runtime.cost_model import CostCalibration
from repro.runtime.scalability import ScalabilityStudy


def run(
    calibration: CostCalibration | None = None,
    node_counts_millions: Sequence[int] = (100, 200, 500, 1000),
    server_counts: Sequence[int] = (100, 150, 200),
) -> ExperimentResult:
    """Regenerate Figure 12 from the cost model.

    Expected shape: per-phase run time grows linearly with the number of
    input nodes (panel a) and shrinks as servers are added (panel b), with
    Phase I dominating throughout.
    """
    study = ScalabilityStudy(calibration or CostCalibration())
    rows: list[dict[str, object]] = []
    for nodes, estimate in study.figure12a(list(node_counts_millions)):
        rows.append(
            {
                "Panel": "a",
                "X": f"{nodes // 1_000_000}M nodes",
                "Phase I (h)": round(estimate.phase1_hours, 1),
                "Phase II (h)": round(estimate.phase2_hours, 1),
                "Phase III (h)": round(estimate.phase3_hours, 1),
                "Total (h)": round(estimate.total_hours, 1),
            }
        )
    for servers, estimate in study.figure12b(list(server_counts)):
        rows.append(
            {
                "Panel": "b",
                "X": f"{servers} servers",
                "Phase I (h)": round(estimate.phase1_hours, 1),
                "Phase II (h)": round(estimate.phase2_hours, 1),
                "Phase III (h)": round(estimate.phase3_hours, 1),
                "Total (h)": round(estimate.total_hours, 1),
            }
        )
    return ExperimentResult(
        experiment_id="fig12",
        title="Scalability study (projected at WeChat scale)",
        rows=rows,
        notes="panel a uses 50 servers; panel b uses the full 1B-node workload",
    )
