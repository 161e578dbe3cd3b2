"""The WeChat-scale cost model and the scalability drivers (Table VI,
Figure 12).  Nothing here starts a worker process or runs a phase itself:
the paper's multi-server scale is reproduced by the cost model, fed with
phase timings that a real :meth:`repro.core.LoCEC.fit` reports about
itself."""

from repro.runtime.cost_model import (
    ClusterSpec,
    CostCalibration,
    CostModel,
    RuntimeEstimate,
    WorkloadSpec,
)
from repro.runtime.scalability import (
    MeasuredPhaseTimes,
    ScalabilityStudy,
    measure_phases,
)

__all__ = [
    "CostModel",
    "CostCalibration",
    "ClusterSpec",
    "WorkloadSpec",
    "RuntimeEstimate",
    "ScalabilityStudy",
    "MeasuredPhaseTimes",
    "measure_phases",
]
