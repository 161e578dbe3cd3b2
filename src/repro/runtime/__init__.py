"""Distributed-processing substrate: the supervised Phase I executor (one
in-process retry loop), the fault-injection layer and the WeChat-scale cost
model.  Nothing here starts a worker process: the paper's multi-server scale
is reproduced by the cost model.

The executor's parts stay in their modules: sharding in
:mod:`repro.runtime.sharding`; the retry loop, its backoff constants and the
per-shard reports in :mod:`repro.runtime.executor`; the injected error types
in :mod:`repro.runtime.faultinject`.  The injectable clocks live in
:mod:`repro.clock`."""

from repro.runtime.cost_model import (
    ClusterSpec,
    CostCalibration,
    CostModel,
    RuntimeEstimate,
    WorkloadSpec,
)
from repro.runtime.executor import ExecutionReport, ShardedDivisionExecutor
from repro.runtime.faultinject import Fault, FaultPlan
from repro.runtime.scalability import (
    ChaosReport,
    MeasuredPhaseTimes,
    ScalabilityStudy,
    measure_phases,
    run_chaos,
)

__all__ = [
    "ShardedDivisionExecutor",
    "ExecutionReport",
    "Fault",
    "FaultPlan",
    "CostModel",
    "CostCalibration",
    "ClusterSpec",
    "WorkloadSpec",
    "RuntimeEstimate",
    "ScalabilityStudy",
    "MeasuredPhaseTimes",
    "measure_phases",
    "ChaosReport",
    "run_chaos",
]
