"""Distributed-processing substrate: the supervised Phase I executor (one
in-process retry loop), the fault-injection layer and the WeChat-scale cost
model.  Nothing here starts a worker process: the paper's multi-server scale
is reproduced by the cost model.

The executor's parts — sharding, the retry policy, the per-shard reports and
the injected error types — stay in their modules
(:mod:`repro.runtime.sharding`, :mod:`repro.runtime.resilience`,
:mod:`repro.runtime.executor`, :mod:`repro.runtime.faultinject`)."""

from repro.runtime.cost_model import (
    ClusterSpec,
    CostCalibration,
    CostModel,
    RuntimeEstimate,
    WorkloadSpec,
)
from repro.runtime.executor import ExecutionReport, ShardedDivisionExecutor
from repro.runtime.faultinject import Fault, FaultPlan
from repro.runtime.resilience import Clock, FakeClock, SystemClock
from repro.runtime.scalability import (
    ChaosReport,
    MeasuredPhaseTimes,
    ScalabilityStudy,
    measure_phases,
    measure_worker_scaling,
    run_chaos,
)

__all__ = [
    "ShardedDivisionExecutor",
    "ExecutionReport",
    "Clock",
    "SystemClock",
    "FakeClock",
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
    "measure_worker_scaling",
    "ChaosReport",
    "run_chaos",
]
