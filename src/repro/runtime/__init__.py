"""Distributed-processing substrate: sharding, the supervised Phase I
executor, resilience/fault-injection layer and the WeChat-scale cost model."""

from repro.runtime.cost_model import (
    ClusterSpec,
    CostCalibration,
    CostModel,
    RuntimeEstimate,
    WorkloadSpec,
)
from repro.runtime.executor import (
    ExecutionReport,
    ShardedDivisionExecutor,
    ShardReport,
)
from repro.runtime.faultinject import (
    Fault,
    FaultPlan,
    InjectedFaultError,
    PermanentInjectedError,
    TransientInjectedError,
)
from repro.runtime.resilience import (
    Clock,
    FakeClock,
    RetryPolicy,
    ShardCheckpointStore,
    ShardFailure,
    SystemClock,
    shard_fingerprint,
)
from repro.runtime.scalability import (
    ChaosReport,
    MeasuredPhaseTimes,
    ScalabilityStudy,
    measure_phases,
    measure_worker_scaling,
    run_chaos,
)
from repro.runtime.sharding import Shard, shard_by_degree, shard_nodes, validate_shards

__all__ = [
    "Shard",
    "shard_nodes",
    "shard_by_degree",
    "validate_shards",
    "ShardedDivisionExecutor",
    "ExecutionReport",
    "ShardReport",
    "ShardFailure",
    "RetryPolicy",
    "Clock",
    "SystemClock",
    "FakeClock",
    "ShardCheckpointStore",
    "shard_fingerprint",
    "Fault",
    "FaultPlan",
    "InjectedFaultError",
    "TransientInjectedError",
    "PermanentInjectedError",
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
