"""Exception hierarchy for the LoCEC reproduction library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Sub-classes are deliberately fine-grained: the graph
substrate, the ML substrate and the LoCEC pipeline each raise distinct error
types so that tests and downstream users can discriminate failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


def _rebuild_exception(
    cls: "type[BaseException]", state: dict, args: tuple
) -> BaseException:
    """Unpickle helper for exceptions whose ``__init__`` signature does not
    match ``args`` — rebuilds the instance without re-running ``__init__``."""
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class _PicklableErrorMixin:
    """Gives an exception a signature-independent pickle round-trip.

    ``BaseException.__reduce__`` replays ``__init__(*self.args)``, and
    ``args`` holds the *formatted message*, not the constructor arguments —
    so any exception with a custom ``__init__`` signature either fails to
    unpickle or rebuilds garbled.  Every such class carries this mixin, so a
    caller that runs the library in its own worker processes gets the
    library's errors back intact.
    """

    def __reduce__(self) -> "tuple":  # type: ignore[override]
        return (_rebuild_exception, (type(self), self.__dict__, self.args))


class GraphError(ReproError):
    """Base class for errors raised by the graph substrate."""


class NodeNotFoundError(_PicklableErrorMixin, GraphError, KeyError):
    """A referenced node does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(_PicklableErrorMixin, GraphError, KeyError):
    """A referenced edge does not exist in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.edge = (u, v)


class SelfLoopError(_PicklableErrorMixin, GraphError, ValueError):
    """An operation attempted to add a self-loop, which the model forbids."""

    def __init__(self, node: object) -> None:
        super().__init__(f"self-loops are not allowed (node {node!r})")
        self.node = node


class FeatureError(ReproError):
    """Invalid node-feature or interaction-feature data."""


class CommunityError(ReproError):
    """Errors raised by the community-detection algorithms."""


class NotFittedError(_PicklableErrorMixin, ReproError, RuntimeError):
    """An estimator was used before being fitted."""

    def __init__(self, estimator: object = None) -> None:
        name = type(estimator).__name__ if estimator is not None else "estimator"
        super().__init__(
            f"{name} is not fitted yet; call fit() before using this method"
        )


class ModelConfigError(ReproError, ValueError):
    """An ML model was configured with invalid hyper-parameters."""


class DimensionMismatchError(ReproError, ValueError):
    """Input arrays have inconsistent shapes."""


class TrainingDivergedError(ModelConfigError):
    """Training produced a non-finite loss (exploding gradients, bad inputs),
    or a solve did not converge.

    Raised instead of silently recording ``NaN``/``inf`` into a model's loss
    history, or returning an unconverged model; the message names the epoch
    or the step budget at which training gave up.
    """


class PipelineError(ReproError):
    """Errors raised by the LoCEC pipeline orchestration."""


class DatasetError(ReproError):
    """Errors raised by the synthetic dataset generators and the dataset JSON."""


class ExperimentError(ReproError):
    """Errors raised by the experiment harness."""


# ------------------------------------------------------ execution runtime
class ExecutorError(PipelineError):
    """Base class for failures inside the sharded execution runtime."""


class ShardTimeoutError(_PicklableErrorMixin, ExecutorError):
    """A shard attempt hung (a simulated stall); retryable by default."""

    def __init__(self, shard_id: int, timeout_seconds: float) -> None:
        super().__init__(
            f"shard {shard_id} timed out after {timeout_seconds:g}s"
        )
        self.shard_id = shard_id
        self.timeout_seconds = timeout_seconds


class WorkerCrashError(_PicklableErrorMixin, ExecutorError):
    """A shard's worker crashed mid-attempt (a simulated kill); retryable."""

    def __init__(self, shard_id: int | None = None, detail: str = "") -> None:
        where = f"shard {shard_id}" if shard_id is not None else "a shard task"
        suffix = f": {detail}" if detail else ""
        super().__init__(f"worker crashed while running {where}{suffix}")
        self.shard_id = shard_id
        self.detail = detail
