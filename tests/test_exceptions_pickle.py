"""Pickle-safety audit of the exception hierarchy.

A caller that runs the library in its own worker processes (a
``concurrent.futures`` pool, a test runner's workers) gets the library's
errors back through pickle, so *every* exception class in
:mod:`repro.exceptions` and the ``repro.runtime`` modules must survive
``pickle.dumps``/``loads`` with its message and attributes intact.
``BaseException.__reduce__`` replays ``__init__(*args)`` with the *formatted
message*, so any class with a custom ``__init__`` signature needs
``_PicklableErrorMixin`` (or its own ``__reduce__``).

The audit is discovery-based: a class added to the hierarchy without a
representative instance below fails ``test_audit_covers_every_class``.
"""

from __future__ import annotations

import inspect
import pickle
import sys

import pytest

import repro.exceptions as exceptions_module
import repro.runtime.cost_model  # noqa: F401 — loads every runtime module
import repro.runtime.scalability  # noqa: F401
from repro.exceptions import (
    CommunityError,
    DatasetError,
    DimensionMismatchError,
    EdgeNotFoundError,
    ExperimentError,
    FeatureError,
    GraphError,
    ModelConfigError,
    NodeNotFoundError,
    NotFittedError,
    PipelineError,
    ReproError,
    SelfLoopError,
    TrainingDivergedError,
)

#: One representative, fully-populated instance per exception class.
REPRESENTATIVES = [
    ReproError("base failure"),
    GraphError("graph failure"),
    NodeNotFoundError(7),
    EdgeNotFoundError(1, 2),
    SelfLoopError(3),
    FeatureError("bad feature matrix"),
    CommunityError("no communities"),
    NotFittedError(),
    ModelConfigError("bad hyper-parameter"),
    DimensionMismatchError("X has 3 rows, y has 4"),
    TrainingDivergedError("loss became NaN at epoch 3"),
    PipelineError("phase 2 failed"),
    DatasetError("bad workload spec"),
    ExperimentError("missing sweep axis"),
]

_ids = [f"{type(exc).__name__}:{i}" for i, exc in enumerate(REPRESENTATIVES)]


def _attribute_fidelity(original: BaseException, restored: BaseException) -> None:
    assert type(restored) is type(original)
    assert str(restored) == str(original)
    assert restored.args == original.args
    assert set(restored.__dict__) == set(original.__dict__)
    for name, value in original.__dict__.items():
        round_tripped = restored.__dict__[name]
        if isinstance(value, BaseException):
            # Chained causes compare by identity; fidelity means same type
            # and same rendering.
            assert type(round_tripped) is type(value)
            assert repr(round_tripped) == repr(value)
        else:
            assert round_tripped == value, name


@pytest.mark.parametrize("exc", REPRESENTATIVES, ids=_ids)
def test_round_trip_preserves_message_and_attributes(exc):
    restored = pickle.loads(pickle.dumps(exc))
    _attribute_fidelity(exc, restored)


@pytest.mark.parametrize("exc", REPRESENTATIVES, ids=_ids)
def test_round_trip_survives_all_protocols(exc):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(exc, protocol))
        _attribute_fidelity(exc, restored)


def test_restored_exceptions_keep_their_catch_contracts():
    # The fine-grained hierarchy is part of the API: callers catch by
    # base class after the round trip.
    restored = pickle.loads(pickle.dumps(NodeNotFoundError(9)))
    assert isinstance(restored, (GraphError, KeyError))
    assert restored.node == 9


def _exception_classes(module) -> set[type]:
    return {
        obj
        for _, obj in inspect.getmembers(module, inspect.isclass)
        if issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
        and not obj.__name__.startswith("_")
    }


def test_audit_covers_every_class():
    """Every exception defined in the audited modules has a representative."""
    audited = set()
    modules = [exceptions_module] + [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro.runtime.") and module is not None
    ]
    for module in modules:
        audited |= _exception_classes(module)
    covered = {type(exc) for exc in REPRESENTATIVES}
    missing = {cls.__name__ for cls in audited} - {c.__name__ for c in covered}
    assert not missing, f"exception classes without a pickle audit: {missing}"
