"""Deterministic fault injection for the sharded execution runtime.

A :class:`FaultPlan` maps ``(shard_id, attempt)`` pairs to faults and is
applied at the entry of every shard attempt, so a test (or the CLI chaos
knob) can script exactly which attempts fail and how.  Every fault is
simulated in-process:

* ``transient`` — raises :class:`TransientInjectedError` (retryable: the
  error carries ``transient=True``, which
  :func:`repro.runtime.executor.is_retryable` honours).
* ``permanent`` — raises :class:`PermanentInjectedError` (never retried).
* ``hang`` — the attempt stalls: the injected clock advances by
  :attr:`Fault.duration` and :class:`~repro.exceptions.ShardTimeoutError`
  is raised, so the fast test tier runs it on a ``FakeClock`` with zero real
  sleeps.
* ``kill`` — a crashed worker, raised as
  :class:`~repro.exceptions.WorkerCrashError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterable, Iterator, Sequence

from repro.clock import Clock
from repro.exceptions import (
    PipelineError,
    ReproError,
    ShardTimeoutError,
    WorkerCrashError,
)

FAULT_KINDS = ("transient", "permanent", "hang", "kill")


class InjectedFaultError(ReproError):
    """Base class for errors raised by the fault-injection harness."""

    transient = False

    def __init__(self, shard_id: int, attempt: int) -> None:
        super().__init__(
            f"injected {type(self).__name__} on shard {shard_id} attempt {attempt}"
        )
        self.shard_id = shard_id
        self.attempt = attempt

    def __reduce__(
        self,
    ) -> "tuple[type[InjectedFaultError], tuple[int, int]]":
        # Survive a pickle round trip: rebuild from the constructor arguments.
        return (type(self), (self.shard_id, self.attempt))


class TransientInjectedError(InjectedFaultError):
    """A synthetic transient failure; retry policies classify it retryable."""

    transient = True


class PermanentInjectedError(InjectedFaultError):
    """A synthetic permanent failure; never retried."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: what happens on ``(shard_id, attempt)``."""

    shard_id: int
    attempt: int
    kind: str
    duration: float = 0.5
    """``hang`` only: seconds the stall advances the injected clock."""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise PipelineError(
                f"unknown fault kind {self.kind!r}; available: {sorted(FAULT_KINDS)}"
            )


class FaultPlan:
    """A deterministic schedule of faults keyed by ``(shard_id, attempt)``."""

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._faults: dict[tuple[int, int], Fault] = {}
        for fault in faults:
            key = (fault.shard_id, fault.attempt)
            if key in self._faults:
                raise PipelineError(
                    f"duplicate fault for shard {fault.shard_id} "
                    f"attempt {fault.attempt}"
                )
            self._faults[key] = fault

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> "Iterator[Fault]":
        return iter(sorted(self._faults.values(),
                           key=lambda f: (f.shard_id, f.attempt)))

    def fault_for(self, shard_id: int, attempt: int) -> Fault | None:
        return self._faults.get((shard_id, attempt))

    @classmethod
    def random(
        cls,
        shard_ids: Sequence[int],
        seed: int = 0,
        fault_rate: float = 0.25,
        max_attempts: int = 3,
        kinds: Sequence[str] = ("transient", "hang", "kill"),
    ) -> "FaultPlan":
        """Seeded chaos: each shard draws faults on its early attempts.

        Faults are only ever injected on attempts ``< max_attempts - 1``, so
        a run under a policy with that attempt budget is guaranteed to
        eventually succeed — which is exactly the regime where the merged
        division must come out bit-identical to a clean run.
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise PipelineError("fault_rate must be in [0, 1]")
        rng = Random(seed)
        faults: list[Fault] = []
        for shard_id in shard_ids:
            for attempt in range(max(0, max_attempts - 1)):
                if rng.random() >= fault_rate:
                    break  # this attempt succeeds; later ones never run
                kind = kinds[rng.randrange(len(kinds))]
                faults.append(Fault(shard_id=shard_id, attempt=attempt, kind=kind))
        return cls(faults)

    def apply(self, shard_id: int, attempt: int, clock: Clock) -> None:
        """Trigger the fault scheduled for ``(shard_id, attempt)``, if any.

        Called at the entry of every shard attempt.  A hang stalls on
        ``clock``: virtual time under a ``FakeClock``, real time under the
        system clock.
        """
        fault = self.fault_for(shard_id, attempt)
        if fault is None:
            return
        if fault.kind == "transient":
            raise TransientInjectedError(shard_id, attempt)
        if fault.kind == "permanent":
            raise PermanentInjectedError(shard_id, attempt)
        if fault.kind == "hang":
            clock.sleep(fault.duration)
            raise ShardTimeoutError(shard_id, fault.duration)
        raise WorkerCrashError(shard_id, detail="injected kill")  # kind == "kill"
