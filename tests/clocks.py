"""Virtual clocks the tests inject where the product takes a
:class:`repro.clock.Clock`."""

from __future__ import annotations

from repro.clock import Clock


class FakeClock(Clock):
    """Virtual clock: time stands at ``now`` until the caller moves it, so a
    timed bracket in the product measures exactly what a test sets up."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def monotonic(self) -> float:
        return self.now


class TickingClock(FakeClock):
    """Virtual clock whose every ``perf_counter`` read advances it one second,
    so each timed bracket in the product measures a positive, exact span."""

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now
