"""Injectable time sources: the one sanctioned home for wall-clock reads.

Every other module in the library is forbidden (and lint-enforced, see
:mod:`repro.lint`) from calling ``time.time()`` / ``time.perf_counter()`` /
``time.sleep()`` directly: wall-clock reads scattered through pipeline code
silently break deterministic replay and exact timing tests.  Code that needs
time takes a :class:`Clock` and callers inject :class:`SystemClock`
(production) or :class:`FakeClock` (tests — virtual time).

This module is deliberately dependency-free (stdlib only, no intra-repo
imports) so any layer — ``core``, ``runtime``, scripts — can use it without
import cycles.
"""

from __future__ import annotations

import time


class Clock:
    """Minimal injectable time source (monotonic seconds)."""

    def monotonic(self) -> float:
        raise NotImplementedError

    def perf_counter(self) -> float:
        """Highest-resolution timer available; defaults to :meth:`monotonic`.

        Benchmark/timing code should prefer this over :meth:`monotonic`;
        fake clocks need not override it.
        """
        return self.monotonic()


class SystemClock(Clock):
    """Wall-clock implementation used outside tests.

    The two calls below are the sanctioned wall-clock reads the
    determinism lint rules exist to funnel everything through.
    """

    def monotonic(self) -> float:
        return time.monotonic()  # repro-lint: disable=DET001

    def perf_counter(self) -> float:
        return time.perf_counter()  # repro-lint: disable=DET001


class FakeClock(Clock):
    """Virtual clock: time stands at ``now`` until the caller moves it, so a
    timed bracket in the product measures exactly what a test sets up."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def monotonic(self) -> float:
        return self.now
