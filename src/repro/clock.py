"""Injectable time sources: the one sanctioned home for wall-clock reads.

Every other module in the library is forbidden (and lint-enforced, see
:mod:`repro.lint`) from calling ``time.time()`` / ``time.perf_counter()`` /
``time.sleep()`` directly: wall-clock reads scattered through pipeline code
silently break deterministic replay, the zero-sleep fast test tier and the
fault-injection harness.  Code that needs time takes a :class:`Clock` and
callers inject :class:`SystemClock` (production) or :class:`FakeClock`
(tests — virtual time, no real sleeps).

This module is deliberately dependency-free (stdlib only, no intra-repo
imports) so any layer — ``core``, ``runtime``, scripts — can use it without
import cycles.
"""

from __future__ import annotations

import time


class Clock:
    """Minimal injectable time source (monotonic seconds + sleep)."""

    def monotonic(self) -> float:
        raise NotImplementedError

    def perf_counter(self) -> float:
        """Highest-resolution timer available; defaults to :meth:`monotonic`.

        Benchmark/timing code should prefer this over :meth:`monotonic`;
        fake clocks need not override it.
        """
        return self.monotonic()

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError


class SystemClock(Clock):
    """Wall-clock implementation used outside tests.

    The three calls below are the sanctioned wall-clock reads the
    determinism lint rules exist to funnel everything through.
    """

    def monotonic(self) -> float:
        return time.monotonic()  # repro-lint: disable=DET001

    def perf_counter(self) -> float:
        return time.perf_counter()  # repro-lint: disable=DET001

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)  # repro-lint: disable=DET001


class FakeClock(Clock):
    """Virtual clock: ``sleep`` advances time instantly and records itself.

    Lets the fast test tier drive every retry/backoff/timeout path without a
    single real sleep; ``sleeps`` is the audit trail of requested delays.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        self.sleeps.append(seconds)
        self.now += seconds

    def advance(self, seconds: float) -> None:
        self.now += float(seconds)
