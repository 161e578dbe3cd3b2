"""Determinism rules: no wall-clock or global-RNG reads in library code.

The reproduction's replay guarantees (bit-identical faulted vs clean runs,
zero-sleep fast tests, seeded experiment regeneration) hold only while every
time read goes through the injectable :class:`repro.clock.Clock` and every
random draw goes through a seeded ``random.Random`` / NumPy ``Generator``
instance.  A single ``time.time()`` or ``np.random.shuffle`` buried in a hot
path silently breaks all three; these rules make that a CI failure instead
of a debugging session.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import Finding, ModuleContext, Rule, iter_calls, register

#: Dotted call targets that read or advance the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``random`` module-level functions that mutate/read the hidden global
#: ``random.Random`` instance.  ``random.Random(seed)`` itself is fine.
GLOBAL_RANDOM_FUNCTIONS = frozenset(
    {
        "betavariate",
        "binomialvariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "getstate",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "setstate",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: ``numpy.random`` attributes that are *not* global-state: seeded
#: construction surfaces.  Everything else on ``np.random`` either draws
#: from or seeds the legacy global RandomState.
NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


@register
class WallClockRule(Rule):
    rule_id = "DET001"
    name = "no-wall-clock"
    description = (
        "time.time()/perf_counter()/sleep()/datetime.now() in library code; "
        "route through the injectable repro.clock.Clock"
    )
    rationale = (
        "Direct wall-clock reads break deterministic replay and force real "
        "sleeps into the zero-sleep fast test tier."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in iter_calls(ctx.tree):
            qualified = ctx.qualified_name(call.func)
            if qualified in WALL_CLOCK_CALLS:
                yield Finding(
                    rule_id=self.rule_id,
                    path=ctx.path,
                    line=call.lineno,
                    col=call.col_offset,
                    message=(
                        f"wall-clock call {qualified}() — inject a "
                        "repro.clock.Clock (SystemClock in production, "
                        "a virtual clock in tests) instead"
                    ),
                )


@register
class GlobalRandomRule(Rule):
    rule_id = "DET002"
    name = "no-global-rng"
    description = (
        "module-level random.*/np.random.* calls draw from hidden global "
        "state; use a seeded random.Random or np.random.default_rng"
    )
    rationale = (
        "Global-RNG draws make runs irreproducible and couple unrelated "
        "modules through shared hidden state."
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in iter_calls(ctx.tree):
            qualified = ctx.qualified_name(call.func)
            if qualified is None:
                continue
            parts = qualified.split(".")
            if parts[0] == "random" and len(parts) == 2:
                if parts[1] in GLOBAL_RANDOM_FUNCTIONS:
                    yield self._finding(ctx, call, qualified)
            elif (
                len(parts) >= 2
                and parts[0] == "numpy"
                and parts[1] == "random"
            ):
                attr = parts[2] if len(parts) > 2 else ""
                if attr and attr not in NUMPY_RANDOM_ALLOWED:
                    yield self._finding(ctx, call, qualified)

    def _finding(self, ctx: ModuleContext, call: ast.Call, name: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=ctx.path,
            line=call.lineno,
            col=call.col_offset,
            message=(
                f"global-state RNG call {name}() — use a seeded "
                "random.Random(seed) / np.random.default_rng(seed) instance "
                "threaded through the call graph"
            ),
        )
