"""Fixed reference kernel that gauges how fast the host is *right now*.

This shared 2-core host changes speed in steps that last seconds to tens of
seconds, so the same ``LoCEC.fit`` reads anywhere between 1x and 5x.  The
kernel below is timed next to every benchmark sample and the sample is
rescaled to "seconds at nominal host speed"::

    normalised = wall * REF_NOMINAL_MS / mean(ref_before_ms, ref_after_ms)

It imports nothing from ``repro`` and must never change with the product:
both sides of any comparison are scaled by the same commit-independent
gauge.  Its three thirds are the three regimes the product runs in —
interpreter-bound dict/set work (division bookkeeping, label indices),
call-overhead-bound small-array NumPy (per-community aggregation, tree
walks) and BLAS GEMM (CommCNN, logistic regression).
"""

from __future__ import annotations

import time

import numpy as np

#: What one kernel pass takes on this host in a quiet spell.  A constant of
#: the benchmark, not a measurement: changing it rescales every normalised
#: metric of every commit alike.
REF_NOMINAL_MS = 10.0

_RNG = np.random.default_rng(20200420)
_KEYS = [int(k) for k in _RNG.integers(0, 1 << 20, size=16000)]
_SMALL = _RNG.integers(0, 64, size=(48, 256))
_GEMM_A = _RNG.standard_normal((160, 160)) / 13.0
_GEMM_B = _RNG.standard_normal((160, 160)) / 13.0


def kernel() -> float:
    """One pass of the reference kernel; returns a checksum so nothing is elided."""
    # Interpreter-bound: dict build, membership tests, set algebra.
    table: dict[int, int] = {}
    for position, key in enumerate(_KEYS):
        table[key] = table.get(key, 0) + position
    seen = set()
    hits = 0
    for key in _KEYS:
        if key ^ 1 in table:
            hits += 1
        seen.add(key & 0xFFF)
    hits += len(seen & set(_KEYS[:5000]))
    # Call-overhead-bound: many NumPy calls on arrays of a few hundred items.
    total = 0
    for _ in range(32):
        for row in _SMALL:
            total += int(np.bincount(row, minlength=64).max())
    # BLAS-bound: a chain of 160x160 GEMMs.
    product = _GEMM_A
    for _ in range(20):
        product = product @ _GEMM_B
    return hits + total + float(product[0, 0])


def measure_ms() -> float:
    """Best of two kernel passes, in milliseconds."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


if __name__ == "__main__":
    samples = [measure_ms() for _ in range(20)]
    print(" ".join(f"{value:.2f}" for value in samples))
