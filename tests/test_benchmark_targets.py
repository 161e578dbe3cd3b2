"""The end-to-end benchmark's wrap targets must exist on HEAD (tier-1, fast).

``benchmarks/e2e/trace.py`` times the product from outside, wrapping public
callables looked up by dotted name; by design a name that no longer exists
makes the per-layer metric read ``null`` instead of crashing the benchmark.
That is the right behaviour for the judge and the wrong one for a PR: a
rename would silently blank a metric.  This test is the PR-side guard — it
loads the target table by path (``benchmarks/`` is not a package) and
resolves every entry against the source tree.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e" / "trace.py"


def load_trace_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves(monkeypatch):
    # The tracer's own lookup is the arbiter: install its wrappers, take them
    # straight off again, and read what it could not find.
    tracer = load_trace_module(monkeypatch).Tracer()
    assert tracer.targets, "trace.py must declare its wrap targets"
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert not tracer.missing, (
        "benchmarks/e2e/trace.py wraps names the product no longer has "
        "(their per-layer metrics would read null): " + ", ".join(tracer.missing)
    )
