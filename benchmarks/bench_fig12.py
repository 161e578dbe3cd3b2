"""Benchmark regenerating Figure 12: scalability, projected at WeChat scale."""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.experiments import exp_fig12


def test_fig12_projected_scalability(benchmark):
    result = run_once(benchmark, exp_fig12.run)
    panel_a = [row["Total (h)"] for row in result.rows if row["Panel"] == "a"]
    panel_b = [row["Total (h)"] for row in result.rows if row["Panel"] == "b"]
    # Figure 12 shape: linear growth with input nodes, shrinkage with servers.
    assert panel_a == sorted(panel_a)
    assert panel_b == sorted(panel_b, reverse=True)
    assert panel_a[-1] > 1.8 * panel_a[-2]
    print("\n" + result.to_text())
