"""Smoke tests for the kernel perf-report harness (tier-1, fast).

Runs ``scripts/perf_report.py`` in ``--quick`` mode (tiny scale, one repeat)
to guarantee the benchmark suite executes end to end, the JSON schema stays
stable, and the >30% regression gate actually trips.  The full report that
refreshes ``BENCH_kernels.json`` is the slow path
(``python scripts/perf_report.py --update``); tier-1 only needs this smoke.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

# Benchmark-shaped: the module fixture executes the full --quick perf suite.
# CI's matrix job skips the slow tier; the full-suite job (and the local
# tier-1 command) still runs it.
pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def perf_report():
    spec = importlib.util.spec_from_file_location(
        "perf_report", REPO_ROOT / "scripts" / "perf_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("perf_report", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def quick_report(perf_report, tmp_path_factory):
    """One quick run shared by the schema/gate tests below."""
    output = tmp_path_factory.mktemp("bench") / "BENCH_kernels.json"
    code = perf_report.main(["--quick", "--update", "--output", str(output)])
    assert code == 0
    return output, json.loads(output.read_text())


def test_quick_report_schema(quick_report):
    _, report = quick_report
    assert report["schema"] == 1
    benchmarks = report["benchmarks"]
    for expected in (
        "ego_extraction_dense_dict",
        "ego_extraction_dense_csr",
        "edge_betweenness_dict",
        "edge_betweenness_csr",
        "phase1_division_tiny_dict",
        "phase1_division_tiny_csr",
        "commcnn_tensor_tiny_dict",
        "commcnn_tensor_tiny_csr",
        "gbdt_fit_tiny_node",
        "gbdt_fit_tiny_array",
        "gbdt_fit_tiny_hist",
        "forest_predict_tiny_node",
        "forest_predict_tiny_array",
        "commcnn_fit_tiny_loop",
        "commcnn_fit_tiny_fused",
        "commcnn_predict_tiny_loop",
        "commcnn_predict_tiny_fused",
    ):
        assert expected in benchmarks
        assert benchmarks[expected]["ops_per_sec"] > 0
        assert benchmarks[expected]["seconds_per_op"] > 0
    assert "speedup_phase1_division_tiny" in report["derived"]
    assert "speedup_gbdt_fit_tiny" in report["derived"]
    assert "speedup_gbdt_fit_tiny_hist" in report["derived"]
    assert "speedup_forest_predict_tiny" in report["derived"]
    assert "speedup_commcnn_tensor_tiny" in report["derived"]
    assert "speedup_commcnn_fit_tiny" in report["derived"]
    assert "speedup_commcnn_predict_tiny" in report["derived"]


def test_check_passes_against_itself(perf_report, quick_report):
    # Gate logic must pass when the run equals the baseline exactly.  (A
    # live re-measure would be machine-noise flaky with quick's 1 repeat,
    # so the gate is exercised on the recorded report.)
    output, report = quick_report
    assert perf_report.check_regressions(report, output) == []
    assert perf_report.check_ratio_regressions(report, output) == []


def test_check_skips_mismatched_modes(perf_report, quick_report):
    output, report = quick_report
    full = dict(report, quick=False)
    assert perf_report.check_regressions(full, output) == []
    assert perf_report.check_ratio_regressions(full, output) == []


def test_check_skips_missing_baseline(perf_report, quick_report, tmp_path, capsys):
    # A fresh clone (or a renamed output) has no baseline: the gate must
    # pass, loudly, instead of crashing or failing the build.
    _, report = quick_report
    missing = tmp_path / "does_not_exist.json"
    assert perf_report.check_regressions(report, missing) == []
    assert perf_report.check_ratio_regressions(report, missing) == []
    captured = capsys.readouterr().out
    assert "skipping regression gate" in captured
    assert "skipping ratio gate" in captured


def test_synthetic_regression_fails_check(perf_report, quick_report):
    # A >30% ops/sec drop on any benchmark must be named by the gate; a
    # drop inside the tolerance must not.
    output, report = quick_report
    slowed = json.loads(json.dumps(report))
    name = next(iter(slowed["benchmarks"]))
    slowed["benchmarks"][name]["ops_per_sec"] *= 0.6  # -40%: over the line
    failures = perf_report.check_regressions(slowed, output)
    assert len(failures) == 1 and failures[0].startswith(f"{name}:")

    tolerated = json.loads(json.dumps(report))
    for result in tolerated["benchmarks"].values():
        result["ops_per_sec"] *= 0.8  # -20%: inside the 30% tolerance
    assert perf_report.check_regressions(tolerated, output) == []


def test_synthetic_ratio_regression_fails_check(perf_report, quick_report):
    # The ratio gate guards decisive speedups (>= 1.5x baseline) and
    # ignores near-parity pairs, which are deliberate crossovers.
    output, report = quick_report
    doctored = json.loads(json.dumps(report))
    guarded = [
        name
        for name, ratio in report["derived"].items()
        if ratio >= perf_report.RATIO_GATE_MIN_SPEEDUP
    ]
    assert guarded, "quick report should contain at least one decisive speedup"
    for name in doctored["derived"]:
        doctored["derived"][name] = 0.01  # every backend win collapses
    failures = perf_report.check_ratio_regressions(doctored, output)
    assert sorted(failures)[0].split(":")[0] in guarded
    assert len(failures) == len(guarded)


def test_ratio_gate_fails_on_missing_guarded_ratio(perf_report, quick_report):
    # Dropping/renaming a guarded benchmark pair must fail the gate, not
    # leave it vacuously green.
    output, report = quick_report
    pruned = json.loads(json.dumps(report))
    guarded = [
        name
        for name, ratio in report["derived"].items()
        if ratio >= perf_report.RATIO_GATE_MIN_SPEEDUP
    ]
    victim = guarded[0]
    del pruned["derived"][victim]
    failures = perf_report.check_ratio_regressions(pruned, output)
    assert any(
        failure.startswith(f"{victim}:") and "no counterpart" in failure
        for failure in failures
    )


def test_regression_gate_trips(perf_report, quick_report):
    output, report = quick_report
    doctored = json.loads(json.dumps(report))
    for result in doctored["benchmarks"].values():
        result["ops_per_sec"] *= 1e6  # fake an impossibly fast baseline
        result["seconds_per_op"] /= 1e6
    rigged = output.parent / "rigged.json"
    rigged.write_text(json.dumps(doctored))
    code = perf_report.main(["--quick", "--check", "--output", str(rigged)])
    assert code == 1


def test_committed_baseline_is_valid_json():
    baseline = REPO_ROOT / "BENCH_kernels.json"
    assert baseline.exists(), "BENCH_kernels.json must be committed at the repo root"
    report = json.loads(baseline.read_text())
    assert report["schema"] == 1
    assert "phase1_division_small_csr" in report["benchmarks"]
    # The tentpole acceptance: CSR Phase I division is >= 5x its dict oracle
    # at the small scale on the machine that produced the baseline.
    assert report["derived"]["speedup_phase1_division_small"] >= 5.0
    # PR 3 acceptance: the stacked forest tensors run GBDT inference
    # (predict_proba + the leaf-value embedding) >= 5x the node walks at the
    # small scale on the machine that produced the baseline.
    assert "forest_predict_small_array" in report["benchmarks"]
    assert report["derived"]["speedup_forest_predict_small"] >= 5.0
    # PR 4 acceptance: the fused NN engine beats the layer-by-layer loop on
    # CommCNN training and batched inference at the small scale (training
    # measured 1.9x on the baseline machine; asserted with safety margin —
    # both backends run the same bit-identical batched GEMMs, so the fused
    # engine can only win on the work around them).  Inference scores
    # fixed 32-row blocks on both backends, which made both faster and
    # narrowed the gap: 1,132 rows, six alternating one-BLAS-thread runs,
    # loop 65-93 ms vs fused 31-48 ms, ratio 1.94-2.20x (median 2.1x); the
    # floor keeps a margin and stays above the ratio gate's 1.5x.
    assert "commcnn_fit_small_fused" in report["benchmarks"]
    assert report["derived"]["speedup_commcnn_fit_small"] >= 1.4
    assert report["derived"]["speedup_commcnn_predict_small"] >= 1.8
    # PR 17 acceptance: the presorted, feature-batched exact split search fits
    # the small-scale GBDT ~8.9x faster than the node scan on the baseline
    # machine (asserted with safety margin).  It replaces PR 5's claim that
    # hist beats the exact array search >= 3x at this size: the exact search
    # got ~2.5x faster, hist did not change, so that ratio fell to ~1.4x —
    # a crossover now (below the ratio gate's 1.5x), not a win to protect.
    assert "gbdt_fit_small_hist" in report["benchmarks"]
    assert report["derived"]["speedup_gbdt_fit_small"] >= 6.0
