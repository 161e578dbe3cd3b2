"""Plumbing tests of the end-to-end benchmark (smoke sizes, not measurements).

Run by path — the tier-1 suite does not collect this directory:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from trace import OpTable, Span, Tracer, self_times  # noqa: E402
from workloads import BY_NAME, make_inputs  # noqa: E402

MANIFEST = run.load_manifest()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOAD = "serve_sparse"


def smoke(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", WORKLOAD,
         "--seed", "3", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_manifest(trace, section):
    result = smoke(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in MANIFEST[section]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], (int, float)) and not isinstance(entry["value"], bool)
    if trace:
        spans = [
            Span(**json.loads(line))
            for line in (HERE / "out" / f"{WORKLOAD}-seed3.spans.jsonl").read_text().splitlines()
        ]
        own = self_times(spans)
        by_op: dict[int, float] = {}
        for span, seconds in zip(spans, own):
            by_op[span.op_id] = by_op.get(span.op_id, 0.0) + seconds
        for span in spans:
            if span.parent is None:
                assert by_op[span.op_id] == pytest.approx(span.seconds, rel=0.01)


def test_manifest_names_and_setup_metric():
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(name) for name in names)
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert {w["name"] for w in MANIFEST["workloads"]} == set(BY_NAME)


def test_inputs_follow_the_seed():
    workload = BY_NAME[WORKLOAD]
    first = make_inputs(workload, seed=5, shrink=4).digest
    assert first == make_inputs(workload, seed=5, shrink=4).digest
    assert first != make_inputs(workload, seed=6, shrink=4).digest


def test_missing_wrap_target_degrades_to_none():
    module = types.ModuleType("e2e_fake_layer")

    def outer():
        return module.inner() + module.inner()

    module.outer, module.inner = outer, lambda: 1
    sys.modules[module.__name__] = module
    targets = (
        (module.__name__, None, "outer", "root.fit", None),
        (module.__name__, None, "inner", "fake.inner", None),
        (module.__name__, None, "gone", "fake.gone", None),
        ("e2e_no_such_module", None, "f", "fake.nowhere", None),
    )
    tracer = Tracer(targets)
    tracer.install()
    try:
        assert module.outer() == 2
    finally:
        tracer.uninstall()
        del sys.modules[module.__name__]
    assert module.outer is outer
    assert tracer.missing == ["e2e_fake_layer.gone", "e2e_no_such_module.f"]
    table = OpTable(tracer)
    assert table.per_op("root.fit", "fake.gone") is None
    assert table.per_op("root.fit", "fake.nowhere") is None
    inner = table.per_op("root.fit", "fake.inner")
    root = table.root_median("root.fit")
    assert 0 < inner <= root
    assert sum(table.self_seconds) == pytest.approx(root, rel=0.01)
