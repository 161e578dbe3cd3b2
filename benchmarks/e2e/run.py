"""The repo benchmark's one command.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in a fresh single-threaded child (``harness.py``) and
prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics declared
in ``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with
``--trace 1``.  Without ``--workload`` every workload runs in turn.  The
full record of each run (all metrics, resolved ``RuntimeOptions``, seed,
host, op counts, wall time) is appended to ``benchmarks/e2e/out/``.  Exits
non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread everywhere: the gauge below and the child both run on it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import hostref  # noqa: E402 - the parent needs only the gauge, never the product

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CHILD_TIMEOUT_S = 170


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, trace: int, shrink: int = 1) -> dict:
    """Run one workload in a fresh interpreter; returns the child's record."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--shrink", str(shrink),
        "--ref-ms", repr(hostref.measure_ms()),
        # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child.
        "--spawned-at", repr(time.perf_counter()),
    ]
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: child exited {done.returncode} without a result")
    return json.loads(lines[-1])


def contract_line(record: dict, manifest: dict, trace: int) -> dict:
    """The driver-facing result: exactly the declared metrics, with units."""
    declared = manifest["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in declared:
        value = record["metrics"].get(metric["name"])
        if value is None:
            # Not measurable in this run (a wrapped name the product no longer
            # has, or a layer this workload never enters): out/ keeps the null.
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main() -> int:
    manifest = load_manifest()
    names = [workload["name"] for workload in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="sizes and counts / 4: checks the plumbing only"
    )
    args = parser.parse_args()

    shrink = 4 if args.smoke else 1
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    (HERE / "out").mkdir(exist_ok=True)
    status = 0
    for name in [args.workload] if args.workload else names:
        record = run_child(name, args.seed, args.seconds / shrink, args.trace, shrink)
        with open(HERE / "out" / "results.jsonl", "a") as handle:
            handle.write(json.dumps(record) + "\n")
        for metric, value in sorted(record["metrics"].items()):
            shown = "null" if value is None else f"{value:.6g}"
            print(f"# {name:18s} {metric:42s} {shown:>12s} {units.get(metric, '')}")
        print(f"# {name:18s} ops_attempted {record['attempted']} ops_failed {record['failed']}")
        print(json.dumps(contract_line(record, manifest, args.trace)))
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
