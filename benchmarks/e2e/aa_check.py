"""A/A check: does identical code agree with itself within the declared bounds?

Runs the untraced benchmark ``--sets`` times over ``--seeds`` on the same
tree — the acceptance test the benchmark is itself held to — and prints, per
workload x end-to-end metric: each set's median over the seeds, each set's
spread (IQR / median of the per-seed values, as
``statistics.quantiles(values, n=4)`` gives them), the difference of the
medians in the metric's worse direction, the bound, and ``ok`` when every
spread and the difference stay within the bound.  ``--write`` stores the
table as ``AA_RESULT.md``.  Exits non-zero on a row that is not ``ok``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from statistics import median, quantiles

import run

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    manifest = run.load_manifest()
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]

    values: dict[tuple[str, str, int], list[float]] = {}
    raw: dict[tuple[str, str, int], list[float]] = {}
    failed = 0
    for index in range(args.sets):
        for seed in args.seeds:
            for workload in workloads:
                record = run.run_child(workload, seed, manifest["run_seconds"], trace=0)
                failed += record["failed"] + (not record["correct"])
                for metric in manifest["end_to_end"]:
                    name = metric["name"]
                    values.setdefault((workload, name, index), []).append(record["metrics"][name])
                    if f"raw.{name}" in record["metrics"]:
                        raw.setdefault((workload, name, index), []).append(
                            record["metrics"][f"raw.{name}"]
                        )
                shown = " ".join(
                    f"{m['name']}={record['metrics'][m['name']]:.4g}"
                    for m in manifest["end_to_end"]
                )
                print(f"set {index} seed {seed} {workload}: {shown}", file=sys.stderr)

    lines = [
        f"A/A over seeds {args.seeds}, {args.sets} sets, run_seconds {manifest['run_seconds']};"
        f" failed ops and checks: {failed}",
        "",
        "| workload | metric | median A | median B | worse by | raw worse by | spread A | spread B"
        " | bound | |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    status = 1 if failed else 0
    for workload in workloads:
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [values[workload, name, index] for index in range(args.sets)]
            medians = [median(values_) for values_ in sets]
            spreads = [spread(values_) for values_ in sets]
            worse = max(
                worsening(medians[0], other, metric["better"]) for other in medians[1:]
            ) if args.sets > 1 else 0.0
            raw_worse = ""
            if args.sets > 1 and (workload, name, 0) in raw:
                raw_medians = [median(raw[workload, name, index]) for index in range(args.sets)]
                raw_worse = f"{worsening(raw_medians[0], raw_medians[1], metric['better']):+.3f}"
            # setup_s is held to its median only, as in the driver's check.
            steady = name == "setup_s" or max(spreads) <= bound
            ok = steady and worse <= bound
            status = status if ok else 1
            lines.append(
                f"| {workload} | {name} | {medians[0]:.5g} | {medians[-1]:.5g} | {worse:+.3f} "
                f"| {raw_worse} | {spreads[0]:.3f} | {spreads[-1]:.3f} | {bound} "
                f"| {'ok' if ok else 'NOT OK'} |"
            )
    text = "\n".join(lines) + "\n"
    print(text)
    if args.write:
        (HERE / "AA_RESULT.md").write_text("# A/A result\n\n" + text)
    return status


if __name__ == "__main__":
    sys.exit(main())
