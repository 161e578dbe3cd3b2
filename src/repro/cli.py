"""Command-line interface for the LoCEC reproduction.

The subcommands cover the common workflows without writing any Python:

* ``locec-repro list`` — list the available paper experiments.
* ``locec-repro run table4 --scale small --seed 0`` — regenerate one paper
  table/figure and print it.
* ``locec-repro generate /tmp/network.json --scale small`` — generate a
  synthetic WeChat-like dataset (graph + features + interactions + survey
  labels) and save it as a JSON bundle loadable with
  :func:`repro.graph.load_dataset_json`.
* ``locec-repro chaos --scale tiny --fault-rate 0.3`` — chaos knob: run the
  sharded Phase I executor in-process under a seeded fault-injection
  schedule (transient errors, simulated hangs and worker kills) and exit
  non-zero unless the merged division is bit-identical to a clean run.
* ``locec-repro serve-replay --scale tiny --fault-rate 0.3`` — serving
  smoke: fit a pipeline, open a :class:`repro.serve.ServingSession` and
  replay synthetic update + query traffic (optionally under injected
  re-division faults); prints sustained QPS and latency percentiles and
  exits non-zero if any query goes unanswered or an update degrades when
  the fault schedule guarantees recovery.
* ``locec-repro lint`` — run the repo-native invariant lint engine
  (:mod:`repro.lint`): determinism and NumPy hygiene rules; exits
  non-zero on any finding.

The CLI is also reachable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.experiments.registry import get_experiment, list_experiments
from repro.graph.io import save_dataset_json
from repro.synthetic import make_workload


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="locec-repro",
        description="Reproduction of LoCEC (ICDE 2020): experiments and dataset generation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available paper experiments")

    run_parser = subparsers.add_parser("run", help="run one paper experiment and print its table")
    run_parser.add_argument("experiment", help="experiment id, e.g. table4 or fig11")
    run_parser.add_argument(
        "--scale",
        default="small",
        choices=["tiny", "small", "medium", "large"],
        help="synthetic workload size (default: small)",
    )
    run_parser.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")

    generate_parser = subparsers.add_parser(
        "generate", help="generate a synthetic dataset and save it as JSON"
    )
    generate_parser.add_argument("output", help="path of the JSON file to write")
    generate_parser.add_argument(
        "--scale",
        default="small",
        choices=["tiny", "small", "medium", "large"],
        help="synthetic workload size (default: small)",
    )
    generate_parser.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="run the sharded Phase I executor under seeded fault injection "
        "and verify the merged result matches a clean run",
    )
    chaos_parser.add_argument(
        "--scale",
        default="tiny",
        choices=["tiny", "small", "medium", "large"],
        help="synthetic workload size (default: tiny)",
    )
    chaos_parser.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    chaos_parser.add_argument(
        "--shards", type=int, default=4, help="number of shards (default: 4)"
    )
    chaos_parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.25,
        help="per-attempt fault probability in [0, 1] (default: 0.25)",
    )
    chaos_parser.add_argument(
        "--max-egos",
        type=int,
        default=80,
        help="limit Phase I to the first N egos (default: 80)",
    )

    serve_parser = subparsers.add_parser(
        "serve-replay",
        help="fit a pipeline, open a ServingSession and replay synthetic "
        "update + query traffic; reports sustained QPS and latency "
        "percentiles and exits non-zero if serving degrades unexpectedly",
    )
    serve_parser.add_argument(
        "--scale",
        default="tiny",
        choices=["tiny", "small", "medium", "large"],
        help="synthetic workload size (default: tiny)",
    )
    serve_parser.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    serve_parser.add_argument(
        "--batches", type=int, default=12, help="query batches to replay (default: 12)"
    )
    serve_parser.add_argument(
        "--queries-per-batch",
        type=int,
        default=32,
        help="edge queries per batch (default: 32)",
    )
    serve_parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-attempt fault probability injected into update re-divisions; "
        "their backoff and hangs pass in virtual time, printed as "
        "supervision_virtual_sleep_s; 0 = fault-free replay (default: 0.0)",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the invariant lint engine (repro.lint) over the repository",
    )
    lint_parser.add_argument(
        "--root",
        default=None,
        help="repository root to lint (default: auto-detected)",
    )
    lint_parser.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=["text", "json"],
        help="report format (default: text)",
    )
    lint_parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _command_list() -> int:
    for experiment_id in list_experiments():
        print(experiment_id)
    return 0


def _command_run(experiment_id: str, scale: str, seed: int) -> int:
    run = get_experiment(experiment_id)
    # Scale-independent experiments (cost-model projections) ignore these kwargs.
    if experiment_id in {"table6", "fig12"}:
        result = run()
    else:
        result = run(scale=scale, seed=seed)
    print(result.to_text())
    return 0


def _command_generate(output: str, scale: str, seed: int) -> int:
    workload = make_workload(scale=scale, seed=seed)
    dataset = workload.dataset
    save_dataset_json(
        output,
        dataset.graph,
        features=dataset.features,
        interactions=dataset.interactions,
        labels=workload.labeled_edges,
    )
    print(
        f"wrote {output}: {dataset.num_users} users, {dataset.num_edges} edges, "
        f"{len(workload.labeled_edges)} labeled edges"
    )
    return 0


def _command_chaos(
    scale: str,
    seed: int,
    shards: int,
    fault_rate: float,
    max_egos: int,
) -> int:
    from repro.runtime import run_chaos

    workload = make_workload(scale=scale, seed=seed)
    report = run_chaos(
        workload.dataset,
        num_shards=shards,
        fault_rate=fault_rate,
        seed=seed,
        max_egos=max_egos,
    )
    print(report.to_text())
    # The chaos gate: a fault schedule that eventually succeeds must yield
    # a merged division bit-identical to the clean run.
    passed = report.identical_to_clean and not report.failed_shards
    return 0 if passed else 1


def _command_serve_replay(
    scale: str,
    seed: int,
    batches: int,
    queries_per_batch: int,
    fault_rate: float,
) -> int:
    from repro.clock import FakeClock
    from repro.core.config import LoCECConfig
    from repro.core.pipeline import LoCEC
    from repro.runtime import FaultPlan
    from repro.serve import ServingSession, replay_traffic

    workload = make_workload(scale=scale, seed=seed)
    config = LoCECConfig.locec_xgb()
    config.gbdt.num_rounds = 10
    # Supervision backs off, and injected hangs stall, on the pipeline's
    # clock: a virtual one, so the replay times the work of each write and
    # no injected sleep.  The session keeps the system clock, so latency
    # and QPS are real.
    supervision_clock = FakeClock()
    pipeline = LoCEC(config, clock=supervision_clock)
    pipeline.fit(
        workload.dataset.graph,
        features=workload.dataset.features,
        interactions=workload.dataset.interactions,
        labeled_edges=workload.train_edges,
        division=workload.division(),
    )
    # FaultPlan.random only injects recoverable faults (each shard's final
    # attempt is clean), so even a chaos replay must end with zero stale
    # egos — staleness here would mean the retry envelope leaked.
    fault_plan = (
        FaultPlan.random(range(4), seed=seed, fault_rate=fault_rate)
        if fault_rate > 0.0
        else None
    )
    with ServingSession(pipeline) as session:
        report = replay_traffic(
            session,
            num_batches=batches,
            queries_per_batch=queries_per_batch,
            seed=seed,
            fault_plan=fault_plan,
        )
    for key, value in report.as_dict().items():
        print(f"{key}: {value:.6g}")
    stats = session.stats
    print(f"labeler refits {stats.num_labeler_refits}/{stats.num_updates} updates")
    print(f"supervision_virtual_sleep_s: {sum(supervision_clock.sleeps):.6g}")
    for name, latency in (
        ("query", report.query_latency),
        ("update", report.update_latency),
    ):
        for stat, value in latency.items():
            print(f"{name}_latency_{stat}: {value:.6g}")
    passed = (
        report.num_queries == batches * queries_per_batch
        and report.sustained_qps > 0.0
        and not report.stale_egos
        and report.num_degraded_updates == 0
    )
    return 0 if passed else 1


def _command_lint(
    root: str | None, output_format: str, rules: str | None, list_rules: bool
) -> int:
    from repro.lint.engine import main as lint_main

    argv: list[str] = []
    if list_rules:
        argv.append("--list-rules")
    if root is not None:
        argv.extend(["--root", root])
    argv.extend(["--format", output_format])
    if rules:
        argv.extend(["--rules", rules])
    return lint_main(argv)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args.experiment, args.scale, args.seed)
    if args.command == "generate":
        return _command_generate(args.output, args.scale, args.seed)
    if args.command == "lint":
        return _command_lint(
            args.root, args.output_format, args.rules, args.list_rules
        )
    if args.command == "serve-replay":
        return _command_serve_replay(
            args.scale,
            args.seed,
            args.batches,
            args.queries_per_batch,
            args.fault_rate,
        )
    if args.command == "chaos":
        return _command_chaos(
            args.scale,
            args.seed,
            args.shards,
            args.fault_rate,
            args.max_egos,
        )
    return 2  # pragma: no cover - argparse enforces the choices above


if __name__ == "__main__":
    sys.exit(main())
