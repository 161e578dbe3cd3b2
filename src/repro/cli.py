"""Command-line interface for the LoCEC reproduction.

The subcommands cover the common workflows without writing any Python:

* ``locec-repro list`` — list the available paper experiments.
* ``locec-repro run table4 --scale small --seed 0`` — regenerate one paper
  table/figure and print it.
* ``locec-repro generate /tmp/network.json --scale small`` — generate a
  synthetic WeChat-like dataset (graph + features + interactions + survey
  labels) and save it as a JSON bundle loadable with
  :func:`repro.graph.load_dataset_json`.
* ``locec-repro serve-replay --scale tiny`` — serving smoke: fit a
  pipeline, open a :class:`repro.serve.ServingSession` and replay synthetic
  update + query traffic; prints sustained QPS and latency percentiles and
  exits non-zero if any query goes unanswered.
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

    serve_parser = subparsers.add_parser(
        "serve-replay",
        help="fit a pipeline, open a ServingSession and replay synthetic "
        "update + query traffic; reports sustained QPS and latency "
        "percentiles and exits non-zero if a query goes unanswered",
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


def _command_serve_replay(
    scale: str,
    seed: int,
    batches: int,
    queries_per_batch: int,
) -> int:
    from repro.core.config import LoCECConfig
    from repro.core.pipeline import LoCEC
    from repro.serve import ServingSession, replay_traffic

    workload = make_workload(scale=scale, seed=seed)
    config = LoCECConfig.locec_xgb()
    config.gbdt.num_rounds = 10
    pipeline = LoCEC(config)
    pipeline.fit(
        workload.dataset.graph,
        features=workload.dataset.features,
        interactions=workload.dataset.interactions,
        labeled_edges=workload.train_edges,
        division=workload.division(),
    )
    with ServingSession(pipeline) as session:
        report = replay_traffic(
            session,
            num_batches=batches,
            queries_per_batch=queries_per_batch,
            seed=seed,
        )
    for key, value in report.as_dict().items():
        print(f"{key}: {value:.6g}")
    stats = session.stats
    print(f"labeler refits {stats.num_labeler_refits}/{stats.num_updates} updates")
    for name, latency in (
        ("query", report.query_latency),
        ("update", report.update_latency),
    ):
        for stat, value in latency.items():
            print(f"{name}_latency_{stat}: {value:.6g}")
    passed = (
        report.num_queries == batches * queries_per_batch
        and report.sustained_qps > 0.0
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
        )
    return 2  # pragma: no cover - argparse enforces the choices above


if __name__ == "__main__":
    sys.exit(main())
