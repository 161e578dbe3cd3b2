"""The measuring child: sets one workload up, runs rounds, checks every output.

``run.py`` starts this file in a fresh single-threaded interpreter per
workload.  Protocol (README.md has the reasons):

* set-up is everything from process start until one op of every kind has
  run once: imports, input generation, the cold ``fit`` (whose ``macro_f1`` is
  the run's quality figure), the first classify, query block, warm write
  and refit write;
* a *round* is one fresh ``LoCEC.fit`` + one classify block, one warm write
  (alternately an op and its exact inverse) and a query block, and every
  ``refit_every``-th round a structural write, a query block, its inverse
  and a query block.  Rounds repeat for ``--seconds`` (never fewer than
  ``MIN_ROUNDS``);
* a *sample* is one timed call, or a block of consecutive short calls; the
  reference kernel is timed around every sample and the sample rescaled to
  nominal host speed; every timing metric is a median over samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path
from statistics import median, quantiles

import numpy as np

import hostref
from trace import OpTable, Tracer
from workloads import BY_NAME, QUERY_BATCH_EDGES, QueryScript, make_inputs, refit_edges, warm_ops

from repro.core import LoCEC
from repro.serve import ServingSession

MIN_ROUNDS = 6
CLASSIFY_BLOCK_S = 0.1
"""Classify and query samples are blocks of calls sized to last this long."""
REF_MAX_AGE_S = 0.25
"""A reference reading this fresh is reused as the next sample's 'before'."""
OUT_DIR = Path(__file__).resolve().parent / "out"


class Sampler:
    """Times calls, each bracketed by the host reference kernel."""

    def __init__(self) -> None:
        self.samples: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        """metric -> ``(units, wall seconds, seconds at nominal host speed)``."""
        self.refs: list[float] = []
        self._last = (0.0, float("-inf"))

    def reference_ms(self, max_age: float = 0.0) -> float:
        value, when = self._last
        if time.perf_counter() - when > max_age:
            value = hostref.measure_ms()
            self.refs.append(value)
            self._last = (value, time.perf_counter())
        return value

    def time(self, metric: str, call, units: float = 1.0):
        gc.collect()
        before = self.reference_ms(REF_MAX_AGE_S)
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        after = self.reference_ms()
        scale = hostref.REF_NOMINAL_MS / ((before + after) / 2)
        self.samples[metric].append((units, wall, wall * scale))
        return result

    def seconds(self, metric: str, normalised: bool = True) -> float | None:
        """Median seconds per sample."""
        values = [sample[2 if normalised else 1] for sample in self.samples[metric]]
        return median(values) if values else None

    def rate(self, metric: str, normalised: bool = True) -> float | None:
        """Median units per second."""
        values = [s[0] / s[2 if normalised else 1] for s in self.samples[metric]]
        return median(values) if values else None


class Bench:
    """One workload's state: inputs, serving session, scripts and op counts."""

    def __init__(self, workload, seed: int, shrink: int, sampler: Sampler) -> None:
        self.workload = workload
        self.shrink = shrink
        self.sampler = sampler
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        start = time.perf_counter()
        # Writes mutate the served graph and stores in place, so fits get
        # their own pristine copy of the same inputs.
        self.fit_inputs = make_inputs(workload, seed, shrink)
        self.serve_inputs = make_inputs(workload, seed, shrink)
        self.generate_s = (time.perf_counter() - start) / 2
        self.check(self.fit_inputs.digest == self.serve_inputs.digest, "inputs not reproducible")
        self.edges = list(self.fit_inputs.graph.edges())

        pipeline = self.fit(self.serve_inputs)
        self.summary = pipeline.fit_summary_
        start = time.perf_counter()
        self.reference = pipeline.predict_edge_proba(self.edges)
        self.classify_calls = max(1, round(CLASSIFY_BLOCK_S / (time.perf_counter() - start)))
        self.check_matrix(self.reference)
        self.macro_f1 = self.quality(pipeline)
        self.session = ServingSession(pipeline)

        rng = random.Random(seed)
        self.scripts = {
            "warm": warm_ops(
                self.serve_inputs, pipeline.division_, workload.feature_writes, rng
            ),
            "refit": [
                ({"added_edges": [edge]}, {"removed_edges": [edge]})
                for edge in refit_edges(self.serve_inputs, rng)
            ],
        }
        for kind, script in self.scripts.items():
            if not script:
                raise SystemExit(f"{workload.name} seed {seed}: no {kind} write target")
        self.cursor = {"warm": 0, "refit": 0}
        self.pending: dict[str, dict | None] = {"warm": None, "refit": None}
        self.reports: dict[str, list] = {"warm": [], "refit": []}
        self.queries = QueryScript(self.serve_inputs, workload.zipf, seed)
        self.query_batches = 8
        start = time.perf_counter()
        self.query_block(timed=False)
        per_batch = (time.perf_counter() - start) / self.query_batches
        self.query_batches = max(8, round(CLASSIFY_BLOCK_S / per_batch))
        # One write of each kind.  The warm write's inverse is the first timed
        # write; a structural write is undone at once, so that no warm write
        # ever runs beside an added edge it was not proven warm against.
        self.write("warm", timed=False)
        self.write("refit", timed=False)
        self.write("refit", timed=False)

    # ------------------------------------------------------------------ ops
    def fit(self, inputs) -> LoCEC:
        data = inputs.dataset
        return LoCEC(self.workload.pipeline_config()).fit(
            data.graph, data.features, data.interactions, inputs.train_edges
        )

    def fit_and_classify(self) -> None:
        pipeline = self.sampler.time("fit", lambda: self.fit(self.fit_inputs))

        def classify():
            for _ in range(self.classify_calls):
                proba = pipeline.predict_edge_proba(self.edges)
            return proba

        proba = self.sampler.time(
            "classify", classify, units=self.classify_calls * len(self.edges)
        )
        self.count(1 + self.classify_calls, self.check_matrix(proba, self.reference))
        self.summary = pipeline.fit_summary_
        pipeline.close()

    def write(self, kind: str, timed: bool = True) -> None:
        """The next scripted write of ``kind``: an op, or the last op's inverse."""
        deltas = self.pending[kind]
        if deltas is None:
            script = self.scripts[kind]
            deltas, self.pending[kind] = script[self.cursor[kind] % len(script)]
            self.cursor[kind] += 1
        else:
            self.pending[kind] = None
        if self.tracer is not None:
            self.tracer.tag = kind

        def apply():
            return self.session.apply_updates(**deltas)

        report = self.sampler.time("update_" + kind, apply) if timed else apply()
        self.reports[kind].append(report)
        stale = report.stale_egos or self.session.stale_egos
        self.count(1, self.check(not stale, f"stale egos after a {kind} write"))

    def query_block(self, timed: bool = True) -> None:
        block = self.queries.block(self.query_batches)

        def serve():
            first = self.session.predict_proba(block[0])
            for batch in block[1:]:
                self.session.predict_proba(batch)
            return first

        units = len(block) * QUERY_BATCH_EDGES
        first = self.sampler.time("query", serve, units=units) if timed else serve()
        expected = self.session.pipeline.predict_edge_proba(block[0])
        same = np.array_equal(first, expected)
        self.count(len(block), self.check(same, "served rows differ from predict_edge_proba"))

    # --------------------------------------------------------------- rounds
    def rounds(self, seconds: float, min_rounds: int) -> int:
        start = time.perf_counter()
        done = 0
        while True:
            elapsed = time.perf_counter() - start
            if done >= min_rounds and elapsed + elapsed / done > seconds:
                break
            self.fit_and_classify()
            self.write("warm")
            self.query_block()
            if done % self.workload.refit_every == 0:
                for _ in range(2):
                    self.write("refit")
                    self.query_block()
            done += 1
        if self.pending["warm"] is not None:
            self.write("warm")
        return done

    def quality(self, pipeline: LoCEC) -> float:
        """``macro_f1`` of the cold fit, checked against the recorded floor."""
        inputs = self.serve_inputs
        predicted = np.array([int(label) for label in pipeline.predict_edges(inputs.eval_edges)])
        f1 = macro_f1(inputs.eval_labels, predicted)
        # Shrunk (smoke) inputs are too small for the recorded quality to hold.
        floor = 0.9 * self.workload.recorded_f1 if self.shrink == 1 else 0.0
        self.check(f1 >= floor, f"macro_f1 {f1:.4f} below 0.9 x recorded ({floor:.4f})")
        labeled = pipeline.fit_summary_.num_labeled_communities
        self.check(
            labeled >= self.workload.min_labeled_communities // self.shrink,
            f"{labeled} labeled communities: the workload no longer takes the hist route",
        )
        return f1

    def restore_drift(self) -> dict[str, float]:
        """How far the served predictions are from the fitted ones after the script.

        Every write was followed by its inverse, so the served state should be
        the fitted one again.  It is not always: removing an added edge can
        leave a neighbour set iterating in another order, Girvan-Newman then
        breaks a tie the other way, and a refit on the changed communities
        moves predictions.  Reported, not failed — see README, Findings.
        """
        final = self.session.pipeline.predict_edge_proba(self.edges)
        flipped = np.argmax(final, axis=1) != np.argmax(self.reference, axis=1)
        return {
            "core.pipeline.restore_max_abs_diff": float(np.abs(final - self.reference).max()),
            "core.pipeline.restore_label_flips": float(np.mean(flipped)),
        }

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release the serving session (idempotent)."""
        self.session.close()

    def __enter__(self) -> "Bench":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --------------------------------------------------------------- checks
    def check(self, ok: bool, message: str) -> bool:
        if not ok and message not in self.failures:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)
        return bool(ok)

    def check_matrix(self, proba: np.ndarray, reference: np.ndarray | None = None) -> bool:
        ok = bool(np.isfinite(proba).all()) and bool(
            np.allclose(proba.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
        )
        ok = self.check(ok, "probabilities not finite or rows do not sum to 1")
        if reference is not None:
            same = np.array_equal(proba, reference)
            ok = self.check(same, "fit is not bit-identical to the warm-up fit") and ok
        return ok

    def count(self, ops: int, ok: bool) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops


def macro_f1(truth: np.ndarray, predicted: np.ndarray) -> float:
    """Mean per-class F1 over the classes present in ``truth``."""
    scores = []
    for label in np.unique(truth):
        hit = float(np.sum((predicted == label) & (truth == label)))
        claimed, actual = np.sum(predicted == label), np.sum(truth == label)
        precision = hit / claimed if claimed else 0.0
        recall = hit / actual
        total = precision + recall
        scores.append(2 * precision * recall / total if total else 0.0)
    return float(np.mean(scores))


# ------------------------------------------------------------------ metrics
def end_to_end(sampler: Sampler, normalised: bool) -> dict[str, float | None]:
    def scaled(value, factor):
        return None if value is None else value * factor

    return {
        "fit_s": sampler.seconds("fit", normalised),
        "classify_edges_per_s": sampler.rate("classify", normalised),
        "update_warm_ms": scaled(sampler.seconds("update_warm", normalised), 1e3),
        "update_refit_ms": scaled(sampler.seconds("update_refit", normalised), 1e3),
        "query_edges_per_s": sampler.rate("query", normalised),
    }


def per_layer(bench: Bench, tracer: Tracer, stats_before) -> dict[str, float | None]:
    """Per-layer medians per root op, from the traced half of the run."""
    table = OpTable(tracer)
    classifier = ("core.community_classifier.fit", "core.community_classifier.result_vectors")

    def share(names):
        part = table.per_op("root.fit", names)
        whole = table.root_median("root.fit")
        return None if part is None or not whole else part / whole

    fit_self = table.root_median("root.fit", "self")
    fit_total = table.root_median("root.fit")
    out = {
        "core.division.divide_s": table.per_op("root.fit", "core.division.divide"),
        "core.division.egos": bench.summary.num_egos,
        "core.division.communities": bench.summary.num_communities,
        "core.division.share_of_fit": share("core.division.divide"),
        "core.labels.labeled_communities_s": table.per_op(
            "root.fit", "core.labels.labeled_communities"
        ),
        "core.labels.labeled_communities": bench.summary.num_labeled_communities,
        "core.aggregation.rows_s": table.per_op("root.fit", "core.aggregation.rows"),
        "core.aggregation.communities_in": table.per_op(
            "root.fit", "core.aggregation.rows", "count"
        ),
        "core.aggregation.patch_kernel_s": table.per_op(
            "root.update", "core.aggregation.patch_kernel", tag="warm"
        ),
        "ml.gbdt.fit_s": table.per_op("root.fit", "ml.gbdt.fit"),
        "ml.gbdt.predict_s": table.per_op("root.fit", "ml.gbdt.predict"),
        "ml.gbdt.rows": table.per_op("root.fit", "ml.gbdt.fit", "count"),
        "ml.nn.fit_s": table.per_op("root.fit", "ml.nn.fit"),
        "ml.nn.predict_s": table.per_op("root.fit", "ml.nn.predict"),
        "core.community_classifier.self_s": table.per_op("root.fit", classifier, "self"),
        "core.community_classifier.share_of_fit": share(classifier),
        "core.combination.labeler_fit_s": table.per_op(
            "root.fit", "core.combination.labeler_fit"
        ),
        "core.combination.edge_features_s": table.per_op(
            "root.fit", "core.combination.edge_features"
        ),
        "ml.logistic.fit_s": table.per_op("root.fit", "ml.logistic.fit"),
        "core.combination.share_of_fit": share("core.combination.labeler_fit"),
        "core.combination.predict_features_s": table.per_op(
            "root.classify", "core.combination.edge_features"
        ),
        "core.combination.predict_proba_s": table.per_op(
            "root.classify", "core.combination.predict_proba"
        ),
        "core.pipeline.fit_self_s": fit_self,
        "core.pipeline.fit_coverage": (
            None if fit_self is None or not fit_total else 1.0 - fit_self / fit_total
        ),
        "runtime.executor.run_s": table.per_op(
            "root.update", "runtime.executor.run", tag="refit"
        ),
        "runtime.executor.lifecycle_s": table.per_op(
            "root.update", "runtime.executor.lifecycle", tag="refit"
        ),
        "serve.self_s": table.root_median("root.query", "self"),
    }
    for kind in ("warm", "refit"):
        reports = bench.reports[kind]
        out[f"core.pipeline.update_self_s.{kind}"] = table.root_median(
            "root.update", "self", tag=kind
        )
        out[f"core.pipeline.dirty_egos.{kind}"] = median(r.num_dirty_egos for r in reports)
        out[f"core.pipeline.rescored_communities.{kind}"] = median(
            r.num_rescored_communities for r in reports
        )
        out[f"core.pipeline.refits.{kind}"] = sum(r.classifier_refit for r in reports)
        out[f"core.pipeline.stale_egos.{kind}"] = sum(len(r.stale_egos) for r in reports)

    stats = bench.session.stats
    hits = stats.cache_hits - stats_before[0]
    misses = stats.cache_misses - stats_before[1]
    batches = [table.spans[index].seconds * 1e3 for index in table.roots("root.query")]
    out["serve.hit_ratio"] = hits / (hits + misses) if hits + misses else None
    out["serve.miss_edges"] = misses / len(batches) if batches else None
    out["serve.batch_p50_ms"] = median(batches) if batches else None
    out["serve.batch_p99_ms"] = quantiles(batches, n=100)[98] if len(batches) >= 100 else None
    out["serve.batches"] = len(batches)
    return out


def pool_divide_seconds(graph) -> float | None:
    """One division through the 2-worker pool + shared-memory path.

    No entry point the benchmark drives takes that path (``apply_updates``
    builds a serial executor), so it is timed once, directly, as a watch
    item for ROADMAP item 3.  A diagnostic must not fail the run.
    """
    try:
        from repro.runtime.executor import ShardedDivisionExecutor

        start = time.perf_counter()
        with ShardedDivisionExecutor(num_workers=2) as executor:
            executor.run(graph)
        return time.perf_counter() - start
    except Exception as error:  # noqa: BLE001 - boundary: report and carry on
        print(f"warning: pool divide not measured: {error!r}", file=sys.stderr)
        return None


# --------------------------------------------------------------------- main
def main(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    sampler = Sampler()
    with Bench(BY_NAME[args.workload], args.seed, args.shrink, sampler) as bench:
        return report(bench, sampler, args, started)


def report(bench: Bench, sampler: Sampler, args: argparse.Namespace, started: float) -> int:
    """Measure ``bench`` for ``--seconds`` and print its record."""
    workload = bench.workload
    setup_wall = time.perf_counter() - args.spawned_at
    setup_ref = (args.ref_ms + sampler.reference_ms()) / 2
    metrics: dict[str, float | None] = {
        "setup_s": setup_wall * hostref.REF_NOMINAL_MS / setup_ref,
        "raw.setup_s": setup_wall,
        "synthetic.generate_s": bench.generate_s,
    }

    min_rounds = max(2, MIN_ROUNDS // args.shrink)
    tracer = None
    if args.trace:
        # Half the budget untraced, half traced: the first gives the raw.*
        # medians and the base of trace.overhead_ratio, the second the spans.
        rounds = bench.rounds(args.seconds / 2, min_rounds // 2)
        untraced_fit = sampler.seconds("fit")
        metrics.update({f"raw.{k}": v for k, v in end_to_end(sampler, False).items()})
        sampler.samples.clear()
        stats_before = (bench.session.stats.cache_hits, bench.session.stats.cache_misses)
        for reports in bench.reports.values():
            reports.clear()
        tracer = bench.tracer = Tracer()
        tracer.install()
        try:
            rounds += bench.rounds(args.seconds / 2, min_rounds // 2)
        finally:
            tracer.uninstall()
        bench.tracer = None
        for name in tracer.missing:
            print(f"warning: wrap target {name} no longer exists", file=sys.stderr)
        metrics.update(per_layer(bench, tracer, stats_before))
        traced_fit = sampler.seconds("fit")
        metrics["trace.overhead_ratio"] = traced_fit / untraced_fit
        metrics["runtime.executor.pool_divide_s"] = pool_divide_seconds(bench.fit_inputs.graph)
    else:
        rounds = bench.rounds(args.seconds, min_rounds)
        metrics.update(end_to_end(sampler, True))
        metrics.update({f"raw.{k}": v for k, v in end_to_end(sampler, False).items()})
    metrics["macro_f1"] = bench.macro_f1
    metrics.update(bench.restore_drift())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["host.ref_ms"] = median(sampler.refs)
    q1, _, q3 = quantiles(sampler.refs, n=4)
    metrics["host.ref_spread"] = (q3 - q1) / median(sampler.refs)
    for name, samples in sampler.samples.items():
        metrics[f"samples.{name}"] = len(samples)

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "shrink": args.shrink,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "rounds": rounds,
        "runtime_options": asdict(workload.pipeline_config().runtime_options),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "input_digest": bench.fit_inputs.digest,
        "edges": len(bench.edges),
        "classify_calls_per_sample": bench.classify_calls,
        "query_batches_per_sample": bench.query_batches,
        "missing_wrap_targets": tracer.missing if tracer else [],
        "failures": bench.failures,
        "wall_s": time.perf_counter() - started,
    }
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl")
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
        "info": info,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--shrink", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--ref-ms", type=float, required=True)
    return parser.parse_args()


if __name__ == "__main__":
    sys.exit(main(parse_args()))
