#!/usr/bin/env python
"""Kernel micro-benchmark report: emits ``BENCH_kernels.json``.

Measures ops/sec for the Phase I hot-path kernels against their oracles
(dict-of-sets reference vs NumPy CSR) and for full Phase I division at the
``tiny`` and ``small`` synthetic scales, then writes the results to
``BENCH_kernels.json`` at the repo root.  Every PR regenerates the file
(``--update``) so the repo carries a perf trajectory, and CI runs the
regression gate (``--check``): if any kernel's ops/sec drops more than 30%
below the committed baseline the script exits non-zero.

Usage::

    python scripts/perf_report.py               # measure, check vs committed, update file
    python scripts/perf_report.py --check       # measure + gate only, leave file untouched
    python scripts/perf_report.py --check-ratios # gate backend speedup ratios only (CI-safe
                                                 # on machines that didn't produce the baseline)
    python scripts/perf_report.py --update      # measure + rewrite file, no gate
    python scripts/perf_report.py --quick ...   # smoke mode (tiny scale, 1 repeat)

The per-benchmark result is the *best* of ``--repeats`` runs, which is the
standard way to suppress scheduler noise for CPU-bound micro-benchmarks.
The two sides of each speedup pair are timed in interleaved rounds
(alternating which goes first), and the pair's speedup is the median of
the per-round ratios: the host here changes speed in steps lasting
seconds, which moves both sides of a round together but can land on one
side's whole best-of block.  In a round each side runs a block of calls
lasting at least ``PAIR_BLOCK_SECONDS``, so a millisecond kernel is not
read off one call.  The spread of the per-round ratios is printed beside
each speedup.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Callable

# One BLAS thread, as CI and benchmarks/e2e/run.py measure: pinned before
# NumPy loads, or the speedup ratios are read on a multi-threaded BLAS.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
# The model-layer oracles are test modules (tests/*_reference.py).
if str(REPO_ROOT) not in sys.path:
    sys.path.append(str(REPO_ROOT))

from repro.clock import Clock, SystemClock  # noqa: E402 — needs the sys.path fix above

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_kernels.json"
REGRESSION_TOLERANCE = 0.30
SCHEMA_VERSION = 1

# The ratio gate (--check-ratios) only guards speedup pairs the baseline
# recorded as decisive wins; near-parity pairs (crossovers kept as routing
# evidence, like gbdt_fit_small_hist) would flap on scheduler noise.
RATIO_GATE_MIN_SPEEDUP = 1.5

# Shortest block of calls one side of a speedup pair runs in a round: one
# call of a ~2 ms kernel read 8.3x-17.8x against its oracle within one run.
PAIR_BLOCK_SECONDS = 0.05

# Routed-kernel vs oracle speedup pairs: csr/dict for the graph +
# aggregation kernels, array/node for the tree-model kernels against the
# oracle in tests/exact_reference.py, fused/loop for the NN engine against
# tests/nn_reference.py, hist/array for the histogram split search (keyed
# with a "_hist" suffix so it doesn't collide with the array/node pair), and
# incremental/full for the serving update path.
SPEEDUP_PAIRS = (
    ("_csr", "_dict", ""),
    ("_array", "_node", ""),
    ("_fused", "_loop", ""),
    ("_hist", "_array", "_hist"),
    ("_incremental", "_full", ""),
)


class SelfTimedBenchmark:
    """A benchmark whose callable *returns* its seconds-per-op.

    Most benchmarks are wall-clocked from the outside by :func:`_sample`.
    Benchmarks wrapped in this class instead report their own duration —
    used by ``serving_replay``, which reports the replay's own
    clock-injected wall-clock.
    """

    def __init__(self, function: Callable[[], float]) -> None:
        self.function = function


def _sample(function: Callable[[], object] | SelfTimedBenchmark, clock: Clock) -> float:
    """Seconds of one call, wall-clocked on the injectable ``clock`` (the
    abstraction the runtime uses, so the lint engine's determinism rules
    apply to this script unmodified), or as a self-timed benchmark reports
    them."""
    if isinstance(function, SelfTimedBenchmark):
        return float(function.function())
    start = clock.perf_counter()
    function()
    return clock.perf_counter() - start


def _result(samples: list[float], self_timed: bool = False) -> dict[str, float]:
    """The best of ``samples`` as a report entry."""
    best = max(min(samples), 1e-9)
    result = {
        "seconds_per_op": best,
        "ops_per_sec": 1.0 / best,
        "repeats": len(samples),
    }
    if self_timed:
        result["self_timed"] = True
    return result


def measure_pair(
    fast: Callable[[], object] | SelfTimedBenchmark,
    reference: Callable[[], object] | SelfTimedBenchmark,
    rounds: int,
    clock: Clock,
) -> tuple[list[float], list[float]]:
    """Seconds per call of ``fast`` and of ``reference`` over ``rounds``
    interleaved rounds, the reference first in even rounds and second in
    odd ones.  A side's sample is the mean of a block of calls sized, from
    one call, to last at least :data:`PAIR_BLOCK_SECONDS`."""
    fast_calls, reference_calls = (
        max(1, math.ceil(PAIR_BLOCK_SECONDS / max(_sample(side, clock), 1e-9)))
        for side in (fast, reference)
    )

    def block(side: Callable[[], object] | SelfTimedBenchmark, calls: int) -> float:
        return sum(_sample(side, clock) for _ in range(calls)) / calls

    fast_samples: list[float] = []
    reference_samples: list[float] = []
    for round_index in range(rounds):
        if round_index % 2 == 0:
            reference_samples.append(block(reference, reference_calls))
            fast_samples.append(block(fast, fast_calls))
        else:
            fast_samples.append(block(fast, fast_calls))
            reference_samples.append(block(reference, reference_calls))
    return fast_samples, reference_samples


def _dense_sample_graph(num_nodes: int, probability: float, seed: int = 0):
    """A denser Erdos-Renyi graph (degree ~60) for the scaling benchmarks."""
    import random

    from repro.graph import Graph

    rng = random.Random(seed)
    graph = Graph(nodes=range(num_nodes))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < probability:
                graph.add_edge(u, v)
    return graph


def build_benchmarks(
    quick: bool,
) -> dict[str, Callable[[], object] | SelfTimedBenchmark]:
    """The benchmark suite: name -> zero-arg callable (one op per call).

    Kernel benchmarks are framed the way the pipeline uses them: CSR
    snapshots are built once outside the timed region (they are per-shard,
    not per-call), and each side runs its native representation (the
    ``_dict`` oracles materialise ``Graph`` ego nets and look stores up pair
    by pair, the routed kernels run on flat arrays).  The headline pairs are
    ``phase1_division_small_{dict,csr}`` — end-to-end Phase I division —
    and ``phase2_{feature_matrices,statistic_vectors}_small_{dict,csr}`` —
    end-to-end Phase II aggregation over every division community (the
    Phase II kernel is likewise compiled outside the timed region, matching
    its once-per-fit lifecycle).  The model layer gets the same treatment:
    ``gbdt_fit_{node,array,hist}`` (boosted fit on the statistic vectors:
    the scalar-scan oracle of ``tests/exact_reference.py``, the exact
    vectorized split search, and the histogram split search of
    ``repro.ml.hist``),
    ``forest_predict_{node,array}`` (probabilities + leaf-value embedding,
    the LoCEC-XGB inference hot path: the oracle's per-tree pointer walks vs
    the stacked forest tensors), ``commcnn_tensor_{dict,csr}``
    (CNN input tensor emission, direct Phase2Kernel path on csr) and
    ``commcnn_{fit,predict}_{loop,fused}`` (CommCNN Adam training and batched
    inference: the layer-by-layer oracle of ``tests/nn_reference.py`` vs the
    compiled tape engine of ``repro.ml.nn.engine``; bit-identical outputs).
    """
    import numpy as np

    from repro.community.betweenness import edge_betweenness
    from repro.core.aggregation import (
        FeatureMatrixBuilder,
        reference_feature_matrix,
        reference_statistic_vector,
    )
    from repro.core.commcnn import build_commcnn_model
    from repro.core.config import CommCNNConfig
    from repro.core.division import divide, get_detector
    from repro.graph.csr import CSRGraph, dense_ego_nets, edge_betweenness_csr
    from repro.graph.ego import ego_network
    from repro.ml.gbdt import GradientBoostedClassifier
    from repro.ml.nn import NeuralNetworkClassifier
    from repro.synthetic import make_workload
    from tests.exact_reference import ReferenceBoostedClassifier
    from tests.nn_reference import LoopClassifier

    scales = ["tiny"] if quick else ["tiny", "small"]
    workloads = {scale: make_workload(scale, seed=0) for scale in scales}
    graph = workloads[scales[-1]].dataset.graph
    csr = CSRGraph.from_graph(graph)
    # Degree ~60 graph: where the array kernels' O(sum-of-degrees) scaling
    # pulls away from the per-neighbour Python loops.
    dense = _dense_sample_graph(80 if quick else 400, 0.15)
    dense_csr = CSRGraph.from_graph(dense)
    dense_nodes = list(dense.nodes())

    benchmarks: dict[str, Callable[[], object] | SelfTimedBenchmark] = {
        "ego_extraction_dense_dict": lambda: [
            ego_network(dense, ego) for ego in dense_nodes
        ],
        "ego_extraction_dense_csr": lambda: dense_ego_nets(dense_csr, dense_nodes),
        "edge_betweenness_dict": lambda: edge_betweenness(graph),
        "edge_betweenness_csr": lambda: edge_betweenness_csr(csr),
    }
    for scale in scales:
        scale_graph = workloads[scale].dataset.graph
        benchmarks[f"phase1_division_{scale}_dict"] = (
            lambda g=scale_graph: divide(g, detector=get_detector("girvan_newman"))
        )
        benchmarks[f"phase1_division_{scale}_csr"] = lambda g=scale_graph: divide(g)

    for scale in scales:
        workload = workloads[scale]
        communities = list(workload.division().all_communities())
        stores = (workload.dataset.features, workload.dataset.interactions)
        builder = FeatureMatrixBuilder(*stores, k=20)
        builder.feature_matrices(communities[:1])  # compile once
        benchmarks[f"phase2_feature_matrices_{scale}_dict"] = (
            lambda st=stores, cs=communities: [
                reference_feature_matrix(c, *st, k=20) for c in cs
            ]
        )
        benchmarks[f"phase2_statistic_vectors_{scale}_dict"] = (
            lambda st=stores, cs=communities: np.stack(
                [reference_statistic_vector(c, *st) for c in cs]
            )
        )
        benchmarks[f"commcnn_tensor_{scale}_dict"] = (
            lambda st=stores, cs=communities: np.stack(
                [reference_feature_matrix(c, *st, k=20).matrix for c in cs]
            )[:, None]
        )
        benchmarks[f"phase2_feature_matrices_{scale}_csr"] = (
            lambda b=builder, cs=communities: b.feature_matrices(cs)
        )
        benchmarks[f"phase2_statistic_vectors_{scale}_csr"] = (
            lambda b=builder, cs=communities: b.statistic_vectors(cs)
        )
        benchmarks[f"commcnn_tensor_{scale}_csr"] = (
            lambda b=builder, cs=communities: b.matrices_as_tensor(cs)
        )

    # Model-layer kernels: GBDT fit + batched forest inference on the last
    # scale's statistic vectors (the LoCEC-XGB design matrix; ``builder`` and
    # ``communities`` are the loop's last), the pointer-walk oracle
    # ("node") vs stacked forest tensors.  10 rounds x 3 classes keeps the
    # oracle's fit within the benchmark budget while exercising every kernel.
    model_scale = scales[-1]
    design = builder.statistic_vectors(communities)
    labels = np.arange(design.shape[0]) % 3

    def gbdt(backend: str):
        if backend == "node":
            return ReferenceBoostedClassifier(num_rounds=10, num_classes=3)
        return GradientBoostedClassifier(num_rounds=10, num_classes=3, backend=backend)

    fitted = {backend: gbdt(backend).fit(design, labels) for backend in ("node", "array")}
    # gbdt_fit_hist: the histogram growth (one per-fit quantization, a
    # round's class trees grown together level by level, one histogram pass
    # per level with parent-minus-sibling subtraction) against the exact
    # array search above.
    for backend in ("node", "array", "hist"):
        benchmarks[f"gbdt_fit_{model_scale}_{backend}"] = (
            lambda be=backend, d=design, y=labels: gbdt(be).fit(d, y)
        )
    for backend in ("node", "array"):
        benchmarks[f"forest_predict_{model_scale}_{backend}"] = (
            lambda m=fitted[backend], d=design: (
                m.predict_proba(d),
                m.leaf_values(d),
            )
        )

    # CommCNN execution-engine kernels: the Figure-8 network trained on the
    # CNN input tensor of every division community (k=20 rows, |I|+|f|
    # columns, 3 classes), the layer-by-layer oracle ("loop") vs the
    # compiled tape ("fused").  4 epochs keeps the oracle's fit inside the
    # benchmark budget while exercising ragged batches and every optimiser
    # step.
    tensor = builder.matrices_as_tensor(communities)
    cnn_labels = np.arange(tensor.shape[0]) % 3
    cnn_config = CommCNNConfig(epochs=4)

    def commcnn_fit(backend: str):
        classifier_type = LoopClassifier if backend == "loop" else NeuralNetworkClassifier
        classifier = classifier_type(
            build_commcnn_model(20, builder.num_columns, 3, config=cnn_config),
            num_classes=3,
            epochs=cnn_config.epochs,
            batch_size=cnn_config.batch_size,
            learning_rate=cnn_config.learning_rate,
            seed=cnn_config.seed,
        )
        return classifier.fit(tensor, cnn_labels)

    cnn_fitted = {backend: commcnn_fit(backend) for backend in ("loop", "fused")}
    for backend in ("loop", "fused"):
        benchmarks[f"commcnn_fit_{model_scale}_{backend}"] = (
            lambda be=backend: commcnn_fit(be)
        )
        benchmarks[f"commcnn_predict_{model_scale}_{backend}"] = (
            lambda m=cnn_fitted[backend], t=tensor: m.predict_proba(t)
        )

    # Serving-layer benchmarks.  ``serving_update_{scale}_{incremental,full}``
    # is the headline pair of the online layer: one ``LoCEC.apply_updates``
    # batch (a single touched friendship edge + one interaction delta, chosen
    # so the dirty-ego set stays under 10% of the graph) against a full
    # from-scratch refit on the same inputs.  Incremental cost scales with
    # the *dirty* slice, full refit with the whole graph, so the gated
    # ``speedup_serving_update_{scale}`` ratio must stay decisively above 1.
    # ``serving_replay_{scale}`` is self-timed sustained-traffic throughput:
    # one op replays a fixed synthetic schedule of batched edge queries plus
    # periodic update batches through a ``ServingSession`` and reports the
    # replay's own clock-injected wall-clock.  All three use private
    # workload instances — replay mutates its graph and stores in place.
    import atexit

    from repro.core.config import LoCECConfig
    from repro.core.pipeline import LoCEC
    from repro.serve import ServingSession, replay_traffic

    def serving_pipeline(workload):
        config = LoCECConfig.locec_xgb()
        config.gbdt.num_rounds = 10
        return LoCEC(config).fit(
            workload.dataset.graph,
            workload.dataset.features,
            workload.dataset.interactions,
            workload.train_edges,
            division=workload.division(),
        )

    serve_scale = scales[-1]
    full_workload = make_workload(serve_scale, seed=0)

    def full_refit(w=full_workload):
        config = LoCECConfig.locec_xgb()
        config.gbdt.num_rounds = 10
        return LoCEC(config).fit(
            w.dataset.graph,
            w.dataset.features,
            w.dataset.interactions,
            w.train_edges,
        )

    benchmarks[f"serving_update_{serve_scale}_full"] = full_refit

    incr_workload = make_workload(serve_scale, seed=0)
    incr_pipeline = serving_pipeline(incr_workload)
    serve_graph = incr_workload.dataset.graph
    # The edge whose endpoints share the fewest common friends dirties the
    # smallest ego set ({u, v} plus the common neighbourhood); re-adding an
    # existing edge is idempotent on the graph, so every op re-divides the
    # same dirty egos and the per-op cost is stable.
    update_edge = min(
        serve_graph.edges(),
        key=lambda e: len(serve_graph.neighbors(e[0]) & serve_graph.neighbors(e[1])),
    )
    num_dirty = 2 + len(
        serve_graph.neighbors(update_edge[0]) & serve_graph.neighbors(update_edge[1])
    )
    assert num_dirty < 0.1 * serve_graph.num_nodes, (
        f"update edge dirties {num_dirty}/{serve_graph.num_nodes} egos; "
        "the incremental benchmark needs a <10% dirty slice"
    )
    update_delta = [1.0] * incr_workload.dataset.interactions.num_dims

    def incremental_update(p=incr_pipeline, e=update_edge, d=update_delta):
        return p.apply_updates(
            added_edges=[e], interaction_deltas=[(e[0], e[1], d)]
        )

    benchmarks[f"serving_update_{serve_scale}_incremental"] = incremental_update

    replay_workload = make_workload(serve_scale, seed=0)
    replay_session = ServingSession(serving_pipeline(replay_workload))
    atexit.register(replay_session.close)

    def replay_seconds(s=replay_session) -> float:
        return replay_traffic(
            s, num_batches=6, queries_per_batch=32, seed=0
        ).seconds

    benchmarks[f"serving_replay_{serve_scale}"] = SelfTimedBenchmark(replay_seconds)
    return benchmarks


def speedup_pairs(names: list[str]) -> list[tuple[str, str, str]]:
    """``(derived key, fast name, reference name)`` for every benchmark pair
    :data:`SPEEDUP_PAIRS` matches among ``names``."""
    pairs = []
    for fast, reference, key_suffix in SPEEDUP_PAIRS:
        for name in names:
            if name.endswith(fast):
                twin = name[: -len(fast)] + reference
                if twin in names:
                    pairs.append((f"speedup_{name[: -len(fast)]}{key_suffix}", name, twin))
    return pairs


def run_suite(quick: bool, repeats: int) -> dict:
    """Time every benchmark; each speedup pair in ``repeats`` interleaved
    rounds, the rest ``repeats`` times in a row.  A benchmark's result is
    the best of all its samples, a speedup the median of its per-round
    ratios."""
    benchmarks = build_benchmarks(quick)
    pairs = speedup_pairs(list(benchmarks))
    paired = {name for _, fast, reference in pairs for name in (fast, reference)}
    clock = SystemClock()
    samples: dict[str, list[float]] = {}
    for name, function in benchmarks.items():
        _sample(function, clock)  # warm-up (imports, allocator, compile caches)
        if name not in paired:
            samples[name] = [_sample(function, clock) for _ in range(repeats)]
    derived: dict[str, float] = {}
    spread: dict[str, tuple[float, float]] = {}
    for key, fast, reference in pairs:
        fast_samples, reference_samples = measure_pair(
            benchmarks[fast], benchmarks[reference], repeats, clock
        )
        samples.setdefault(fast, []).extend(fast_samples)
        samples.setdefault(reference, []).extend(reference_samples)
        ratios = [
            slow / max(quicker, 1e-9) for slow, quicker in zip(reference_samples, fast_samples)
        ]
        derived[key] = statistics.median(ratios)
        spread[key] = (min(ratios), max(ratios))
    results = {
        name: _result(samples[name], isinstance(function, SelfTimedBenchmark))
        for name, function in benchmarks.items()
    }
    for name, result in results.items():
        note = ", self-timed" if result.get("self_timed") else ""
        print(
            f"{name:32s} {result['seconds_per_op'] * 1e3:10.2f} ms/op "
            f"({result['ops_per_sec']:10.3f} ops/s{note})"
        )
    for key, value in sorted(derived.items()):
        low, high = spread[key]
        print(f"{key:40s} {value:6.2f}x  (rounds {low:.2f}-{high:.2f}x)")
    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "benchmarks": results,
        "derived": derived,
    }


def check_regressions(report: dict, baseline_path: Path) -> list[str]:
    """Names of benchmarks that regressed >30% vs the committed baseline."""
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression gate")
        return []
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("quick", False) != report.get("quick", False):
        print("baseline and run use different modes; skipping regression gate")
        return []
    regressions = []
    for name, result in report["benchmarks"].items():
        base = baseline.get("benchmarks", {}).get(name)
        if base is None:
            continue
        floor = base["ops_per_sec"] * (1.0 - REGRESSION_TOLERANCE)
        if result["ops_per_sec"] < floor:
            regressions.append(
                f"{name}: {result['ops_per_sec']:.3f} ops/s < "
                f"{floor:.3f} (baseline {base['ops_per_sec']:.3f} - 30%)"
            )
    return regressions


def check_ratio_regressions(report: dict, baseline_path: Path) -> list[str]:
    """Names of *speedup ratios* that regressed >30% vs the committed baseline.

    Absolute ops/sec gating (:func:`check_regressions`) only works when the
    run and the baseline come from the same machine; CI runners are not that
    machine.  Speedup ratios compare two backends measured in the *same*
    run on the *same* host, so they transfer: a fast kernel that loses its
    edge over its reference backend regressed no matter the hardware.  Only
    ratios the baseline recorded as decisive (>= ``RATIO_GATE_MIN_SPEEDUP``)
    are gated — near-parity pairs are deliberate crossovers, not wins to
    protect.
    """
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping ratio gate")
        return []
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("quick", False) != report.get("quick", False):
        print("baseline and run use different modes; skipping ratio gate")
        return []
    regressions = []
    for name, base_ratio in baseline.get("derived", {}).items():
        if base_ratio < RATIO_GATE_MIN_SPEEDUP:
            continue
        ratio = report.get("derived", {}).get(name)
        if ratio is None:
            # A guarded ratio with no counterpart means the benchmark pair
            # was removed or renamed — fail loudly instead of going
            # vacuously green (the gate would otherwise protect nothing).
            regressions.append(
                f"{name}: baseline ratio {base_ratio:.2f}x has no counterpart "
                "in this run (benchmark pair removed or renamed?)"
            )
            continue
        floor = base_ratio * (1.0 - REGRESSION_TOLERANCE)
        if ratio < floor:
            regressions.append(
                f"{name}: {ratio:.2f}x < {floor:.2f}x (baseline {base_ratio:.2f}x - 30%)"
            )
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smoke mode: tiny scale, 1 repeat"
    )
    def positive_int(value: str) -> int:
        parsed = int(value)
        if parsed < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return parsed

    parser.add_argument(
        "--repeats",
        type=positive_int,
        default=None,
        help="runs per benchmark (best-of, >= 1)",
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the JSON, skip the gate"
    )
    parser.add_argument(
        "--check", action="store_true", help="gate only, leave the JSON untouched"
    )
    parser.add_argument(
        "--check-ratios",
        action="store_true",
        help="gate the backend speedup *ratios* only (machine-portable: the "
        "CI job for runners that did not produce the absolute baseline)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="report path"
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)

    report = run_suite(quick=args.quick, repeats=repeats)

    failures: list[str] = []
    if args.check_ratios:
        failures = check_ratio_regressions(report, args.output)
        for line in failures:
            print(f"RATIO REGRESSION: {line}", file=sys.stderr)
    elif not args.update:
        failures = check_regressions(report, args.output)
        for line in failures:
            print(f"REGRESSION: {line}", file=sys.stderr)
    if not args.check and not args.check_ratios:
        args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    if failures:
        print(f"{len(failures)} kernel(s) regressed >30%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
