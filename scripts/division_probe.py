"""Division probe: is Phase I a function of the graph's value?

    PYTHONPATH=src python scripts/division_probe.py

For every detector, divides the same graph four more ways — rebuilt with
shuffled node / edge insertion and random endpoint orientation on either
route, through the routed kernel, and as a bare
``CSRGraph(indptr, indices, nodes)`` — and counts the egos
whose community list (members, index, tightness) differs from, or is
missing against, the oracle (the detector as a callable, which runs on
ego-network ``Graph`` objects) on the graph as generated.  Every cell must
read ``0/N``; exits non-zero otherwise.  (~10 s.)
"""

from __future__ import annotations

import random
import sys

from repro.core.division import DivisionResult, divide, get_detector
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.synthetic import make_workload

DETECTORS = ("girvan_newman", "label_propagation", "louvain")
GRID = (
    ("tiny", DETECTORS, ("oracle shuffled", "routed", "routed shuffled", "routed source-less")),
    ("small", ("girvan_newman",), ("routed",)),
)
SEEDS = (0, 1, 2)


def shuffled(graph: Graph, seed: int) -> Graph:
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in graph.edges()]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return Graph(edges=edges, nodes=nodes)


def source_less(graph: Graph) -> CSRGraph:
    snapshot = CSRGraph.from_graph(graph)
    return CSRGraph(snapshot.indptr, snapshot.indices, list(snapshot.nodes()))


def divide_leg(graph: Graph, seed: int, detector: str, leg: str) -> DivisionResult:
    if leg == "oracle shuffled":
        return divide(shuffled(graph, seed), detector=get_detector(detector))
    if leg == "routed shuffled":
        return divide(shuffled(graph, seed), detector=detector)
    if leg == "routed source-less":
        return divide(source_less(graph), detector=detector)
    return divide(graph, detector=detector)


def main() -> int:
    differing_total = 0
    for scale, detectors, legs in GRID:
        graphs = {seed: make_workload(scale, seed=seed).dataset.graph for seed in SEEDS}
        for detector in detectors:
            oracle = {
                seed: divide(graph, detector=get_detector(detector)).communities_by_ego
                for seed, graph in graphs.items()
            }
            for leg in legs:
                cells = []
                for seed, graph in graphs.items():
                    got = divide_leg(graph, seed, detector, leg).communities_by_ego
                    differing = sum(got.get(ego) != blocks for ego, blocks in oracle[seed].items())
                    differing_total += differing
                    cells.append(f"{differing}/{len(got)}")
                print(f"{scale:5s} {detector:18s} {leg:18s} {' '.join(cells)}", flush=True)
    return 1 if differing_total else 0


if __name__ == "__main__":
    sys.exit(main())
