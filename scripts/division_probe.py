"""Division probe: is Phase I a function of the graph's value?

    PYTHONPATH=src python scripts/division_probe.py

Divides the same graph four more ways — rebuilt with shuffled node / edge
insertion and random endpoint orientation through the oracle and through
``divide``, through ``divide`` as generated, and as a bare
``CSRGraph(indptr, indices, nodes)`` — and counts the egos whose community
list (members, index, tightness) differs from, or is missing against, the
oracle (``reference_divide`` of ``tests/division_reference.py``, which runs
Girvan–Newman on ego-network ``Graph`` objects) on the graph as generated.
Every cell must read ``0/N``; exits non-zero otherwise.  (~10 s.)
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# The Phase I oracle is a test module (tests/division_reference.py).
if str(REPO_ROOT) not in sys.path:
    sys.path.append(str(REPO_ROOT))

from repro.core.division import DivisionResult, divide  # noqa: E402 — needs the path fix above
from repro.graph.csr import CSRGraph  # noqa: E402
from repro.graph.graph import Graph  # noqa: E402
from repro.synthetic import make_workload  # noqa: E402
from tests.division_reference import reference_divide  # noqa: E402

GRID = (
    ("tiny", ("oracle shuffled", "routed", "routed shuffled", "routed source-less")),
    ("small", ("routed",)),
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


def divide_leg(graph: Graph, seed: int, leg: str) -> DivisionResult:
    if leg == "oracle shuffled":
        return reference_divide(shuffled(graph, seed))
    if leg == "routed shuffled":
        return divide(shuffled(graph, seed))
    if leg == "routed source-less":
        return divide(source_less(graph))
    return divide(graph)


def main() -> int:
    differing_total = 0
    for scale, legs in GRID:
        graphs = {seed: make_workload(scale, seed=seed).dataset.graph for seed in SEEDS}
        oracle = {seed: reference_divide(g).communities_by_ego for seed, g in graphs.items()}
        for leg in legs:
            cells = []
            for seed, graph in graphs.items():
                got = divide_leg(graph, seed, leg).communities_by_ego
                differing = sum(got.get(ego) != blocks for ego, blocks in oracle[seed].items())
                differing_total += differing
                cells.append(f"{differing}/{len(got)}")
            print(f"{scale:5s} {leg:18s} {' '.join(cells)}", flush=True)
    return 1 if differing_total else 0


if __name__ == "__main__":
    sys.exit(main())
