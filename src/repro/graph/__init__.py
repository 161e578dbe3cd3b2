"""Graph substrate: undirected graphs, the CSR Phase I kernels, feature and interaction stores.

The product reaches this package three ways: Phase I divides a
:class:`CSRGraph` snapshot, Phases II and III read the feature and
interaction stores, and ``repro.cli generate`` writes the dataset JSON
(:mod:`repro.graph.io`).  Two graph representations live here:

* :class:`Graph` — the pure-Python ``dict[node, set[node]]`` container.  It
  is the mutable, readable input type, and the implementation every
  algorithm is specified against.
* :class:`CSRGraph` (:mod:`repro.graph.csr`) — an immutable NumPy CSR
  snapshot with the kernels Phase I division routes through (ego-network
  extraction, Girvan-Newman over cached per-component betweenness, every
  ego of a call in lockstep over one batched all-sources Brandes kernel).
  It has no read API of its own: the kernels read its arrays.

The Phase II stores get the same treatment in :mod:`repro.graph.phase2`:
:class:`Phase2Kernel` compiles :class:`InteractionStore` /
:class:`NodeFeatureStore` into an ``InteractionMatrix`` (CSR) plus a dense
``NodeFeatureMatrix``, and
:class:`repro.core.aggregation.FeatureMatrixBuilder` routes Algorithm 1 /
statistic aggregation through it.

Which to use: build the graph with :class:`Graph` and call
:func:`repro.core.division.divide`; it snapshots to CSR itself.  The
pure-Python references are test oracles, not options:
``tests/division_reference.py`` (``reference_divide``) runs Phase I on
ego-network :class:`Graph` objects, and ``reference_feature_matrix`` /
``reference_statistic_vector`` in :mod:`repro.core.aggregation` are
Algorithm 1 by per-pair store lookups.  Measured kernel speeds live in
``BENCH_kernels.json`` at the repo root (written by
``scripts/perf_report.py``): each entry records
``seconds_per_op``/``ops_per_sec`` per kernel and scale, and the
``phase1_division_small`` pair is the headline oracle-vs-CSR comparison —
regenerate it with ``python scripts/perf_report.py --update`` after touching
any kernel, and CI fails if a kernel regresses >30% against the committed
baseline.
"""

from repro.graph.csr import CSRGraph, edge_betweenness_csr
from repro.graph.features import NodeFeatureStore
from repro.graph.graph import Graph
from repro.graph.interactions import InteractionStore
from repro.graph.io import load_dataset_json, save_dataset_json
from repro.graph.phase2 import Phase2Kernel

__all__ = [
    "CSRGraph",
    "Graph",
    "InteractionStore",
    "NodeFeatureStore",
    "Phase2Kernel",
    "edge_betweenness_csr",
    "save_dataset_json",
    "load_dataset_json",
]
