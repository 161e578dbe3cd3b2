"""Serialisation of graphs, features and interactions.

The formats are deliberately simple and line-oriented so that a dataset can
be sharded across workers the way the paper's production pipeline streams
WeChat adjacency lists:

* **Edge list** — one ``u<TAB>v`` pair per line, ``#``-prefixed comments.
* **Labeled edges** — ``u<TAB>v<TAB>label_name`` per line.
* **JSON dataset** — a single document bundling graph, features,
  interactions and labels; convenient for small fixtures and examples.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.exceptions import (
    DatasetError,
    DuplicateEdgeError,
    MalformedLineError,
    NonFiniteWeightError,
)
from repro.graph.features import NodeFeatureStore
from repro.graph.graph import Graph
from repro.graph.interactions import InteractionStore
from repro.types import LabeledEdge, RelationType, canonical_edge


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write ``graph`` as a tab-separated edge list."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write("# undirected edge list: u<TAB>v\n")
        for u, v in graph.edges():
            handle.write(f"{u}\t{v}\n")


def _check_on_error(on_error: str) -> None:
    if on_error not in {"raise", "skip"}:
        raise DatasetError(f"on_error must be 'raise' or 'skip', got {on_error!r}")


def read_edge_list(
    path: str | Path, node_type: type = int, on_error: str = "raise"
) -> Graph:
    """Read a tab- or space-separated edge list into a :class:`Graph`.

    Each data line is ``u v`` or ``u v weight``.  The graph model is
    unweighted, but a weight column — common in real edge-list dumps — is
    still validated: it must parse as a **finite** float.  Malformed input
    raises a precise :class:`~repro.exceptions.EdgeListError` subclass
    naming the offending line:

    * :class:`~repro.exceptions.MalformedLineError` — too few tokens, a
      token that ``node_type`` rejects, a non-numeric weight, or a
      self-loop;
    * :class:`~repro.exceptions.NonFiniteWeightError` — a weight that
      parses but is NaN or infinite;
    * :class:`~repro.exceptions.DuplicateEdgeError` — an undirected edge
      that already appeared (previously a silent overwrite).

    Parameters
    ----------
    path:
        File to read.
    node_type:
        Callable applied to each token to build node identifiers
        (default ``int``).
    on_error:
        ``"raise"`` (default) aborts on the first bad line; ``"skip"`` drops
        bad lines and keeps reading — the streaming posture of the paper's
        production ingest, where one corrupt record must not sink a shard.
    """
    _check_on_error(on_error)
    path = Path(path)
    graph = Graph()
    seen: set[tuple[object, object]] = set()
    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                u, v = _parse_edge_line(path, lineno, line, node_type, seen)
            except (MalformedLineError, NonFiniteWeightError, DuplicateEdgeError):
                if on_error == "skip":
                    continue
                raise
            graph.add_edge(u, v)
    return graph


def _parse_edge_line(
    path: Path,
    lineno: int,
    line: str,
    node_type: type,
    seen: set[tuple[object, object]],
) -> tuple[object, object]:
    parts = line.split()
    if len(parts) < 2:
        raise MalformedLineError(path, lineno, f"expected 'u v' pair, got {line!r}")
    try:
        u, v = node_type(parts[0]), node_type(parts[1])
    except (TypeError, ValueError) as exc:
        raise MalformedLineError(
            path, lineno, f"cannot parse node ids from {line!r}: {exc}"
        ) from exc
    if u == v:
        raise MalformedLineError(
            path, lineno, f"self-loop {u!r}-{v!r} is not allowed"
        )
    if len(parts) >= 3:
        try:
            weight = float(parts[2])
        except ValueError as exc:
            raise MalformedLineError(
                path, lineno, f"cannot parse weight {parts[2]!r}"
            ) from exc
        if not np.isfinite(weight):
            raise NonFiniteWeightError(
                path, lineno, f"non-finite edge weight {parts[2]!r}"
            )
    key = canonical_edge(u, v)
    if key in seen:
        raise DuplicateEdgeError(
            path, lineno, f"duplicate edge {u!r}-{v!r}"
        )
    seen.add(key)
    return u, v


def write_labeled_edges(labels: Iterable[LabeledEdge], path: str | Path) -> None:
    """Write labeled edges as ``u<TAB>v<TAB>label`` lines."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write("# labeled edges: u<TAB>v<TAB>relation\n")
        for item in labels:
            handle.write(f"{item.u}\t{item.v}\t{item.label.name}\n")


def read_labeled_edges(
    path: str | Path, node_type: type = int, on_error: str = "raise"
) -> list[LabeledEdge]:
    """Read labeled edges written by :func:`write_labeled_edges`.

    Error handling mirrors :func:`read_edge_list`: malformed lines, unknown
    relation names and duplicate labeled edges raise
    :class:`~repro.exceptions.EdgeListError` subclasses naming the line, and
    ``on_error="skip"`` drops bad lines instead of aborting.
    """
    _check_on_error(on_error)
    path = Path(path)
    labels: list[LabeledEdge] = []
    seen: set[tuple[object, object]] = set()
    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                labels.append(
                    _parse_labeled_line(path, lineno, line, node_type, seen)
                )
            except (MalformedLineError, DuplicateEdgeError):
                if on_error == "skip":
                    continue
                raise
    return labels


def _parse_labeled_line(
    path: Path,
    lineno: int,
    line: str,
    node_type: type,
    seen: set[tuple[object, object]],
) -> LabeledEdge:
    parts = line.split()
    if len(parts) < 3:
        raise MalformedLineError(
            path, lineno, f"expected 'u v label', got {line!r}"
        )
    try:
        u, v = node_type(parts[0]), node_type(parts[1])
    except (TypeError, ValueError) as exc:
        raise MalformedLineError(
            path, lineno, f"cannot parse node ids from {line!r}: {exc}"
        ) from exc
    try:
        label = RelationType[parts[2]]
    except KeyError:
        raise MalformedLineError(
            path, lineno, f"unknown relation type {parts[2]!r}"
        ) from None
    key = canonical_edge(u, v)
    if key in seen:
        raise DuplicateEdgeError(path, lineno, f"duplicate labeled edge {u!r}-{v!r}")
    seen.add(key)
    return LabeledEdge(u, v, label)


def save_dataset_json(
    path: str | Path,
    graph: Graph,
    features: NodeFeatureStore | None = None,
    interactions: InteractionStore | None = None,
    labels: Iterable[LabeledEdge] | None = None,
) -> None:
    """Bundle a dataset into a single JSON document.

    Node identifiers are serialised via ``str`` and restored as ``int`` when
    they round-trip through ``int``; otherwise they stay strings.
    """
    document: dict = {
        "format": "locec-dataset",
        "version": 1,
        "edges": [[_encode_node(u), _encode_node(v)] for u, v in graph.edges()],
        "isolated_nodes": [
            _encode_node(node) for node in graph.nodes() if graph.degree(node) == 0
        ],
    }
    if features is not None:
        document["feature_names"] = list(features.feature_names)
        document["features"] = {
            str(node): features.get(node).tolist() for node in features.nodes()
        }
    if interactions is not None:
        document["interaction_dims"] = interactions.num_dims
        document["interactions"] = [
            [_encode_node(u), _encode_node(v), vector.tolist()]
            for (u, v), vector in interactions.items()
        ]
    if labels is not None:
        document["labels"] = [
            [_encode_node(item.u), _encode_node(item.v), item.label.name]
            for item in labels
        ]
    Path(path).write_text(json.dumps(document), encoding="utf-8")


def load_dataset_json(
    path: str | Path,
) -> tuple[Graph, NodeFeatureStore | None, InteractionStore | None, list[LabeledEdge]]:
    """Load a dataset produced by :func:`save_dataset_json`."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path} is not valid JSON: {exc}") from exc
    if document.get("format") != "locec-dataset":
        raise DatasetError(f"{path} is not a locec-dataset JSON document")

    graph = Graph()
    for node in document.get("isolated_nodes", []):
        graph.add_node(_decode_node(node))
    for u, v in document.get("edges", []):
        graph.add_edge(_decode_node(u), _decode_node(v))

    features: NodeFeatureStore | None = None
    if "features" in document:
        features = NodeFeatureStore(document.get("feature_names") or ["f0"])
        for node, values in document["features"].items():
            features.set(_decode_node(node), np.asarray(values, dtype=np.float64))

    interactions: InteractionStore | None = None
    if "interactions" in document:
        interactions = InteractionStore(int(document.get("interaction_dims", 1)))
        for u, v, vector in document["interactions"]:
            interactions.set_vector(
                _decode_node(u), _decode_node(v), np.asarray(vector, dtype=np.float64)
            )

    labels = [
        LabeledEdge(_decode_node(u), _decode_node(v), RelationType[name])
        for u, v, name in document.get("labels", [])
    ]
    return graph, features, interactions, labels


def _encode_node(node: object) -> str:
    return str(node)


def _decode_node(token: str) -> object:
    try:
        return int(token)
    except (TypeError, ValueError):
        return token
