"""The dataset JSON document: graph, features, interactions and labels.

``repro.cli generate`` writes a synthetic dataset with
:func:`save_dataset_json`; :func:`load_dataset_json` reads one back and is
the writer's round-trip oracle.  Node identifiers are written as ``str``; a
token is read back as an ``int`` only when it is an int's own spelling, so
``"007"`` and ``"1_000"`` stay strings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.exceptions import DatasetError
from repro.graph.features import NodeFeatureStore
from repro.graph.graph import Graph
from repro.graph.interactions import InteractionStore
from repro.types import LabeledEdge, RelationType


def save_dataset_json(
    path: str | Path,
    graph: Graph,
    features: NodeFeatureStore | None = None,
    interactions: InteractionStore | None = None,
    labels: Iterable[LabeledEdge] | None = None,
) -> None:
    """Bundle a dataset into a single JSON document.

    Node identifiers are serialised via ``str`` and restored as ``int`` when
    the token is an int's own spelling; otherwise they stay strings.  Raises
    :class:`~repro.exceptions.DatasetError` when two distinct nodes share a
    spelling (the int ``7`` and the string ``"7"``), which would reload as
    one node.
    """
    _check_spellings(graph)
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
        value = int(token)
    except (TypeError, ValueError):
        return token
    return value if str(value) == token else token


def _check_spellings(graph: Graph) -> None:
    spelled: dict[str, object] = {}
    for node in graph.nodes():
        other = spelled.setdefault(str(node), node)
        if other != node:
            raise DatasetError(
                f"nodes {other!r} and {node!r} are both written as {str(node)!r}"
            )
