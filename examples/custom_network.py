"""Using LoCEC on your own network data (no synthetic generator involved).

Shows the full data path a downstream user follows:

1. build a :class:`repro.graph.Graph` from an edge list,
2. attach per-user features and per-edge interaction counts,
3. provide a handful of labeled edges,
4. fit LoCEC and inspect the local communities and edge predictions.

The tiny hand-written network below contains two families, one office and one
classmate circle around a shared user, so the predictions are easy to verify
by eye.

Run with::

    python examples/custom_network.py
"""

from __future__ import annotations

import itertools

from repro.core import LoCEC, LoCECConfig, divide
from repro.graph import Graph, InteractionStore, NodeFeatureStore
from repro.types import InteractionDim, LabeledEdge, RelationType

# ----------------------------------------------------------------- build graph
FAMILY_A = ["alice", "bob", "carol"]
FAMILY_B = ["dave", "erin", "frank"]
OFFICE = ["alice", "dave", "grace", "heidi", "ivan", "judy"]
CLASSMATES = ["alice", "kate", "leo", "mallory", "nick"]

graph = Graph()
for circle in (FAMILY_A, FAMILY_B, OFFICE, CLASSMATES):
    for u, v in itertools.combinations(circle, 2):
        graph.add_edge(u, v)

# ------------------------------------------------------------------- features
features = NodeFeatureStore(["gender", "age_bucket", "tenure_years", "activity_level"])
for index, user in enumerate(sorted(graph.nodes())):
    features.set(user, [index % 2, 2 + index % 3, 3.0, 1.0])

# ---------------------------------------------------------------- interactions
interactions = InteractionStore()
for circle, dims in (
    (FAMILY_A, [InteractionDim.LIKE_PICTURE, InteractionDim.MESSAGE]),
    (FAMILY_B, [InteractionDim.LIKE_PICTURE, InteractionDim.COMMENT_PICTURE]),
    (OFFICE, [InteractionDim.LIKE_ARTICLE, InteractionDim.COMMENT_ARTICLE]),
    (CLASSMATES, [InteractionDim.LIKE_GAME, InteractionDim.COMMENT_GAME]),
):
    for u, v in itertools.combinations(circle, 2):
        for dim in dims:
            interactions.record(u, v, dim, 2)

# --------------------------------------------------------------- labeled edges
labeled = [
    LabeledEdge("alice", "bob", RelationType.FAMILY),
    LabeledEdge("alice", "carol", RelationType.FAMILY),
    LabeledEdge("dave", "erin", RelationType.FAMILY),
    LabeledEdge("alice", "grace", RelationType.COLLEAGUE),
    LabeledEdge("dave", "heidi", RelationType.COLLEAGUE),
    LabeledEdge("grace", "ivan", RelationType.COLLEAGUE),
    LabeledEdge("alice", "kate", RelationType.SCHOOLMATE),
    LabeledEdge("kate", "leo", RelationType.SCHOOLMATE),
    LabeledEdge("mallory", "nick", RelationType.SCHOOLMATE),
]


def main() -> None:
    print("Alice's ego network splits into these local communities:")
    for community in divide(graph, egos=["alice"]).communities_of("alice"):
        members = ", ".join(sorted(community.members))
        print(f"  community {community.index}: {{{members}}}")

    config = LoCECConfig.locec_xgb()  # GBDT variant: fast on tiny data
    config.gbdt.num_rounds = 20
    pipeline = LoCEC(config)
    pipeline.fit(graph, features, interactions, labeled)

    print("\nPredicted relationship types for unlabeled edges:")
    queries = [
        ("bob", "carol"),        # family A internals
        ("erin", "frank"),       # family B internals
        ("heidi", "ivan"),       # office internals
        ("leo", "mallory"),      # classmates internals
        ("alice", "dave"),       # family member who is also a colleague
    ]
    for u, v in queries:
        label = pipeline.predict_edge(u, v)
        print(f"  ({u:<7} , {v:<7}) -> {label.display_name}")


if __name__ == "__main__":
    main()
