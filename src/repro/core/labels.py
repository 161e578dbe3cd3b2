"""Ground-truth label handling for communities and edges.

The user survey labels *edges* (ego ↔ friend relationships).  Phase II needs
*community* labels for supervised training, which the paper derives by
majority vote: "the ground-truth label of a community is determined by the
majority type of friends with ground-truth relationship classes"
(Section V-C).  This module implements that derivation plus small helpers for
working with labeled-edge collections.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from repro.core.division import DivisionResult, LocalCommunity
from repro.types import Edge, LabeledEdge, Node, RelationType, canonical_edge, node_key


class EdgeLabelIndex:
    """Fast lookup from a canonical edge to its ground-truth label."""

    def __init__(self, labeled_edges: Iterable[LabeledEdge] = ()) -> None:
        self._labels: dict[Edge, RelationType] = {}
        self._by_node: dict[Node, dict[Node, RelationType]] = {}
        for item in labeled_edges:
            self.add(item)

    def add(self, labeled_edge: LabeledEdge) -> None:
        u, v = labeled_edge.edge
        self._labels[(u, v)] = labeled_edge.label
        self._by_node.setdefault(u, {})[v] = labeled_edge.label
        self._by_node.setdefault(v, {})[u] = labeled_edge.label

    def get(self, u: Node, v: Node) -> RelationType | None:
        return self.labels_of(u).get(v)

    def labels_of(self, node: Node) -> Mapping[Node, RelationType]:
        """The labels of ``node``'s labeled edges, by their other endpoint."""
        return self._by_node.get(node, {})

    def __contains__(self, edge: Edge) -> bool:
        return canonical_edge(*edge) in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def edges(self) -> list[Edge]:
        return list(self._labels)

    def items(self) -> list[tuple[Edge, RelationType]]:
        return list(self._labels.items())


def majority_label(
    labels: Sequence[RelationType],
    targets: Sequence[RelationType] = RelationType.classification_targets(),
) -> RelationType | None:
    """Most frequent target label; ``None`` when no target label is present.

    Ties are broken deterministically by class index (family < colleague <
    schoolmate) so repeated runs derive identical community training sets.
    """
    counts = Counter(label for label in labels if label in targets)
    if not counts:
        return None
    best_count = max(counts.values())
    return min(
        (label for label, count in counts.items() if count == best_count),
        key=int,
    )


def community_ground_truth(
    community: LocalCommunity,
    label_index: EdgeLabelIndex,
    min_labeled_members: int = 1,
) -> RelationType | None:
    """Majority-vote ground-truth label of a local community.

    The vote is over the labels of the *ego ↔ member* edges (those are the
    relationships the survey asks about).  Returns ``None`` when fewer than
    ``min_labeled_members`` member edges are labeled.
    """
    labels = label_index.labels_of(community.ego)
    member_labels = [labels[member] for member in community.members if member in labels]
    if len(member_labels) < min_labeled_members:
        return None
    return majority_label(member_labels)


class CommunityVotes:
    """Majority votes kept per ego between calls of :func:`labeled_communities`.

    A vote reads the community and the labeled edges only, so an ego whose
    community list is the same object as at its last vote keeps its votes;
    a re-division replaces the list, and only then is the ego voted again.
    Keep one instance per label index and ``min_labeled_members``.
    """

    __slots__ = ("_lists", "_votes", "num_voted")

    def __init__(self) -> None:
        self._lists: dict[Node, list[LocalCommunity]] = {}
        self._votes: dict[Node, tuple[int | None, ...]] = {}
        self.num_voted = 0
        """Communities voted so far — a work counter."""

    def of(
        self,
        ego: Node,
        communities: list[LocalCommunity],
        label_index: EdgeLabelIndex,
        min_labeled_members: int,
    ) -> tuple[int | None, ...]:
        """The class index each of ``ego``'s ``communities`` votes for
        (``None``: no derivable label)."""
        if self._lists.get(ego) is not communities:
            labels = (
                community_ground_truth(community, label_index, min_labeled_members)
                for community in communities
            )
            self._lists[ego] = communities
            self._votes[ego] = tuple(None if label is None else int(label) for label in labels)
            self.num_voted += len(communities)
        return self._votes[ego]


def labeled_communities(
    division: DivisionResult,
    label_index: EdgeLabelIndex,
    min_labeled_members: int = 1,
    votes: CommunityVotes | None = None,
) -> tuple[list[LocalCommunity], list[int]]:
    """Collect all communities with a derivable ground-truth label.

    Returns a parallel pair ``(communities, class_indices)`` ready for
    :class:`repro.core.community_classifier.CommunityClassifier.fit`, in
    :meth:`DivisionResult.all_communities` order.  ``votes`` keeps the votes
    of egos whose community list did not change since the last call.
    """
    if votes is None:
        votes = CommunityVotes()
    communities: list[LocalCommunity] = []
    labels: list[int] = []
    for ego in sorted(division.communities_by_ego, key=node_key):
        listed = division.communities_by_ego[ego]
        for community, label in zip(
            listed, votes.of(ego, listed, label_index, min_labeled_members)
        ):
            if label is not None:
                communities.append(community)
                labels.append(label)
    return communities, labels


def split_labeled_edges(
    labeled_edges: Sequence[LabeledEdge],
    train_fraction: float = 0.8,
    seed: int = 0,
) -> tuple[list[LabeledEdge], list[LabeledEdge]]:
    """Stratified train/test split of labeled edges (the paper's 80/20 split)."""
    import numpy as np

    from repro.ml.preprocessing import train_test_split_indices

    if not labeled_edges:
        return [], []
    stratify = np.array([int(item.label) for item in labeled_edges])
    train_idx, test_idx = train_test_split_indices(
        len(labeled_edges),
        test_fraction=1.0 - train_fraction,
        seed=seed,
        stratify=stratify,
    )
    train = [labeled_edges[index] for index in train_idx]
    test = [labeled_edges[index] for index in test_idx]
    return train, test
