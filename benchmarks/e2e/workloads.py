"""The benchmark's workloads: what each stresses, and its inputs and scripts.

Everything the product sees is generated here from ``--seed`` through the
repo's own generator (``WeChatConfig`` → ``generate_network`` →
``run_survey`` → ``split_labeled_edges``); the product receives only the
resulting graph, stores and labeled edges.  The update and query scripts are
built from those inputs, not drawn blindly, so that a *warm* write provably
leaves the community classifier fitted and a *refit* write provably does
not — ``apply_updates`` latency is bimodal on that one bit, and a script
that mixes the two by chance measures the mix.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import numpy as np

from repro.core import LoCECConfig
from repro.core.labels import split_labeled_edges
from repro.synthetic import WeChatConfig, generate_network, run_survey
from repro.types import RelationType, canonical_edge

QUERY_BATCH_EDGES = 256


#: ``(circle size, intra-circle edge probability)`` per relationship type.
#: Every user joins exactly one circle of each listed type and all circles of
#: a type have one size, so users are alike and a network's cost does not
#: depend on which seed drew it: with the generator's default size *ranges*
#: and membership *probabilities*, Girvan-Newman's steep cost in ego size made
#: ``fit_s`` spread 50 % between seeds at 80 users and 9 % at 600.
REGULAR = {"family": (6, 0.85), "colleague": (12, 0.45), "schoolmate": (8, 0.4)}
DENSE = {"family": (6, 1.0), "colleague": (11, 1.0), "schoolmate": (8, 1.0)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: int
    surveyed_fraction: float
    model: str
    zipf: float
    """Exponent of the read popularity law; 0 reads edges uniformly."""
    refit_every: int
    """A structural (refit) write and its inverse happen every this-many rounds."""
    recorded_f1: float
    """Lowest ``macro_f1`` over seeds 0-19 when the workload was frozen; a
    run whose F1 drops below 0.9x this fails its output check."""
    circles: dict = field(default_factory=lambda: REGULAR)
    feature_writes: bool = False
    """Warm writes also replace a feature vector (only sparse labels leave
    nodes whose every dirtied community is unlabeled)."""
    min_labeled_communities: int = 0

    def pipeline_config(self) -> LoCECConfig:
        """The product's default (``auto`` everywhere) configuration."""
        if self.model == "cnn":
            return LoCECConfig.locec_cnn()
        return LoCECConfig.locec_xgb()

    def generator_config(self, seed: int, shrink: int = 1) -> WeChatConfig:
        config = WeChatConfig(
            num_users=max(48, self.users // shrink),
            seed=seed,
            surveyed_user_fraction=self.surveyed_fraction,
        )
        for relation, circle in config.circles.items():
            size, density = self.circles.get(relation.name.lower(), (2, 1.0))
            circle.min_size = circle.max_size = size
            circle.intra_edge_prob = density
            circle.membership_prob = 1.0 if relation.name.lower() in self.circles else 0.0
        return config


WORKLOADS = (
    Workload(
        name="batch_hist_large",
        why="Batch job, every user surveyed: >=4096 labeled communities put auto on the "
        "hist GBDT route, Phase III is large, uniform reads over 3x the cache miss.",
        users=1248,
        surveyed_fraction=1.0,
        model="xgb",
        zipf=0.0,
        refit_every=3,
        recorded_f1=0.86,
        min_labeled_communities=4096,
    ),
    Workload(
        name="division_dense",
        why="Dense overlapping circles: Girvan-Newman division is most of fit and "
        "re-division is at its dearest in a refit write; a division change shows here.",
        users=66,
        surveyed_fraction=0.1,
        model="xgb",
        zipf=1.1,
        refit_every=2,
        recorded_f1=0.58,
        circles=DENSE,
    ),
    Workload(
        name="cnn_small",
        why="CommCNN training is ~85% of fit and of every refit write, division ~6%; "
        "bypasses GBDT entirely and is the memory sentinel.",
        users=96,
        surveyed_fraction=0.25,
        model="cnn",
        zipf=1.1,
        refit_every=2,
        recorded_f1=0.55,
    ),
    Workload(
        name="serve_sparse",
        why="Serving with sparse labels (3% surveyed): warm writes beside Zipf reads that "
        "hit the cache until a write empties it; refits take the small-row exact GBDT route.",
        users=480,
        surveyed_fraction=0.03,
        model="xgb",
        zipf=1.1,
        refit_every=2,
        recorded_f1=0.54,
        feature_writes=True,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass
class Inputs:
    """One generated input set: what ``LoCEC.fit`` receives, plus ground truth."""

    dataset: object
    train_edges: list
    eval_edges: list
    """Major-type edges with no training label, for ``macro_f1``."""
    eval_labels: np.ndarray
    digest: str

    @property
    def graph(self):
        return self.dataset.graph


def make_inputs(workload: Workload, seed: int, shrink: int = 1) -> Inputs:
    """Generate the workload's inputs from ``seed`` (``shrink`` divides its size)."""
    config = workload.generator_config(seed, shrink)
    dataset = generate_network(config)
    survey = run_survey(dataset, config)
    train, _ = split_labeled_edges(survey.major_type_edges(), train_fraction=0.8, seed=seed)
    trained = {item.edge for item in train}
    targets = set(RelationType.classification_targets())
    eval_edges = [
        edge
        for edge, label in dataset.edge_types.items()
        if label in targets and edge not in trained
    ]
    eval_labels = np.array([int(dataset.edge_types[edge]) for edge in eval_edges])
    return Inputs(dataset, train, eval_edges, eval_labels, _digest(dataset, train))


def _digest(dataset, train_edges) -> str:
    """SHA-256 over everything the product is handed."""
    sha = hashlib.sha256()
    for edge in sorted(dataset.graph.edges()):
        sha.update(repr(edge).encode())
    for node in sorted(dataset.graph.nodes()):
        sha.update(dataset.features.get_or_default(node).tobytes())
    for edge, vector in sorted(dataset.interactions.items(), key=lambda item: item[0]):
        sha.update(repr(edge).encode() + vector.tobytes())
    for item in train_edges:
        sha.update(repr((item.edge, int(item.label))).encode())
    return sha.hexdigest()


# ------------------------------------------------------------------ scripts
MIN_TARGETS = 8


def warm_ops(inputs: Inputs, division, feature_writes: bool, rng: random.Random,
             limit: int = 32) -> list[tuple[dict, dict]]:
    """Store-only writes ``(op, exact inverse)`` that provably dirty no labeled community.

    An interaction delta on ``(u, v)`` dirties, for every ego ``e`` in
    ``N(u) ∩ N(v)``, the community of ``e`` that holds both; a feature
    update on ``n``, for every ``e`` in ``N(n)``, the community of ``e``
    that holds ``n``.  A community is labeled when a training edge joins its
    ego to one of its members.  A target whose dirtied communities (read
    from the fitted ``division``) are all unlabeled leaves the classifier's
    training set, and so the classifier, alone.  Targets that dirty at least
    one community are preferred, so that every op of a workload re-scores
    something; where labels are everywhere (``batch_hist_large``) only
    targets that dirty nothing are warm, and all ops are of that kind.
    Each op carries one interaction delta (integer counts, so ``+d`` then
    ``-d`` restores the stored vector exactly) and, with ``feature_writes``,
    one feature replacement (inverse: the saved vector).
    """
    graph, stores = inputs.graph, inputs.dataset
    trained = {item.edge for item in inputs.train_edges}

    def dirtied(ego, *members):
        community = division.community_containing(ego, members[0])
        if community is None or not all(member in community.members for member in members):
            return None
        return community

    def warm(communities) -> bool:
        return not any(
            canonical_edge(community.ego, member) in trained
            for community in communities
            for member in community.members
        )

    def targets(candidates, dirtied_by):
        """Warm candidates, those that dirty something first; ``limit`` of one kind."""
        rng.shuffle(candidates)
        rescoring, silent = [], []
        for candidate in candidates:
            communities = [c for c in dirtied_by(candidate) if c is not None]
            if warm(communities):
                (rescoring if communities else silent).append(candidate)
        return (rescoring if len(rescoring) >= MIN_TARGETS else silent)[:limit]

    warm_edges = targets(
        sorted(e for e in stores.interactions.edges_with_interaction() if graph.has_edge(*e)),
        lambda e: [dirtied(ego, *e) for ego in graph.neighbors(e[0]) & graph.neighbors(e[1])],
    )
    warm_nodes = []
    if feature_writes:
        warm_nodes = targets(
            sorted(node for node in graph.nodes() if graph.degree(node) > 0),
            lambda node: [dirtied(ego, node) for ego in graph.neighbors(node)],
        )
        if not warm_nodes:
            return []
    ops = []
    for index, (u, v) in enumerate(warm_edges):
        delta = [float(rng.randint(0, 3)) for _ in range(stores.interactions.num_dims)]
        delta[rng.randrange(len(delta))] += 1.0
        forward = {"interaction_deltas": [(u, v, delta)]}
        inverse = {"interaction_deltas": [(u, v, [-value for value in delta])]}
        if warm_nodes:
            node = warm_nodes[index % len(warm_nodes)]
            saved = stores.features.get_or_default(node)
            forward["feature_updates"] = [(node, saved + 1.0)]
            inverse["feature_updates"] = [(node, saved)]
        ops.append((forward, inverse))
    return ops


def refit_edges(inputs: Inputs, rng: random.Random, limit: int = 64) -> list[tuple]:
    """Non-edges ``(a, b)`` whose insertion closes a triangle at a labeled ego.

    ``a`` and ``b`` are non-adjacent friends of an ego ``e`` with training
    edges ``(e, a)`` and ``(e, b)``: adding ``(a, b)`` re-divides ``e``,
    ``a`` and ``b`` and puts ``b`` into a labeled community of ego ``a``,
    so the training set changes; removing it changes it back.
    """
    graph = inputs.graph
    by_ego: dict = {}
    for item in inputs.train_edges:
        u, v = item.edge
        by_ego.setdefault(u, []).append(v)
        by_ego.setdefault(v, []).append(u)
    egos = sorted(ego for ego, friends in by_ego.items() if len(friends) >= 2)
    rng.shuffle(egos)
    pairs = []
    for ego in egos:
        friends = sorted(by_ego[ego])
        rng.shuffle(friends)
        pair = next(
            (
                (a, b)
                for index, a in enumerate(friends)
                for b in friends[index + 1 :]
                if not graph.has_edge(a, b)
            ),
            None,
        )
        if pair is not None:
            pairs.append(pair)
            if len(pairs) == limit:
                break
    return pairs


class QueryScript:
    """Seeded read traffic over the served graph's edges, in blocks of batches."""

    def __init__(self, inputs: Inputs, zipf: float, seed: int) -> None:
        self.edges = list(inputs.graph.edges())
        self._rng = np.random.default_rng(seed)
        self._popularity = None
        if zipf > 0:
            # Popularity ranks are dealt to edges at random, not in edge order.
            weights = 1.0 / np.arange(1, len(self.edges) + 1) ** zipf
            self._popularity = self._rng.permutation(weights / weights.sum())

    def block(self, batches: int) -> list[list]:
        picks = self._rng.choice(
            len(self.edges), size=(batches, QUERY_BATCH_EDGES), p=self._popularity
        )
        return [[self.edges[index] for index in row] for row in picks]
