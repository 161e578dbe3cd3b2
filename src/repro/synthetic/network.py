"""Planted-circle generator of the synthetic WeChat-like social network.

The generative model:

1. Every user gets a profile (:mod:`repro.synthetic.users`).
2. Users are partitioned / sampled into **social circles** of four kinds —
   family, colleague, schoolmate, other — whose size ranges and edge
   densities follow :class:`repro.synthetic.config.CircleConfig`.  Family
   circles are small and dense; colleague circles are large and moderately
   dense, which reproduces the Figure 13 effect (colleague share grows when
   moving from community counts to edge counts).
3. Friendship edges are sampled inside every circle with the circle's
   ``intra_edge_prob``; a small number of random "others" edges is added on
   top.  The *principal* type of an edge (family ≻ colleague ≻ schoolmate ≻
   other, following the paper's "principal type" convention) is recorded as
   the ground truth.
4. Chat groups are spawned per circle and interactions per edge.

The resulting :class:`SocialNetworkDataset` bundles everything the LoCEC
pipeline and all baselines need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.exceptions import DatasetError
from repro.graph.features import NodeFeatureStore
from repro.graph.graph import Graph
from repro.graph.interactions import InteractionStore
from repro.synthetic.config import WeChatConfig
from repro.synthetic.groups import GroupCollection, generate_groups
from repro.synthetic.interactions_gen import generate_interactions
from repro.synthetic.users import UserProfile, generate_profiles, profiles_to_store
from repro.types import Edge, Node, RelationType, canonical_edge

#: Priority order used to resolve the principal type of an edge covered by
#: circles of several kinds (family strongest, catch-all weakest).
PRINCIPAL_TYPE_PRIORITY = (
    RelationType.FAMILY,
    RelationType.COLLEAGUE,
    RelationType.SCHOOLMATE,
    RelationType.OTHER,
)


@dataclass(frozen=True)
class Circle:
    """A planted social circle (the latent ground-truth structure)."""

    circle_id: int
    circle_type: RelationType
    members: tuple[Node, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class SocialNetworkDataset:
    """Everything the experiments need about one synthetic network."""

    config: WeChatConfig
    graph: Graph
    features: NodeFeatureStore
    interactions: InteractionStore
    edge_types: dict[Edge, RelationType]
    circles: list[Circle]
    groups: GroupCollection
    profiles: dict[int, UserProfile] = field(default_factory=dict)

    def __repr__(self) -> str:
        # Sizes only: the generated field repr runs to tens of kB and buries
        # the drawn values of a failing property test.
        return (
            f"SocialNetworkDataset(num_users={self.num_users}, "
            f"num_edges={self.num_edges}, num_circles={len(self.circles)}, "
            f"num_groups={len(self.groups)})"
        )

    @property
    def num_users(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def interaction_sparsity(self) -> float:
        """Fraction of edges with no interaction at all (paper: ≈ 0.6)."""
        return self.interactions.sparsity(self.num_edges)


def generate_network(config: WeChatConfig | None = None, seed: int | None = None) -> SocialNetworkDataset:
    """Generate a full synthetic WeChat-like dataset.

    Parameters
    ----------
    config:
        Generator parameters; default is the 1,000-user configuration.
    seed:
        Overrides ``config.seed`` when given.
    """
    config = config or WeChatConfig()
    config.validate()
    rng = random.Random(config.seed if seed is None else seed)

    profiles = generate_profiles(config.num_users, rng)
    circles = _plant_circles(config, rng)
    graph, edge_types = _sample_edges(config, circles, rng)
    for user_id in range(config.num_users):
        graph.add_node(user_id)

    groups = generate_groups(
        [(circle.circle_type, list(circle.members)) for circle in circles], config, rng
    )
    interactions = generate_interactions(edge_types, profiles, config, rng)
    features = profiles_to_store(profiles)

    return SocialNetworkDataset(
        config=config,
        graph=graph,
        features=features,
        interactions=interactions,
        edge_types=edge_types,
        circles=circles,
        groups=groups,
        profiles=profiles,
    )


# --------------------------------------------------------------------- helpers
def _plant_circles(config: WeChatConfig, rng: random.Random) -> list[Circle]:
    """Assign users to circles of each kind."""
    circles: list[Circle] = []
    circle_id = 0
    users = list(range(config.num_users))

    for circle_type in PRINCIPAL_TYPE_PRIORITY:
        circle_config = config.circles.get(circle_type)
        if circle_config is None:
            continue
        members_pool = [user for user in users if rng.random() < circle_config.membership_prob]
        rng.shuffle(members_pool)
        cursor = 0
        # Age homophily for schoolmates: sort the pool by age bucket so circles
        # are age-coherent, which gives the individual features real signal.
        if circle_type == RelationType.SCHOOLMATE:
            members_pool.sort(key=lambda user: (user % 6, rng.random()))
        while cursor < len(members_pool):
            size = rng.randint(circle_config.min_size, circle_config.max_size)
            block = members_pool[cursor : cursor + size]
            cursor += size
            if len(block) < 2:
                break
            circles.append(
                Circle(
                    circle_id=circle_id,
                    circle_type=circle_type,
                    members=tuple(block),
                )
            )
            circle_id += 1
    if not circles:
        raise DatasetError("circle generation produced no circles; check config")
    return circles


def _sample_edges(
    config: WeChatConfig, circles: list[Circle], rng: random.Random
) -> tuple[Graph, dict[Edge, RelationType]]:
    """Sample friendship edges inside circles plus random noise edges."""
    graph = Graph()
    edge_types: dict[Edge, RelationType] = {}
    priority = {relation: rank for rank, relation in enumerate(PRINCIPAL_TYPE_PRIORITY)}

    for circle in circles:
        circle_config = config.circles[circle.circle_type]
        members = list(circle.members)
        for index, u in enumerate(members):
            for v in members[index + 1 :]:
                if rng.random() >= circle_config.intra_edge_prob:
                    continue
                edge = canonical_edge(u, v)
                graph.add_edge(u, v)
                current = edge_types.get(edge)
                if current is None or priority[circle.circle_type] < priority[current]:
                    edge_types[edge] = circle.circle_type

    # Random "others" edges: keep the expected count proportional to n, not n².
    expected_random_edges = config.random_edge_prob * config.num_users * 100
    num_random = int(expected_random_edges)
    for _ in range(num_random):
        u = rng.randrange(config.num_users)
        v = rng.randrange(config.num_users)
        if u == v:
            continue
        edge = canonical_edge(u, v)
        if edge in edge_types:
            continue
        graph.add_edge(u, v)
        edge_types[edge] = RelationType.OTHER

    return graph, edge_types
