"""Synthetic chat groups with (occasionally indicative) names.

Used for the Figure 2 common-group analysis and the Table II rule-based
group-name classifier.  Most group names are generic; a small fraction
contains a pattern that reveals the underlying circle type ("... Family",
"... Department", "Class of ..."), which is why the rule-based classifier
achieves high precision but very low recall in the paper.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from repro.synthetic.config import WeChatConfig
from repro.types import Edge, Node, RelationType, canonical_edge

INDICATIVE_NAME_TEMPLATES: dict[RelationType, list[str]] = {
    RelationType.FAMILY: ["{} Family", "The {} Household", "{} Family Reunion"],
    RelationType.COLLEAGUE: [
        "{} Department",
        "{} Project Team",
        "{} Company All-Hands",
    ],
    RelationType.SCHOOLMATE: [
        "Class of {} Middle School",
        "{} University Alumni",
        "Grade {} Classmates",
    ],
}

GENERIC_NAME_TEMPLATES = [
    "Happy Group {}",
    "Weekend Plans {}",
    "Foodies {}",
    "Best Friends {}",
    "Chat {}",
    "Travel Buddies {}",
    "Night Owls {}",
]


@dataclass(frozen=True)
class ChatGroup:
    """A chat group: a name plus a member set (and its true circle type)."""

    group_id: int
    name: str
    members: frozenset[Node]
    circle_type: RelationType

    @property
    def size(self) -> int:
        return len(self.members)

    def member_pairs(self) -> list[Edge]:
        """All unordered member pairs (canonical form)."""
        return [
            canonical_edge(u, v) for u, v in itertools.combinations(sorted(self.members, key=repr), 2)
        ]


@dataclass
class GroupCollection:
    """All chat groups of one synthetic network."""

    groups: list[ChatGroup] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    def common_group_counts(self) -> dict[Edge, int]:
        """Number of common groups for every pair that shares at least one group."""
        counts: dict[Edge, int] = {}
        for group in self.groups:
            for pair in group.member_pairs():
                counts[pair] = counts.get(pair, 0) + 1
        return counts


def generate_groups(
    circles: list[tuple[RelationType, list[Node]]],
    config: WeChatConfig,
    rng: random.Random,
) -> GroupCollection:
    """Generate chat groups from social circles.

    Each circle spawns a Poisson-distributed number of groups; every group
    includes a random subset of the circle members and receives either an
    indicative or a generic name.
    """
    collection = GroupCollection()
    next_group_id = 0
    for circle_type, members in circles:
        group_config = config.groups.get(circle_type)
        if group_config is None or len(members) < 2:
            continue
        num_groups = _poisson(group_config.groups_per_circle, rng)
        for _ in range(num_groups):
            joined = [
                member
                for member in members
                if rng.random() < group_config.member_participation
            ]
            if len(joined) < 2:
                continue
            indicative = (
                circle_type in INDICATIVE_NAME_TEMPLATES
                and rng.random() < group_config.indicative_name_prob
            )
            if indicative:
                template = rng.choice(INDICATIVE_NAME_TEMPLATES[circle_type])
                name = template.format(rng.randint(1, 999))
            else:
                name = rng.choice(GENERIC_NAME_TEMPLATES).format(rng.randint(1, 9999))
            collection.groups.append(
                ChatGroup(
                    group_id=next_group_id,
                    name=name,
                    members=frozenset(joined),
                    circle_type=circle_type,
                )
            )
            next_group_id += 1
    return collection


def _poisson(rate: float, rng: random.Random) -> int:
    """Sample a Poisson variate via inversion (small rates only)."""
    if rate <= 0:
        return 0
    threshold = rng.random()
    cumulative = 0.0
    probability = 2.718281828459045 ** (-rate)
    k = 0
    while cumulative + probability < threshold and k < 50:
        cumulative += probability
        k += 1
        probability *= rate / k
    return k
