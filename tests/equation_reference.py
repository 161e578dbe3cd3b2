"""Scalar forms of the paper's Equations 1 and 3, for the tests.

The product computes both in batch: Equation 2's
:func:`~repro.core.aggregation.interaction_feature_vector` carries every
dimension's Equation-1 share at once, and Phase I computes Equation 3 per
community (:func:`~repro.core.tightness.community_tightness`, and the CSR
block kernel behind :func:`~repro.core.division.divide`).  The one-value
forms here state each formula as the paper writes it.
"""

from __future__ import annotations

from typing import Collection

from repro.core.aggregation import interaction_feature_vector
from repro.core.tightness import friend_count_in
from repro.exceptions import FeatureError
from repro.graph.graph import Graph
from repro.graph.interactions import InteractionStore
from repro.types import Node


def interact(
    node: Node,
    community: frozenset[Node] | set[Node],
    dim: int,
    interactions: InteractionStore,
) -> float:
    """Equation 1: ``node``'s share of the community's interactions on ``dim``.

    ``interact(u, C, j) = (Σ_{v ∈ C\\{u}} I^j_{uv}) / (Σ_{v,w ∈ C} I^j_{vw})``

    The denominator sums over all unordered member pairs.  When the community
    has no interaction at all on dimension ``j`` the share is defined as 0.

    One dimension of the Equation-2 vector
    (:func:`~repro.core.aggregation.interaction_feature_vector`), so the
    scalar and vector forms share one zero-handling and summation and cannot
    drift apart.  Equation 1 is defined for ``node ∈ C``; like the vector
    path, a node outside the community gets share 0 (only member-member
    pairs enter the numerator).
    """
    dim = int(dim)
    if not 0 <= dim < interactions.num_dims:
        raise FeatureError(
            f"interaction dimension {dim} out of range [0, {interactions.num_dims})"
        )
    return float(interaction_feature_vector(node, community, interactions)[dim])


def tightness(ego_net: Graph, node: Node, community: Collection[Node]) -> float:
    """Equation 3: tightness of ``node`` with respect to ``community``.

    Parameters
    ----------
    ego_net:
        The ego network ``G_v`` the community was detected in.
    node:
        A member of ``community``.
    community:
        The local community ``C`` (must contain ``node``).

    Returns
    -------
    float
        A value in ``[0, 1]``; 1 for singleton communities.
    """
    member_set = set(community)
    if node not in member_set:
        raise ValueError(f"node {node!r} is not a member of the community")
    size = len(member_set)
    if size == 1:
        return 1.0

    friends_in_community = friend_count_in(ego_net, node, member_set)
    friends_in_ego = ego_net.degree(node)
    if friends_in_ego == 0:
        # A completely isolated member of a multi-node community can only
        # happen when the community was supplied externally (not by GN);
        # it plays no representative role, so its tightness is 0.
        return 0.0
    return (friends_in_community / friends_in_ego) * (
        friends_in_community / (size - 1)
    )
