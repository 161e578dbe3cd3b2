"""Tightness between a node and its local community (Equation 3).

For an ego node ``v``, a friend ``u`` inside local community ``C`` of ``v``'s
ego network ``G_v``:

* ``tightness(u, C) = 1`` when ``|C| = 1`` (singleton community), otherwise
* ``tightness(u, C) = (|friend(u, C)| / |friend(u, G_v)|) × (|friend(u, C)| / (|C| - 1))``

where ``friend(u, C)`` counts ``u``'s friends inside ``C`` and
``friend(u, G_v)`` counts ``u``'s friends in the whole ego network (the ego
itself is excluded from the ego network by construction, so it never counts).

Intuition: a member that connects to everyone in its community and to nobody
outside of it gets tightness 1; members that straddle several circles score
lower and are therefore placed further down the community feature matrix.
"""

from __future__ import annotations

from typing import Collection

from repro.graph.graph import Graph
from repro.types import Node


def friend_count_in(ego_net: Graph, node: Node, members: Collection[Node]) -> int:
    """Number of ``node``'s friends (within the ego network) that lie in ``members``."""
    neighbors = ego_net.neighbors(node)
    member_set = members if isinstance(members, (set, frozenset)) else set(members)
    return sum(1 for other in neighbors if other in member_set)


def community_tightness(
    ego_net: Graph, community: Collection[Node]
) -> dict[Node, float]:
    """Tightness of every member of ``community`` (Equation 3 applied per node).

    The member set is materialised once, so this runs in O(sum of member
    degrees).  A member with no friend in the ego network (possible only for
    a community supplied externally, not by GN) plays no representative role
    and gets tightness 0.
    """
    member_set = community if isinstance(community, (set, frozenset)) else set(community)
    size = len(member_set)
    if size == 1:
        return {node: 1.0 for node in member_set}
    values: dict[Node, float] = {}
    for node in member_set:
        friends_in_community = friend_count_in(ego_net, node, member_set)
        friends_in_ego = ego_net.degree(node)
        if friends_in_ego == 0:
            values[node] = 0.0
        else:
            values[node] = (friends_in_community / friends_in_ego) * (
                friends_in_community / (size - 1)
            )
    return values
