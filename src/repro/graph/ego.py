"""Ego-network extraction (LoCEC Phase I, division step).

The paper defines the ego network ``G_v`` of a user ``v`` as the sub-graph
induced on ``v``'s friends, with the ego node itself and its incident edges
*excluded* (Section IV-A).  Excluding the ego matters: if the ego were kept,
its star of edges would glue all friend circles into one giant community and
Girvan–Newman would return a single cluster.
"""

from __future__ import annotations

from repro.graph.graph import Graph
from repro.types import Node


def ego_network(graph: Graph, ego: Node) -> Graph:
    """Extract the ego network of ``ego``.

    Parameters
    ----------
    graph:
        The global friendship graph ``G``.
    ego:
        The ego node ``v``.

    Returns
    -------
    Graph
        The sub-graph induced on the ego's friends (the ego excluded).
        Friends with no mutual friendships appear as isolated nodes, so the
        node set of the result is always exactly ``neighbors(ego)``.
    """
    friends = graph.neighbors(ego)
    ego_net = Graph(nodes=friends)
    for friend in friends:
        for other in graph.neighbors(friend):
            if other in friends and other != friend:
                ego_net.add_edge(friend, other)
    return ego_net
