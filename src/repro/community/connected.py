"""Connected components, used as the stopping structure for Girvan–Newman."""

from __future__ import annotations

from collections import deque

from repro.graph.graph import Graph
from repro.types import Node, node_key


def connected_components(graph: Graph) -> list[set[Node]]:
    """Return the connected components of ``graph`` as a list of node sets.

    Components are returned in canonical order — by their smallest member
    under :data:`repro.types.node_key` — so the output is a function of the
    graph's value, not of how it was constructed.
    """
    seen: set[Node] = set()
    components: list[set[Node]] = []
    for start in sorted(graph.nodes(), key=node_key):
        if start in seen:
            continue
        component: set[Node] = {start}
        queue: deque[Node] = deque([start])
        seen.add(start)
        while queue:
            current = queue.popleft()
            for neighbor in graph.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    component.add(neighbor)
                    queue.append(neighbor)
        components.append(component)
    return components
