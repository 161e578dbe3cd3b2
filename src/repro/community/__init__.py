"""Community-detection substrate: Girvan–Newman and ablation alternatives."""

from repro.community.betweenness import edge_betweenness
from repro.community.connected import connected_components
from repro.community.girvan_newman import (
    GirvanNewmanResult,
    girvan_newman,
    girvan_newman_levels,
)
from repro.community.label_propagation import label_propagation_communities
from repro.community.louvain import louvain_communities
from repro.community.modularity import modularity

__all__ = [
    "edge_betweenness",
    "connected_components",
    "girvan_newman",
    "girvan_newman_levels",
    "GirvanNewmanResult",
    "label_propagation_communities",
    "louvain_communities",
    "modularity",
]
