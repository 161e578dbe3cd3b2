"""Phase I — Division: ego-network extraction and local community detection.

For every ego node ``v`` the global graph is reduced to the ego network
``G_v`` (``v`` and its incident edges excluded) and a community-detection
algorithm — Girvan–Newman in the paper, label propagation / Louvain as
ablations — partitions the ego's friends into *local communities*.

The output of this phase is a :class:`DivisionResult`: for every processed
ego, the list of its :class:`LocalCommunity` objects carrying the member set
and the per-member tightness values needed by Phases II and III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.community.girvan_newman import girvan_newman
from repro.community.label_propagation import label_propagation_communities
from repro.community.louvain import louvain_communities
from repro.core.tightness import community_tightness
from repro.exceptions import PipelineError
from repro.graph.csr import CSRGraph, DenseEgoNet, dense_ego_nets, girvan_newman_dense
from repro.graph.ego import ego_network
from repro.graph.graph import Graph
from repro.types import Node, node_key

@dataclass(frozen=True)
class LocalCommunity:
    """A local community detected inside one ego's ego network.

    Attributes
    ----------
    ego:
        The ego node whose ego network this community lives in.
    members:
        The friends forming the community (the ego itself is never a member).
    tightness:
        Per-member tightness values (Equation 3) within this community.
    index:
        Position of the community within the ego's community list, which is
        ordered by each community's smallest member under
        :data:`repro.types.node_key`.
    """

    ego: Node
    members: frozenset[Node]
    tightness: dict[Node, float] = field(hash=False)
    index: int = 0

    @property
    def size(self) -> int:
        return len(self.members)

    def members_by_tightness(self) -> list[Node]:
        """Members sorted by decreasing tightness (ties broken by ``node_key``).

        The ordering is computed once and cached, so the repeated Phase II
        calls (feature matrices, statistic vectors, CNN tensors) pay one
        sort total instead of one sort each.
        """
        cached = self.__dict__.get("_ordered_members")
        if cached is None:
            cached = sorted(
                self.members, key=lambda node: (-self.tightness[node], node_key(node))
            )
            object.__setattr__(self, "_ordered_members", cached)
        return list(cached)

    def __contains__(self, node: Node) -> bool:
        return node in self.members


@dataclass
class DivisionResult:
    """Phase I output: local communities for every processed ego."""

    communities_by_ego: dict[Node, list[LocalCommunity]] = field(default_factory=dict)

    def communities_of(self, ego: Node) -> list[LocalCommunity]:
        """All local communities in ``ego``'s ego network."""
        return self.communities_by_ego.get(ego, [])

    def community_containing(self, ego: Node, friend: Node) -> LocalCommunity | None:
        """The local community of ``ego``'s ego network that contains ``friend``.

        Returns ``None`` when ``ego`` was not processed or ``friend`` is not a
        friend of ``ego`` (which can happen on sharded / partial runs).  The
        built-in detectors emit partitions; if a custom detector's blocks
        overlap on a member, the community earlier in the list wins.

        A scan of the ego's current list, so it always reads the division as
        it is.  Phase III does not probe here: it compiles its own edge index
        (:class:`repro.core.combination.EdgeFeatureBuilder`), and the callers
        are the tests (this is that index's oracle) and the benchmark's write
        scripts.
        """
        for community in self.communities_by_ego.get(ego, ()):
            if friend in community.members:
                return community
        return None

    def all_communities(self) -> Iterator[LocalCommunity]:
        """Iterate over every local community, by ``(node_key(ego), index)``.

        Training rows and scoring batches inherit this order, so neither the
        order shards were merged in nor the position an update appended an
        ego at reaches a model.
        """
        for ego in sorted(self.communities_by_ego, key=node_key):
            yield from self.communities_by_ego[ego]

    @property
    def num_egos(self) -> int:
        return len(self.communities_by_ego)

    @property
    def num_communities(self) -> int:
        return sum(len(blocks) for blocks in self.communities_by_ego.values())

    def community_sizes(self) -> list[int]:
        """Sizes of all local communities (used for the Figure 10a CDF)."""
        return [community.size for community in self.all_communities()]

    def merge(self, other: "DivisionResult") -> "DivisionResult":
        """Merge the per-ego results of two shards into a new result."""
        merged = DivisionResult(dict(self.communities_by_ego))
        for ego, communities in other.communities_by_ego.items():
            if ego in merged.communities_by_ego:
                raise PipelineError(f"ego {ego!r} present in both shards")
            merged.communities_by_ego[ego] = communities
        return merged


DetectorFn = Callable[[Graph], Sequence[frozenset[Node]]]


def _girvan_newman_detector(graph: Graph) -> Sequence[frozenset[Node]]:
    return girvan_newman(graph).communities


def _label_propagation_detector(graph: Graph) -> Sequence[frozenset[Node]]:
    return label_propagation_communities(graph)


def _louvain_detector(graph: Graph) -> Sequence[frozenset[Node]]:
    return louvain_communities(graph)


_DETECTORS: dict[str, DetectorFn] = {
    "girvan_newman": _girvan_newman_detector,
    "label_propagation": _label_propagation_detector,
    "louvain": _louvain_detector,
}


def get_detector(name: str) -> DetectorFn:
    """Look up a community detector by name."""
    try:
        return _DETECTORS[name]
    except KeyError:
        raise PipelineError(
            f"unknown community detector {name!r}; available: {sorted(_DETECTORS)}"
        ) from None


def _divider(
    graph: Graph | CSRGraph, detector: DetectorFn | str
) -> Callable[[list[Node]], dict[Node, list[LocalCommunity]]]:
    """Resolve the Phase I route once; the returned callable divides a list
    of distinct egos.

    A detector *name* runs its routed kernel: ``"girvan_newman"`` the CSR
    engine of :mod:`repro.graph.csr`, the ablation detectors (which have
    none) their reference.  A detector *callable* always runs on ego-network
    :class:`Graph` objects — ``get_detector("girvan_newman")`` is therefore
    the oracle the CSR engine is tested against.  A :class:`CSRGraph` headed
    for the ``Graph`` path is materialised here, once per call — never once
    per ego.
    """
    if detector == "girvan_newman":
        csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
        return lambda egos: _divide_csr(csr, egos)
    source = graph.to_graph() if isinstance(graph, CSRGraph) else graph
    detect = get_detector(detector) if isinstance(detector, str) else detector
    return lambda egos: {
        ego: _detect_communities(ego_network(source, ego), ego, detect) for ego in egos
    }


def divide_ego(
    graph: Graph,
    ego: Node,
    detector: DetectorFn | str = "girvan_newman",
) -> list[LocalCommunity]:
    """Run Phase I for a single ego node — ``divide(graph, egos=[ego])``'s
    route, one ego at a time.

    Returns the ego's local communities with per-member tightness values.
    An ego with no friends yields an empty list.  For repeated calls prefer
    :func:`divide`, which builds the CSR snapshot once and runs the egos'
    Girvan-Newman sweeps in lockstep.
    """
    return _divider(graph, detector)([ego])[ego]


def _detect_communities(
    ego_net: Graph, ego: Node, detector: DetectorFn
) -> list[LocalCommunity]:
    """Run ``detector`` on an ego-network :class:`Graph` and score tightness."""
    if ego_net.num_nodes == 0:
        return []
    blocks = [members for members in map(frozenset, detector(ego_net)) if members]
    return [
        LocalCommunity(
            ego=ego,
            members=members,
            tightness=community_tightness(ego_net, members),
            index=index,
        )
        for index, members in enumerate(blocks)
    ]


def _divide_csr(csr: CSRGraph, egos: list[Node]) -> dict[Node, list[LocalCommunity]]:
    """Girvan-Newman (the paper's detector) for every ego, entirely on the
    flat local arrays; results are identical to the callable detector's.

    Every ego net is extracted first, so an unknown ego raises
    :class:`NodeNotFoundError` before any GN work; the GN sweeps then run in
    lockstep (:func:`repro.graph.csr.girvan_newman_dense`)."""
    nets = dense_ego_nets(csr, egos)
    return {
        ego: _communities_csr(ego, net, blocks)
        for ego, net, blocks in zip(egos, nets, girvan_newman_dense(nets))
    }


def _communities_csr(
    ego: Node, net: DenseEgoNet, blocks: list[list[int]]
) -> list[LocalCommunity]:
    """Wrap one ego's GN blocks as communities with their tightness."""
    neighbors = _neighbor_lists(net)
    return [
        LocalCommunity(
            ego=ego,
            members=frozenset(net.labels[i] for i in block),
            tightness=_block_tightness(net.labels, neighbors, block),
            index=index,
        )
        for index, block in enumerate(blocks)
    ]


def _neighbor_lists(net: DenseEgoNet) -> list[list[int]]:
    """Int-indexed adjacency lists of a dense ego net (built once per ego)."""
    neighbors: list[list[int]] = [[] for _ in range(net.num_nodes)]
    for u, v in zip(net.eu.tolist(), net.ev.tolist()):
        neighbors[u].append(v)
        neighbors[v].append(u)
    return neighbors


def _block_tightness(
    labels: list[Node], neighbors: list[list[int]], block: list[int]
) -> dict[Node, float]:
    """Equation 3 for one local community, on int-indexed adjacency lists.

    Same integer counts and float operations as
    :func:`repro.core.tightness.tightness`, so the values match it bit for
    bit.
    """
    size = len(block)
    if size == 1:
        return {labels[block[0]]: 1.0}
    member_set = set(block)
    values: dict[Node, float] = {}
    for member in block:
        friends_in_ego = len(neighbors[member])
        if friends_in_ego == 0:
            values[labels[member]] = 0.0
            continue
        friends_in_community = 0
        for other in neighbors[member]:
            if other in member_set:
                friends_in_community += 1
        values[labels[member]] = (friends_in_community / friends_in_ego) * (
            friends_in_community / (size - 1)
        )
    return values


def divide(
    graph: Graph,
    egos: Iterable[Node] | None = None,
    detector: DetectorFn | str = "girvan_newman",
) -> DivisionResult:
    """Run Phase I for every ego in ``egos`` (default: every node of the graph,
    in :data:`repro.types.node_key` order; a repeated ego is divided once).

    No ego's division depends on another's: :mod:`repro.runtime` shards this
    same function across workers, and on the Girvan-Newman route the egos of
    one call step in lockstep so that each round's Brandes work is scored in
    one batched kernel call (see :func:`repro.graph.csr.girvan_newman_dense`);
    the result is the same whichever egos share a call.  That route extracts
    every ego net before any GN work, so an unknown ego raises
    :class:`~repro.exceptions.NodeNotFoundError` up front.  ``detector`` is a
    name (its routed kernel) or a callable over ego-network :class:`Graph`
    objects (see :func:`get_detector` for the references).
    """
    if egos is None:
        egos = sorted(graph.nodes(), key=node_key)
    return DivisionResult(_divider(graph, detector)(list(dict.fromkeys(egos))))
