"""Phase I — Division: ego-network extraction and local community detection.

For every ego node ``v`` the global graph is reduced to the ego network
``G_v`` (``v`` and its incident edges excluded) and Girvan–Newman
partitions the ego's friends into *local communities*, on the CSR arrays of
:mod:`repro.graph.csr`.  The readable one-ego-at-a-time form on ``Graph``
objects is the test oracle ``tests/division_reference.py``.

The output of this phase is a :class:`DivisionResult`: for every processed
ego, the list of its :class:`LocalCommunity` objects carrying the member set
and the per-member tightness values needed by Phases II and III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.graph.csr import CSRGraph, DenseEgoNet, dense_ego_nets, girvan_newman_dense
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
        friend of ``ego`` (a division of some egos only, or a pair that is
        not an edge).

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
        order egos were divided in nor the position an update appended an
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

    Same integer counts and float operations as the oracle's
    ``community_tightness`` (``tests/division_reference.py``), so the values
    match it bit for bit.
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


def divide(graph: Graph | CSRGraph, egos: Iterable[Node] | None = None) -> DivisionResult:
    """Run Phase I for every ego in ``egos`` (default: every node of the graph,
    in :data:`repro.types.node_key` order; a repeated ego is divided once).

    No ego's division depends on another's: a write's re-division
    (:meth:`repro.core.pipeline.LoCEC.apply_updates`) calls this same
    function on the dirty egos alone, and the egos of one call step in
    lockstep so that each round's Brandes work is scored in one batched
    kernel call (see :func:`repro.graph.csr.girvan_newman_dense`); the
    result is the same whichever egos share a call.  Every ego net is
    extracted before any GN work, so an unknown ego raises
    :class:`~repro.exceptions.NodeNotFoundError` up front.  A
    :class:`Graph` is snapshotted to a :class:`CSRGraph` once per call.
    """
    if egos is None:
        egos = sorted(graph.nodes(), key=node_key)
    egos = list(dict.fromkeys(egos))
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
    nets = dense_ego_nets(csr, egos)
    return DivisionResult({
        ego: _communities_csr(ego, net, blocks)
        for ego, net, blocks in zip(egos, nets, girvan_newman_dense(nets))
    })
