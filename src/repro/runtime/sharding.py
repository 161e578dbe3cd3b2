"""Node sharding for distributed LoCEC processing.

LoCEC's key scalability property is that every phase is a per-node (or
per-edge) computation over the node's ego network, so the network can be
split into shards that are processed independently on different servers.
This module implements the shard assignment used by the executor and the
cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import PipelineError
from repro.types import Node


@dataclass(frozen=True)
class Shard:
    """A shard: an index plus the ego nodes assigned to it."""

    shard_id: int
    egos: tuple[Node, ...]

    @property
    def size(self) -> int:
        return len(self.egos)


def shard_nodes(nodes: Sequence[Node], num_shards: int) -> list[Shard]:
    """Assign nodes to ``num_shards`` shards round-robin.

    Node ``i`` goes to shard ``i mod num_shards`` (the paper's streaming
    scheme: each node is parsed separately, so any balanced assignment
    works).
    """
    if num_shards < 1:
        raise PipelineError("num_shards must be >= 1")
    buckets: list[list[Node]] = [[] for _ in range(num_shards)]
    for index, node in enumerate(_dedupe(nodes)):
        buckets[index % num_shards].append(node)
    return [
        Shard(shard_id=shard_id, egos=tuple(bucket))
        for shard_id, bucket in enumerate(buckets)
    ]


def _dedupe(nodes: Sequence[Node]) -> list[Node]:
    """Drop duplicate nodes, preserving first-occurrence order.

    A node sharded twice would be processed twice and then poison the merge
    (``DivisionResult.merge`` rejects egos present in two shards), so the
    assignment layer removes duplicates up front.
    """
    seen: set[Node] = set()
    unique: list[Node] = []
    for node in nodes:
        if node not in seen:
            seen.add(node)
            unique.append(node)
    return unique


def validate_shards(shards: Sequence[Shard]) -> list[Shard]:
    """Integrity-check a shard list before submission to the executor.

    Raises :class:`~repro.exceptions.PipelineError` on duplicate shard ids or
    on an ego assigned to more than one shard — both would corrupt the merge
    silently (last-writer-wins report rows, double-processed egos).  Shards
    with no egos are dropped, so the executor never runs a no-op shard.
    """
    seen_ids: set[int] = set()
    seen_egos: set[Node] = set()
    valid: list[Shard] = []
    for shard in shards:
        if shard.shard_id in seen_ids:
            raise PipelineError(f"duplicate shard id {shard.shard_id}")
        seen_ids.add(shard.shard_id)
        for ego in shard.egos:
            if ego in seen_egos:
                raise PipelineError(
                    f"ego {ego!r} assigned to more than one shard "
                    f"(second occurrence in shard {shard.shard_id})"
                )
            seen_egos.add(ego)
        if shard.size:
            valid.append(shard)
    return valid
