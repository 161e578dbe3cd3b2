"""Zero-copy shared-memory transport for CSR graphs.

The sharded runtime historically shipped the *entire* graph to every worker
by pickle (the ``repro.runtime.supervisor._init_worker`` pool initializer),
making worker startup O(graph) in both time and RAM — ``num_workers + 1``
full copies resident at once.  This module makes the CSR arrays themselves
the wire format:

* :meth:`SharedCSRGraph.publish` copies a :class:`CSRGraph`'s arrays into
  POSIX shared-memory segments **once** and returns a :class:`ShmLease` — the
  owner object whose :meth:`ShmLease.close` guarantees ``close()``/``unlink()``
  of every segment (context-manager friendly, idempotent).
* The lease's :class:`ShmHandle` pickles as segment names + dtypes + shapes —
  a few hundred bytes regardless of graph scale — and
  :meth:`ShmHandle.attach` maps the segments back into a fully functional
  :class:`CSRGraph` subclass with **zero** edge-array copies.

No ordering side channel: Phase I division is a function of the graph's
*value* (every order it decides comes from :data:`repro.types.node_key`),
so an attached graph — three arrays and nothing else — divides exactly as
the graph it was published from, and the PR 6 invariant (*any transport
merges bit-identical to the clean serial run*) needs nothing shipped
beside the CSR arrays and the node labels.

Lifecycle rules (enforced by lint rule ``MP003``): segments are acquired
only inside ``with`` blocks or ``try`` statements whose cleanup path calls
``close()`` (plus ``unlink()`` for creators).  Attachers additionally
unregister from :mod:`multiprocessing.resource_tracker`: attachment is a
*borrow* — if a worker dies, its tracker must not unlink segments the owner
is still serving to the rest of the pool.
"""

from __future__ import annotations

import pickle
import sys
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.types import Node

__all__ = [
    "ShmHandle",
    "ShmLease",
    "SharedCSRGraph",
    "shm_supported",
    "handle_nbytes",
]


def shm_supported() -> bool:
    """True when POSIX shared memory is usable on this platform."""
    return sys.platform not in ("emscripten", "wasi", "cloudabi")


def handle_nbytes(handle: object) -> int:
    """Pickled size of a transport handle — the per-worker wire payload."""
    return len(pickle.dumps(handle, protocol=pickle.HIGHEST_PROTOCOL))


# ---------------------------------------------------------------- helpers
def _encode_node_labels(nodes: Sequence[Node]) -> tuple[np.ndarray, str]:
    """Node labels as a flat array plus the encoding used.

    All-int label sets take the fast path (an ``int64`` column attachers read
    directly); anything else rides as a pickled blob in a ``uint8`` segment.
    Either way the *handle* stays O(1) — label bytes live in the segment.
    """
    if all(type(node) is int for node in nodes):
        try:
            return np.asarray(nodes, dtype=np.int64), "int64"
        except OverflowError:
            pass
    payload = pickle.dumps(list(nodes), protocol=pickle.HIGHEST_PROTOCOL)
    return np.frombuffer(payload, dtype=np.uint8), "pickle"


def _decode_node_labels(array: np.ndarray, encoding: str) -> list[Node]:
    if encoding == "int64":
        return list(array.tolist())
    return list(pickle.loads(array.tobytes()))


_OWNED_NAMES: set[str] = set()
"""Segment names published (and therefore owned) by *this* process.

Attaching a segment you own must leave the resource tracker alone — the
owner's registration is what guarantees cleanup if the process dies before
its lease unlinks.  Only foreign attachments (workers under ``spawn``, whose
private tracker would otherwise unlink the owner's segments when the worker
exits) get unregistered.
"""


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Stop this process's resource tracker from unlinking ``segment``.

    ``SharedMemory(name=...)`` registers with the per-process tracker, which
    unlinks everything it knows about when the process dies — so a crashed
    worker would tear segments out from under the owner and its siblings.
    Ownership stays with the :class:`ShmLease`; 3.13's ``track=False`` does
    this natively, 3.11 needs the explicit unregister.
    """
    if segment.name in _OWNED_NAMES:
        return
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals vary by platform
        pass


def _release_segments(
    segments: Sequence[shared_memory.SharedMemory], *, unlink: bool
) -> None:
    """Close (and optionally unlink) segments, swallowing already-gone races."""
    for segment in segments:
        try:
            segment.close()
        except BufferError:
            # A caller still holds a live view; the mapping lasts until the
            # process exits, but the name can still be unlinked below.
            pass
        if unlink:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------- handles
@dataclass(frozen=True)
class _SegmentSpec:
    """One published array: where it lives and how to view it."""

    role: str
    name: str
    dtype: str
    shape: tuple[int, ...]


def _publish_arrays(
    arrays: dict[str, np.ndarray],
) -> tuple[tuple[_SegmentSpec, ...], list[shared_memory.SharedMemory]]:
    """Copy each array into a fresh segment; all-or-nothing on failure."""
    segments: list[shared_memory.SharedMemory] = []
    specs: list[_SegmentSpec] = []
    try:
        for role, array in arrays.items():
            contiguous = np.ascontiguousarray(array)
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, int(contiguous.nbytes))
            )
            segments.append(segment)
            view = np.ndarray(contiguous.shape, dtype=contiguous.dtype, buffer=segment.buf)
            view[...] = contiguous
            del view
            specs.append(
                _SegmentSpec(
                    role=role,
                    name=segment.name,
                    dtype=str(contiguous.dtype),
                    shape=tuple(int(dim) for dim in contiguous.shape),
                )
            )
    except BaseException:
        _release_segments(segments, unlink=True)
        raise
    _OWNED_NAMES.update(segment.name for segment in segments)
    return tuple(specs), segments


def _attach_arrays(
    specs: Sequence[_SegmentSpec],
) -> tuple[dict[str, np.ndarray], list[shared_memory.SharedMemory]]:
    """Map every segment of a handle read-only; all-or-nothing on failure."""
    segments: list[shared_memory.SharedMemory] = []
    arrays: dict[str, np.ndarray] = {}
    try:
        for spec in specs:
            segment = shared_memory.SharedMemory(name=spec.name)
            segments.append(segment)
            _untrack(segment)
            view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
            view.flags.writeable = False
            arrays[spec.role] = view
    except BaseException:
        _release_segments(segments, unlink=False)
        raise
    return arrays, segments


@dataclass(frozen=True)
class ShmHandle:
    """Picklable pointer to a published :class:`CSRGraph`.

    A handle is a few hundred bytes regardless of graph scale (asserted at
    < 4 KiB by the transport test suite): segment names, dtypes, shapes and
    the label encoding.  :meth:`attach` maps the arrays back zero-copy.
    """

    segments: tuple[_SegmentSpec, ...]
    label_encoding: str

    def attach(self) -> "SharedCSRGraph":
        """Map the published arrays into this process as a live CSR graph."""
        arrays, segments = _attach_arrays(self.segments)
        try:
            nodes = _decode_node_labels(arrays["nodes"], self.label_encoding)
            graph = SharedCSRGraph(
                arrays["indptr"], arrays["indices"], nodes, segments=segments
            )
        except BaseException:
            _release_segments(segments, unlink=False)
            raise
        return graph

    @property
    def segment_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.segments)

    @property
    def segment_nbytes(self) -> int:
        """Total payload held in shared memory (what pickle would re-ship
        per worker)."""
        total = 0
        for spec in self.segments:
            count = 1
            for dim in spec.shape:
                count *= dim
            total += count * np.dtype(spec.dtype).itemsize
        return total


class SharedCSRGraph(CSRGraph):
    """A :class:`CSRGraph` whose arrays live in shared-memory segments.

    Instances come from :meth:`ShmHandle.attach`; they borrow the segments
    (the publishing :class:`ShmLease` owns unlink) and release their
    mappings via :meth:`close` — also usable as a context manager.
    """

    __slots__ = ("_segments", "_closed")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        nodes: list[Node],
        segments: list[shared_memory.SharedMemory],
    ) -> None:
        super().__init__(indptr, indices, nodes)
        self._segments = segments
        self._closed = False

    @classmethod
    def publish(cls, csr: CSRGraph) -> "ShmLease":
        """Copy ``csr``'s arrays into shared memory; returns the owning lease.

        The lease's ``handle`` is the picklable worker payload.
        """
        labels, encoding = _encode_node_labels(list(csr.nodes()))
        specs, segments = _publish_arrays(
            {"indptr": csr.indptr, "indices": csr.indices, "nodes": labels}
        )
        handle = ShmHandle(segments=specs, label_encoding=encoding)
        return ShmLease(handle=handle, _segments=segments)

    def close(self) -> None:
        """Release this process's mappings (the owner keeps the segments)."""
        if self._closed:
            return
        self._closed = True
        empty = np.empty(0, dtype=np.int32)
        self.indptr = empty
        self.indices = empty
        segments, self._segments = self._segments, []
        _release_segments(segments, unlink=False)

    def __enter__(self) -> "SharedCSRGraph":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ------------------------------------------------------------------ lease
@dataclass
class ShmLease:
    """Owner of a set of published segments.

    Exactly one lease owns each publication; its :meth:`close` both unmaps
    and unlinks, is idempotent, and runs on context exit — the executor holds
    one per pool generation and sweeps it on rebuild, in its ``run()``
    finalizer and in :meth:`~object.__del__` as a last resort.
    """

    handle: ShmHandle
    _segments: list[shared_memory.SharedMemory] = field(default_factory=list)
    released: bool = False

    @property
    def segment_names(self) -> tuple[str, ...]:
        return tuple(segment.name for segment in self._segments)

    @property
    def segment_nbytes(self) -> int:
        return sum(segment.size for segment in self._segments)

    def close(self) -> None:
        """Unmap and unlink every owned segment (idempotent)."""
        if self.released:
            return
        self.released = True
        segments, self._segments = self._segments, []
        _OWNED_NAMES.difference_update(segment.name for segment in segments)
        _release_segments(segments, unlink=True)

    def __enter__(self) -> "ShmLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
