"""Zero-copy shared-memory broadcast of CSR influence graphs.

The serving shard fleet (:mod:`repro.serve.shard`) scores queries in
worker processes that all need a served model's coarse graph.  This
module publishes the CSR arrays (``indptr``, ``heads``, ``probs`` and,
when present, ``weights``) **once** into a single
:mod:`multiprocessing.shared_memory` segment and hands workers a tiny
picklable :class:`SharedGraphSpec`.  Workers attach read-only numpy views
onto the same physical pages, so the broadcast costs one memcpy for the
publisher and zero copies per worker.

Ownership protocol
------------------
* The **publisher** (the serving parent) creates the segment via
  :meth:`SharedGraph.publish` and must call :meth:`SharedGraph.unlink`
  when the model is evicted — ``SharedGraph`` is a context manager so the
  usual form is ``with SharedGraph.publish(g) as shared: ...``.  Creation
  is exception-safe: a failure while copying the arrays unlinks the
  half-built segment before re-raising.
* **Workers** call :func:`attach_shared_graph`.  Attachment is cached per
  process and per segment, so a worker that receives many tasks maps the
  graph exactly once.
  :func:`detach_shared_graphs` drops the cache; it is called automatically
  at interpreter exit.

The attached views are marked non-writeable — the graph is immutable by
contract, and a stray write through a shared mapping would corrupt every
other worker's copy of the truth.
"""

from __future__ import annotations

import atexit
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..errors import GraphFormatError
from .influence_graph import InfluenceGraph

__all__ = [
    "SharedGraph",
    "SharedGraphSpec",
    "attach_shared_graph",
    "detach_shared_graph",
    "detach_shared_graphs",
]

_INT = np.dtype(np.int64)
_FLOAT = np.dtype(np.float64)


@dataclass(frozen=True)
class SharedGraphSpec:
    """Picklable descriptor of a published graph segment.

    This is all that crosses the process boundary per model: a segment
    name and three integers.  The layout inside the segment is implied —
    ``indptr`` (``n + 1`` int64), ``heads`` (``m`` int64), ``probs``
    (``m`` float64), then ``weights`` (``n`` int64) when the graph is
    vertex-weighted.
    """

    name: str
    n: int
    m: int
    has_weights: bool

    @property
    def nbytes(self) -> int:
        """Exact payload size of the broadcast CSR arrays."""
        total = (self.n + 1) * _INT.itemsize + self.m * (_INT.itemsize + _FLOAT.itemsize)
        if self.has_weights:
            total += self.n * _INT.itemsize
        return total

    def _offsets(self) -> tuple[int, int, int, int]:
        o_heads = (self.n + 1) * _INT.itemsize
        o_probs = o_heads + self.m * _INT.itemsize
        o_weights = o_probs + self.m * _FLOAT.itemsize
        return 0, o_heads, o_probs, o_weights


def _close_tolerating_views(shm: shared_memory.SharedMemory) -> None:
    """Close ``shm``, deferring the unmap when numpy views still pin it.

    ``mmap.close`` refuses while exported buffers exist.  Dropping the
    handle instead hands the mapping's lifetime to those views: when the
    last one is garbage-collected, the mmap object goes with it and the
    pages are released — and ``SharedMemory.__del__`` no longer retries a
    close that can only fail.
    """
    try:
        shm.close()
    except BufferError:
        setattr(shm, "_mmap", None)


def _view_graph(spec: SharedGraphSpec, shm: shared_memory.SharedMemory) -> InfluenceGraph:
    """Build a read-only :class:`InfluenceGraph` over ``shm``'s buffer.

    No bytes are copied: ``np.frombuffer`` wraps the mapped pages directly
    and ``InfluenceGraph`` keeps already-contiguous right-dtype arrays
    as-is.  The views are frozen so the shared pages cannot be mutated.
    """
    o_indptr, o_heads, o_probs, o_weights = spec._offsets()
    buf = shm.buf
    indptr = np.frombuffer(buf, dtype=_INT, count=spec.n + 1, offset=o_indptr)
    heads = np.frombuffer(buf, dtype=_INT, count=spec.m, offset=o_heads)
    probs = np.frombuffer(buf, dtype=_FLOAT, count=spec.m, offset=o_probs)
    weights = None
    if spec.has_weights:
        weights = np.frombuffer(buf, dtype=_INT, count=spec.n, offset=o_weights)
    for array in (indptr, heads, probs, weights):
        if array is not None:
            array.flags.writeable = False
    return InfluenceGraph(indptr, heads, probs, weights=weights, validate=False)


class SharedGraph:
    """Publisher-side handle for a graph broadcast segment.

    Create with :meth:`publish`; the owning process must eventually call
    :meth:`unlink` (or use the instance as a context manager) so the
    segment is returned to the OS even when a consumer raises.
    """

    __slots__ = ("spec", "_shm")

    def __init__(self, spec: SharedGraphSpec, shm: shared_memory.SharedMemory) -> None:
        self.spec = spec
        self._shm: "shared_memory.SharedMemory | None" = shm

    @classmethod
    def publish(cls, graph: InfluenceGraph,
                name: "str | None" = None) -> "SharedGraph":
        """Copy ``graph``'s CSR arrays into a fresh shared segment.

        The one memcpy of the whole broadcast happens here.  If anything
        fails mid-copy the segment is closed *and unlinked* before the
        exception propagates — a publish never leaks a named segment.

        ``name`` forces the segment name instead of letting the OS pick a
        fresh one; only tests exercising segment-name reuse should need it.
        """
        spec_shape = (graph.n, graph.m, graph.is_weighted)
        size = SharedGraphSpec("", *spec_shape).nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(size, 1),
                                         name=name)
        try:
            spec = SharedGraphSpec(shm.name, *spec_shape)
            o_indptr, o_heads, o_probs, o_weights = spec._offsets()
            buf = shm.buf
            np.frombuffer(buf, dtype=_INT, count=spec.n + 1,
                          offset=o_indptr)[:] = graph.indptr
            np.frombuffer(buf, dtype=_INT, count=spec.m,
                          offset=o_heads)[:] = graph.heads
            np.frombuffer(buf, dtype=_FLOAT, count=spec.m,
                          offset=o_probs)[:] = graph.probs
            if spec.has_weights:
                np.frombuffer(buf, dtype=_INT, count=spec.n,
                              offset=o_weights)[:] = graph.weights
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        return cls(spec, shm)

    def graph(self) -> InfluenceGraph:
        """A read-only view of the published graph in *this* process.

        Exists for tests that want the publisher on the exact same
        zero-copy path as the workers.
        """
        if self._shm is None:
            raise GraphFormatError(
                f"shared graph segment {self.spec.name!r} already unlinked"
            )
        return _view_graph(self.spec, self._shm)

    def unlink(self) -> None:
        """Release the segment (idempotent).

        Live numpy views (ours or a worker's) keep the *mapping* alive
        until they are garbage-collected — ``close`` failing with
        ``BufferError`` is therefore tolerated; the OS reclaims the pages
        when the last mapping drops.  The *name* is removed immediately,
        so no new attachment can race the teardown.  This process's
        attachment cache entry for the name (if any) is evicted too: once
        the name is free the OS may hand it to a future segment, and a
        cached mapping of the dead one must not shadow it.
        """
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.unlink()
        finally:
            detach_shared_graph(self.spec.name)
            # Views handed out by graph() may still pin the mapping; the
            # name (not the mapping) is what must go away immediately.
            _close_tolerating_views(shm)

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.unlink()


#: Per-process attachment cache: segment name -> (graph view, mapping).
#: Guarded by ``_ATTACH_LOCK`` — shard workers are single-threaded, but the
#: publisher's own process is not (:meth:`SharedGraph.unlink` evicts from
#: serving threads), and a racing double-attach would leak a second
#: mapping of the same segment.
_ATTACHED: dict[str, tuple[InfluenceGraph, shared_memory.SharedMemory]] = {}
_ATTACH_LOCK = threading.Lock()


def attach_shared_graph(spec: SharedGraphSpec) -> InfluenceGraph:
    """Attach read-only views for ``spec``, once per process.

    Repeated calls with the same segment return the cached graph object, so
    a worker that processes many tasks maps the pages exactly once.
    """
    with _ATTACH_LOCK:
        entry = _ATTACHED.get(spec.name)
        if entry is None:
            try:
                shm = shared_memory.SharedMemory(name=spec.name)
            except FileNotFoundError as exc:
                raise GraphFormatError(
                    f"shared graph segment {spec.name!r} does not exist "
                    f"(publisher already unlinked it?)"
                ) from exc
            entry = (_view_graph(spec, shm), shm)
            _ATTACHED[spec.name] = entry
        return entry[0]


def detach_shared_graph(name: str) -> bool:
    """Evict one cached attachment (idempotent); returns whether it existed.

    Must be called when a worker is told a segment went away (the serving
    shard protocol's ``detach`` task) — and is called automatically by
    :meth:`SharedGraph.unlink` in the publisher's own process.  Without the
    eviction, a long-lived process that later attaches a *new* segment
    reusing the same OS-assigned name would be handed the stale mapping of
    the dead one, and would hold the dead segment's pages alive forever.
    """
    with _ATTACH_LOCK:
        entry = _ATTACHED.pop(name, None)
    if entry is None:
        return False
    _graph, shm = entry
    del _graph
    _close_tolerating_views(shm)
    return True


def detach_shared_graphs() -> None:
    """Drop every cached attachment in this process (idempotent).

    Graph objects previously returned by :func:`attach_shared_graph` keep
    their own views alive; in that case the unmap is deferred to their
    garbage collection rather than forced here.
    """
    with _ATTACH_LOCK:
        names = list(_ATTACHED)
    for name in names:
        detach_shared_graph(name)


atexit.register(detach_shared_graphs)
