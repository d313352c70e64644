"""Algorithm 6 — parallel coarsening.

The first stage is embarrassingly parallel: worker ``t`` builds the partition
of all ``r_t``-robust SCCs from its own live-edge samples, with
``sum r_t = r`` balanced so ``|r_t1 - r_t2| <= 1``.  The meet of the ``T``
worker partitions equals the r-robust SCC partition (meet is associative and
commutative), after which the second stage proceeds as in Algorithm 1.

Executors
---------
``"serial"``  — run workers in-process (baseline / debugging);
``"thread"``  — shared-memory parallelism (the paper's OpenMP variant);
``"process"`` — distributed-memory parallelism (the paper's MPI variant).

All three executors run the *same* worker function over a
:class:`GraphHandle`.  For ``serial``/``thread`` the handle resolves to the
in-process graph object (zero cost); for ``process`` the CSR arrays are
published **once** to a :mod:`multiprocessing.shared_memory` segment
(:mod:`repro.graph.shm`) and only a tiny picklable spec crosses the process
boundary — the pool initializer attaches read-only views before the first
task, mirroring the master-to-worker broadcast of Appendix C.1 without
per-task pickling.  The ``coarsen.parallel.broadcast_bytes`` counter records
the exactly-once payload.

Worker partitions are folded with a pairwise **tree reduction**
(:func:`repro.partition.meet_all`): meets are associative/commutative per
Theorem 4.11, so the tree is exact, halves the sequential meet depth, and —
under the thread executor — runs each level's independent pair-meets on the
still-open pool.
"""

from __future__ import annotations

import concurrent.futures
import time

import numpy as np

from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..graph.shm import SharedGraph, SharedGraphSpec, attach_shared_graph
from ..obs import (
    STAGE_BROADCAST,
    STAGE_CONTRACT,
    STAGE_MEET,
    StageTimes,
    inc,
    span,
)
from ..partition.partition import Partition, meet_all
from ..rng import spawn_rngs
from .coarsen import coarsen
from .result import CoarsenResult, CoarsenStats
from .robust_scc import robust_scc_partition

__all__ = ["GraphHandle", "coarsen_influence_graph_parallel", "split_rounds"]

_EXECUTORS = ("serial", "thread", "process")


def split_rounds(r: int, workers: int) -> list[int]:
    """Balanced split ``r_t = floor((r + t - 1) / T)`` (Algorithm 6, line 2).

    The effective worker count is clamped to ``min(workers, r)`` so no
    worker is ever handed zero samples — a zero-sample worker would still
    draw a seed and occupy a pool slot for nothing.  ``r = 0`` keeps the
    paper's trivial-partition convention: one worker, zero samples, which
    folds to ``{V}``.  The returned list has one entry per *effective*
    worker.
    """
    if workers <= 0:
        raise AlgorithmError("worker count must be positive")
    if r < 0:
        raise AlgorithmError("r must be non-negative")
    if r == 0:
        return [0]
    effective = min(workers, r)
    return [(r + t) // effective for t in range(effective)]


class GraphHandle:
    """Executor-agnostic reference to the broadcast input graph.

    The three executors share one worker code path by passing a handle
    instead of a graph: ``serial``/``thread`` handles hold the in-process
    object and resolve for free; ``process`` handles hold only a
    :class:`~repro.graph.shm.SharedGraphSpec` and resolve by attaching
    read-only shared-memory views, cached once per worker process.  Only
    spec-backed handles are ever pickled, so submitting a task costs a few
    dozen bytes regardless of graph size.
    """

    __slots__ = ("_graph", "_spec")

    def __init__(
        self,
        graph: "InfluenceGraph | None" = None,
        spec: "SharedGraphSpec | None" = None,
    ) -> None:
        if (graph is None) == (spec is None):
            raise AlgorithmError("GraphHandle wraps exactly one of graph/spec")
        self._graph = graph
        self._spec = spec

    def resolve(self) -> InfluenceGraph:
        """The graph this handle refers to, materialised in this process."""
        if self._graph is not None:
            return self._graph
        assert self._spec is not None
        return attach_shared_graph(self._spec)

    def __reduce__(self):
        if self._spec is None:
            raise AlgorithmError(
                "refusing to pickle an in-process GraphHandle; broadcast the "
                "graph through repro.graph.shm for cross-process use"
            )
        return (GraphHandle, (None, self._spec))


def _init_worker(handle: GraphHandle) -> None:
    """Pool initializer: attach the broadcast graph before the first task."""
    handle.resolve()


def _worker(handle: GraphHandle, index: int, r_t: int, seed: int) -> np.ndarray:
    graph = handle.resolve()
    with span("parallel_worker", worker=index, r_t=r_t):
        partition = robust_scc_partition(graph, r_t, rng=seed)
    return partition.labels


def coarsen_influence_graph_parallel(
    graph: InfluenceGraph,
    r: int = 16,
    workers: int = 4,
    rng=None,
    executor: str = "thread",
) -> CoarsenResult:
    """Coarsen ``graph`` using up to ``workers`` parallel partition builders.

    Produces a graph from the same distribution as Algorithm 1 with the same
    total sample count ``r``.  For a fixed ``(r, workers, rng)`` the result
    is byte-identical across all three executors: the per-worker RNG streams
    are derived from ``rng`` before any pool is created, and the meet tree
    is exact (Theorem 4.11).  ``workers`` is clamped to ``min(workers, r)``
    — see :func:`split_rounds`; ``stats.extras`` records both the requested
    and the effective count.
    """
    if executor not in _EXECUTORS:
        raise AlgorithmError(f"executor must be one of {_EXECUTORS}")
    stages = StageTimes()
    rounds = split_rounds(r, workers)
    n_workers = len(rounds)
    with span("coarsen_parallel", r=r, workers=n_workers, executor=executor,
              n=graph.n, m=graph.m):
        t0 = time.perf_counter()
        child_rngs = spawn_rngs(rng, n_workers)
        seeds = [int(c.integers(0, 2**62)) for c in child_rngs]
        tasks = list(zip(range(n_workers), rounds, seeds))

        extras: dict = {
            "workers": n_workers,
            "requested_workers": workers,
            "executor": executor,
            "rounds": rounds,
        }

        shared: "SharedGraph | None" = None
        try:
            if executor == "process":
                with stages.stage(STAGE_BROADCAST, n=graph.n, m=graph.m):
                    shared = SharedGraph.publish(graph)
                handle = GraphHandle(spec=shared.spec)
                # Counted exactly once per pool: the whole graph crosses
                # the process boundary via this segment and nothing else.
                inc("coarsen.parallel.broadcast_bytes", shared.spec.nbytes)
                extras["broadcast_bytes"] = shared.spec.nbytes
            else:
                handle = GraphHandle(graph=graph)

            extras["meet_tree_depth"] = (n_workers - 1).bit_length()
            if executor == "serial":
                with span("parallel_partition_build", workers=n_workers):
                    _init_worker(handle)
                    label_arrays = [
                        _worker(handle, i, r_t, seed)
                        for i, r_t, seed in tasks
                    ]
                with stages.stage(STAGE_MEET, workers=n_workers):
                    partition = meet_all(
                        [Partition(labels, canonical=True)
                         for labels in label_arrays]
                    )
            else:
                pool_cls = (
                    concurrent.futures.ThreadPoolExecutor
                    if executor == "thread"
                    else concurrent.futures.ProcessPoolExecutor
                )
                pool_kwargs: dict = {"max_workers": n_workers}
                if executor == "process":
                    pool_kwargs.update(initializer=_init_worker,
                                       initargs=(handle,))
                with pool_cls(**pool_kwargs) as pool:
                    with span("parallel_partition_build", workers=n_workers):
                        futures = [
                            pool.submit(_worker, handle, i, r_t, seed)
                            for i, r_t, seed in tasks
                        ]
                        label_arrays = [f.result() for f in futures]
                    # Thread workers share our address space, so the meet
                    # tree's per-level pair-meets reuse the open pool.  A
                    # process pool would ship every intermediate label array
                    # there and back — for T partitions of n labels that is
                    # more traffic than the meets cost, so those fold here.
                    meet_map = pool.map if executor == "thread" else None
                    with stages.stage(STAGE_MEET, workers=n_workers):
                        partition = meet_all(
                            [Partition(labels, canonical=True)
                             for labels in label_arrays],
                            map_fn=meet_map,
                        )
        finally:
            if shared is not None:
                shared.unlink()
        t1 = time.perf_counter()

        with stages.stage(STAGE_CONTRACT):
            coarse, pi = coarsen(graph, partition)
        t2 = time.perf_counter()
    inc("coarsen.runs")
    inc("coarsen.samples", r)
    stats = CoarsenStats(
        r=r,
        first_stage_seconds=t1 - t0,
        second_stage_seconds=t2 - t1,
        input_vertices=graph.n,
        input_edges=graph.m,
        output_vertices=coarse.n,
        output_edges=coarse.m,
        stage_seconds=stages.as_dict(),
        extras=extras,
    )
    return CoarsenResult(coarse=coarse, pi=pi, partition=partition, stats=stats)
