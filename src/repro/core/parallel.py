"""Algorithm 6 — parallel coarsening.

The first stage is embarrassingly parallel: worker ``t`` builds the partition
of all ``r_t``-robust SCCs from its own live-edge samples, with
``sum r_t = r`` balanced so ``|r_t1 - r_t2| <= 1``.  The meet of the ``T``
worker partitions equals the r-robust SCC partition (meet is associative and
commutative), after which the second stage proceeds as in Algorithm 1.

The workers run on one thread pool (the paper's shared-memory OpenMP
variant): they share the input graph by reference, and run concurrently
where the SCC and meet kernels are inside numpy calls that release the
GIL, which on small graphs is too little of the time to pay off.  The
per-worker seeds are drawn from ``rng`` before the pool starts, so the
output depends only on ``(r, workers, rng)``, never on scheduling.

Worker partitions are folded with a pairwise **tree reduction**
(:func:`repro.partition.meet_all`): meets are associative/commutative per
Theorem 4.11, so the tree is exact, halves the sequential meet depth, and
runs each level's independent pair-meets on the still-open pool.
"""

from __future__ import annotations

import concurrent.futures
import time

import numpy as np

from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..obs import STAGE_CONTRACT, STAGE_MEET, StageTimes, inc, span
from ..partition.partition import Partition, meet_all
from ..rng import spawn_rngs
from .coarsen import coarsen
from .result import CoarsenResult, CoarsenStats
from .robust_scc import robust_scc_partition

__all__ = ["coarsen_influence_graph_parallel", "split_rounds"]


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


def _worker(graph: InfluenceGraph, index: int, r_t: int,
            seed: int) -> "tuple[np.ndarray, StageTimes]":
    """One worker's labels and its own ``sample``/``scc``/``meet`` times
    (each worker accumulates into its own :class:`StageTimes`; the caller
    merges them once the pool has joined)."""
    stages = StageTimes()
    with span("parallel_worker", worker=index, r_t=r_t):
        partition = robust_scc_partition(graph, r_t, rng=seed,
                                         stages=stages)
    return partition.labels, stages


def coarsen_influence_graph_parallel(
    graph: InfluenceGraph,
    r: int = 16,
    workers: int = 4,
    rng=None,
) -> CoarsenResult:
    """Coarsen ``graph`` using up to ``workers`` parallel partition builders.

    Produces a graph from the same distribution as Algorithm 1 with the same
    total sample count ``r``.  For a fixed ``(r, workers, rng)`` the result
    is byte-identical from run to run: the per-worker RNG streams are
    derived from ``rng`` before the pool is created, and the meet tree is
    exact (Theorem 4.11).  ``workers`` is clamped to ``min(workers, r)`` —
    see :func:`split_rounds`; ``stats.extras`` records both the requested
    and the effective count.  ``stats.stage_seconds`` sums the workers'
    ``sample``/``scc``/``meet`` times with the caller's meet tree and
    contraction, so under ``T`` concurrent workers it can exceed the
    wall time.
    """
    stages = StageTimes()
    rounds = split_rounds(r, workers)
    n_workers = len(rounds)
    with span("coarsen_parallel", r=r, workers=n_workers, n=graph.n,
              m=graph.m):
        t0 = time.perf_counter()
        child_rngs = spawn_rngs(rng, n_workers)
        seeds = [int(c.integers(0, 2**62)) for c in child_rngs]
        with concurrent.futures.ThreadPoolExecutor(n_workers) as pool:
            with span("parallel_partition_build", workers=n_workers):
                futures = [
                    pool.submit(_worker, graph, i, r_t, seed)
                    for i, (r_t, seed) in enumerate(zip(rounds, seeds))
                ]
                label_arrays = []
                for future in futures:
                    labels, worker_stages = future.result()
                    label_arrays.append(labels)
                    stages.merge(worker_stages)
            with stages.stage(STAGE_MEET, workers=n_workers):
                partition = meet_all(
                    [Partition(labels, canonical=True)
                     for labels in label_arrays],
                    map_fn=pool.map,
                )
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
        extras={
            "workers": n_workers,
            "requested_workers": workers,
            "rounds": rounds,
            "meet_tree_depth": (n_workers - 1).bit_length(),
        },
    )
    return CoarsenResult(coarse=coarse, pi=pi, partition=partition, stats=stats)
