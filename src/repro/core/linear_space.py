"""Algorithm 1 — the speed-oriented, linear-space implementation.

Runs in O(r (n + m)) time with O(n + m) resident space: the first stage
samples the ``r`` live-edge graphs *sequentially* (one resident at a time)
and folds each sample's SCC partition into the running meet; the second stage
builds ``H`` with a single grouped pass over the edges.
"""

from __future__ import annotations

import time

from ..graph.influence_graph import InfluenceGraph
from ..obs import STAGE_CONTRACT, StageTimes, inc, span
from .coarsen import coarsen
from .result import CoarsenResult, CoarsenStats
from .robust_scc import robust_scc_partition

__all__ = ["coarsen_influence_graph"]


def coarsen_influence_graph(
    graph: InfluenceGraph,
    r: int = 16,
    rng=None,
    validate: bool = False,
) -> CoarsenResult:
    """Coarsen ``graph`` by its r-robust SCC partition (Algorithm 1).

    Parameters
    ----------
    graph:
        Input influence graph (in memory).
    r:
        Robustness parameter; the paper's default sweet spot is 16
        (Section 7.5).  Larger ``r`` = finer partition = larger, more
        accurate coarse graph (Theorems 4.14/4.15).
    rng:
        Seed or generator; fixes the sampled live-edge graphs.
    validate:
        Re-verify the strong-connectivity precondition before contracting
        (always true by construction; useful in tests).

    Returns
    -------
    CoarsenResult
        ``H``, the mapping ``pi``, the partition, and run statistics.
    """
    stages = StageTimes()
    with span("coarsen_linear", r=r, n=graph.n, m=graph.m):
        t0 = time.perf_counter()
        partition = robust_scc_partition(graph, r, rng=rng, stages=stages)
        t1 = time.perf_counter()
        with stages.stage(STAGE_CONTRACT):
            coarse, pi = coarsen(graph, partition, validate=validate)
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
    )
    return CoarsenResult(coarse=coarse, pi=pi, partition=partition, stats=stats)
