"""r-robust strongly connected components (Definition 4.9, Theorem 4.11).

A vertex set is an *r-robust SCC* with regard to ``r`` live-edge samples
``G_1..G_r`` when it is strongly connected in every ``G_i`` and maximal.  By
Theorem 4.11 the family of all r-robust SCCs is the meet of the per-sample
SCC partitions, so it can be built incrementally — one sampled graph resident
at a time (first stage of Algorithm 1):

    P_0 = {V};   P_i = P_{i-1} ∧ SCC(G_i)

which is exactly what :func:`robust_scc_partition` does.
"""

from __future__ import annotations

import numpy as np

from ..diffusion.live_edge import sample_live_edge_csr
from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..obs import STAGE_MEET, STAGE_SAMPLE, STAGE_SCC, StageTimes, span
from ..partition.partition import Partition
from ..rng import ensure_rng
from ..scc import scc_labels

__all__ = ["robust_scc_partition", "robust_scc_refinement_sequence"]


def robust_scc_partition(
    graph: InfluenceGraph,
    r: int,
    rng=None,
    *,
    keep_samples: bool = False,
    stages: "StageTimes | None" = None,
) -> "Partition | tuple[Partition, list[tuple[np.ndarray, np.ndarray]]]":
    """The partition of all r-robust SCCs w.r.t. ``r`` fresh live-edge samples.

    Parameters
    ----------
    graph:
        Input influence graph.
    r:
        Number of live-edge samples; larger ``r`` gives finer partitions
        (more conservative coarsening).  ``r = 0`` returns the trivial
        one-block partition ``{V}`` per the paper's convention.
    rng:
        Seed or generator (fixing it fixes the sampled graphs).
    keep_samples:
        Also return the sampled ``(indptr, heads)`` CSRs — needed by the
        dynamic-update module and by invariant tests.  Costs O(r * m) memory,
        so leave off in production runs.
    stages:
        Optional :class:`~repro.obs.StageTimes` accumulating the
        ``sample``/``scc``/``meet`` wall-time breakdown (one is created
        internally when omitted, so tracer spans are emitted either way).
    """
    if r < 0:
        raise AlgorithmError("r must be non-negative")
    rng = ensure_rng(rng)
    if stages is None:
        stages = StageTimes()
    partition = Partition.trivial(graph.n)
    samples: list[tuple[np.ndarray, np.ndarray]] = []
    with span("robust_scc_partition", r=r, n=graph.n, m=graph.m):
        for i in range(r):
            with stages.stage(STAGE_SAMPLE, round=i):
                indptr, heads = sample_live_edge_csr(graph, rng)
            with stages.stage(STAGE_SCC, round=i):
                labels = scc_labels(indptr, heads)
            with stages.stage(STAGE_MEET, round=i):
                partition = partition.meet(Partition(labels, canonical=False))
            if keep_samples:
                samples.append((indptr, heads))
            if partition.n_blocks == graph.n:
                # Already the finest partition; further meets cannot refine
                # it.  Samples must still be drawn when the caller keeps them.
                if not keep_samples:
                    break
    if keep_samples:
        while len(samples) < r:
            samples.append(sample_live_edge_csr(graph, rng))
        return partition, samples
    return partition


def robust_scc_refinement_sequence(
    graph: InfluenceGraph, r: int, rng=None
) -> list[Partition]:
    """The chain ``P_1, P_2, ..., P_r`` over one shared sample sequence.

    Successive partitions use nested sample sets, so the monotonicity
    theorems (4.14/4.15) hold *deterministically* along the chain — this is
    what the r-sweep figures (4–6, 10) iterate over without resampling.
    """
    if r < 0:
        raise AlgorithmError("r must be non-negative")
    rng = ensure_rng(rng)
    partition = Partition.trivial(graph.n)
    chain: list[Partition] = []
    for _ in range(r):
        indptr, heads = sample_live_edge_csr(graph, rng)
        labels = scc_labels(indptr, heads)
        partition = partition.meet(Partition(labels, canonical=False))
        chain.append(partition)
    return chain
