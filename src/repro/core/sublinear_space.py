"""Algorithm 2 — the scalability-oriented, sublinear-space implementation.

The input influence graph lives on disk as a :class:`TripletStore`; resident
memory is O(|V| + |F'|) where ``F'`` is the set of coarse edges incident to a
non-singleton component.  In real networks 99.9% of r-robust SCCs are
singletons, so ``|F'| << |F|`` and memory is roughly 10% of Algorithm 1
(Section 7.2).

First stage: each live-edge sample is *streamed to its own disk store*
(never resident), a semi-external SCC algorithm labels it with O(V) state,
and the label partition is folded into the running meet.

Second stage: the key identity is that an edge between two singleton
components keeps its original probability (``q = p``), so such edges can be
written straight to the output disk without ever entering the aggregation
hash table; only the F' bundles are accumulated in memory.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..errors import CoarseningError
from ..graph.influence_graph import InfluenceGraph
from ..obs import (
    STAGE_CONTRACT,
    STAGE_MEET,
    STAGE_SAMPLE,
    STAGE_SCC,
    StageTimes,
    inc,
    span,
)
from ..partition.partition import Partition
from ..rng import ensure_rng
from ..scc.semi_external import semi_external_scc_labels
from ..storage.triplet_store import DEFAULT_CHUNK_EDGES, PairStore, TripletStore
from .result import CoarsenResult, CoarsenStats

__all__ = ["coarsen_influence_graph_sublinear", "SublinearResult"]


@dataclass
class SublinearResult:
    """Disk-resident output of Algorithm 2.

    The coarsened edges sit in ``store`` (a :class:`TripletStore`); only the
    O(W) metadata (weights, mapping) is in memory.  :meth:`load` materialises
    a :class:`CoarsenResult` for callers that can afford it.
    """

    store: TripletStore
    weights: np.ndarray
    pi: np.ndarray
    partition: Partition
    stats: CoarsenStats

    def load(self) -> CoarsenResult:
        """Materialise the coarsened graph in memory."""
        tails, heads, probs = self.store.read_all()
        coarse = InfluenceGraph.from_edges(
            self.store.n, tails, heads, probs, weights=self.weights
        )
        return CoarsenResult(
            coarse=coarse, pi=self.pi, partition=self.partition, stats=self.stats
        )


def coarsen_influence_graph_sublinear(
    source: TripletStore,
    out_path: "str | os.PathLike[str]",
    r: int = 16,
    rng=None,
    work_dir: "str | os.PathLike[str] | None" = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    keep_sample_stores: bool = False,
) -> SublinearResult:
    """Coarsen a disk-resident influence graph (Algorithm 2).

    Parameters
    ----------
    source:
        The input graph as an on-disk triplet store.
    out_path:
        Path for the output coarsened triplet store.
    r:
        Robustness parameter (default 16).
    work_dir:
        Directory for the intermediate live-edge pair stores (defaults to the
        directory of ``out_path``).  Each sample store is deleted as soon as
        its SCCs are folded in, so at most one is on disk at a time.
    chunk_edges:
        Streaming chunk size; bounds resident memory per pass.
    keep_sample_stores:
        Retain the sampled pair stores (debugging/tests).
    """
    if r < 0:
        raise CoarseningError("r must be non-negative")
    rng = ensure_rng(rng)
    out_path = os.fspath(out_path)
    if work_dir is None:
        work_dir = os.path.dirname(out_path) or "."
    n = source.n
    stages = StageTimes()
    with span("coarsen_sublinear", r=r, n=n, m=source.m):
        t0 = time.perf_counter()

        # ---- First stage: P_r by streaming sampling + semi-external SCC ----
        partition = Partition.trivial(n)
        stream_passes = 0
        for i in range(r):
            sample_path = os.path.join(work_dir, f".live_edge_{i}.pairs")
            with stages.stage(STAGE_SAMPLE, round=i):
                sample = PairStore.create(sample_path, n)
                for tails, heads, probs in source.iter_chunks(chunk_edges):
                    keep = rng.random(probs.size) < probs
                    if keep.any():
                        sample.append(tails[keep], heads[keep])
            with stages.stage(STAGE_SCC, round=i):
                labels, scc_stats = semi_external_scc_labels(
                    sample, chunk_edges=chunk_edges, return_stats=True
                )
                stream_passes += scc_stats.stream_passes
            with stages.stage(STAGE_MEET, round=i):
                partition = partition.meet(Partition(labels, canonical=False))
            if not keep_sample_stores:
                sample.delete()
        t1 = time.perf_counter()

        # ---- Second stage: build W, w, pi in memory; stream to disk ----
        with stages.stage(STAGE_CONTRACT):
            pi = partition.labels
            n_coarse = partition.n_blocks
            weights = np.bincount(pi, minlength=n_coarse).astype(np.int64)
            out, f_prime = _contract_streaming(
                source, out_path, pi, n_coarse, weights, chunk_edges
            )
        t2 = time.perf_counter()

    inc("coarsen.runs")
    inc("coarsen.samples", r)
    stats = CoarsenStats(
        r=r,
        first_stage_seconds=t1 - t0,
        second_stage_seconds=t2 - t1,
        input_vertices=n,
        input_edges=source.m,
        output_vertices=n_coarse,
        output_edges=out.m,
        stage_seconds=stages.as_dict(),
        extras={
            "f_prime_edges": f_prime,
            "scc_stream_passes": stream_passes,
            "bytes_read": source.bytes_read,
            "bytes_written": out.bytes_written,
        },
    )
    return SublinearResult(
        store=out, weights=weights, pi=pi.copy(), partition=partition, stats=stats
    )


def _contract_streaming(
    source: TripletStore,
    out_path: str,
    pi: np.ndarray,
    n_coarse: int,
    weights: np.ndarray,
    chunk_edges: int,
) -> tuple[TripletStore, int]:
    """Stream the second stage of Algorithm 2; returns ``(out, |F'|)``."""
    singleton = weights == 1
    out = TripletStore.create(out_path, n_coarse)
    # Aggregation table only for F' = coarse edges touching a non-singleton.
    agg: dict[int, float] = {}
    for tails, heads, probs in source.iter_chunks(chunk_edges):
        cu, cv = pi[tails], pi[heads]
        cross = cu != cv
        cu, cv, p = cu[cross], cv[cross], probs[cross]
        direct = singleton[cu] & singleton[cv]
        if direct.any():
            # q == p for singleton-singleton bundles (each is a single edge).
            out.append(cu[direct], cv[direct], p[direct])
        rest = ~direct
        if rest.any():
            keys = cu[rest] * n_coarse + cv[rest]
            with np.errstate(divide="ignore"):
                log_miss = np.log1p(-p[rest])
            uniq, inverse = np.unique(keys, return_inverse=True)
            sums = np.zeros(uniq.size, dtype=np.float64)
            np.add.at(sums, inverse, log_miss)
            for key, s in zip(uniq.tolist(), sums.tolist()):
                agg[key] = agg.get(key, 0.0) + s
    if agg:
        # Sorted key order makes the on-disk edge order canonical instead of
        # inheriting the (deterministic but chunking-dependent) dict
        # insertion order.
        keys = np.fromiter(sorted(agg.keys()), dtype=np.int64, count=len(agg))
        sums = np.fromiter((agg[k] for k in keys.tolist()),
                           dtype=np.float64, count=len(agg))
        q = -np.expm1(sums)
        q = np.clip(q, np.nextafter(0.0, 1.0), 1.0)
        out.append(keys // n_coarse, keys % n_coarse, q)
    return out, len(agg)
