"""Strongly connected reliability (Eq. 13/14) and robustness diagnostics.

``Rel(G)`` is the probability that a live-edge sample of ``G`` is strongly
connected.  Exact computation is #P-hard [2, 47], so this module offers:

* :func:`exact_reliability` — brute-force subset enumeration for graphs with
  at most ~20 edges (tests, the paper's worked example);
* :func:`estimate_reliability` — Monte-Carlo estimation;
* :func:`max_scc_rate_samples` — the distribution of the *maximum SCC rate*
  (largest-SCC size / n) of live-edge samples, Figure 8's quantity;
* :func:`reliability_product` — the factor ``prod_j Rel(G[C_j])`` appearing
  in Theorems 4.6, 6.1 and 6.2 (singleton blocks contribute exactly 1).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..diffusion.live_edge import (
    live_edge_csr_from_mask,
    sample_live_edge_csr,
)
from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..obs import inc
from ..partition.partition import Partition
from ..rng import ensure_rng
from ..scc import scc_labels

__all__ = [
    "exact_reliability",
    "estimate_reliability",
    "max_scc_rate_samples",
    "reliability_product",
]

_EXACT_EDGE_LIMIT = 22


def _is_strongly_connected(n: int, tails: np.ndarray, heads: np.ndarray) -> bool:
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, np.asarray(tails, dtype=np.int64) + 1, 1)
    np.cumsum(indptr, out=indptr)
    order = np.argsort(tails, kind="stable")
    labels = scc_labels(indptr, np.asarray(heads, dtype=np.int64)[order])
    return bool(labels.max(initial=0) == 0)


def exact_reliability(graph: InfluenceGraph) -> float:
    """Exact ``Rel(G)`` by enumerating all ``2^m`` edge subsets.

    Only feasible for tiny graphs (``m <= 22``); the worked example in the
    paper (``Rel(G[C_1]) = 0.88848``) is validated against this.
    """
    if graph.m > _EXACT_EDGE_LIMIT:
        raise AlgorithmError(
            f"exact reliability needs m <= {_EXACT_EDGE_LIMIT}, got {graph.m}"
        )
    if graph.n <= 1:
        return 1.0
    tails, heads, probs = graph.edge_arrays()
    total = 0.0
    for keep in itertools.product((False, True), repeat=graph.m):
        keep_arr = np.asarray(keep, dtype=bool)
        weight = float(
            np.prod(np.where(keep_arr, probs, 1.0 - probs))
        )
        if weight == 0.0:
            continue
        if _is_strongly_connected(graph.n, tails[keep_arr], heads[keep_arr]):
            total += weight
    return total


def estimate_reliability(
    graph: InfluenceGraph, n_samples: int = 10_000, rng=None
) -> float:
    """Monte-Carlo estimate of ``Rel(G)``.

    Every sample consumes exactly one ``rng.random(m)`` keep-mask, whatever
    its outcome, so callers sharing ``rng`` (:func:`reliability_product`
    over several blocks) see the same stream.  A strongly connected sample
    needs every vertex to keep a live out-edge and a live in-edge; samples
    failing that exact necessary condition — most samples of a large block
    — are rejected before any CSR is built or SCC pass run.
    """
    if graph.n <= 1:
        return 1.0
    rng = ensure_rng(rng)
    # Reused buffers: each draw is the ``rng.random(m) < probs`` of
    # :func:`~repro.diffusion.live_edge.sample_live_edge_mask`, without a
    # fresh ``m``-sized allocation per sample.
    draws = np.empty(graph.m, dtype=np.float64)
    keep = np.empty(graph.m, dtype=bool)
    live_in = np.empty(graph.n, dtype=bool)
    starts = graph.indptr[:-1]
    if not (np.diff(graph.indptr) > 0).all() or not (
            np.bincount(graph.heads, minlength=graph.n) > 0).all():
        # A source or sink vertex: no sample is strongly connected.
        for _ in range(n_samples):
            rng.random(out=draws)
        return 0.0
    hits = 0
    for _ in range(n_samples):
        rng.random(out=draws)
        np.less(draws, graph.probs, out=keep)
        inc("sample.live_edge_graphs")
        inc("sample.edges_kept", int(np.count_nonzero(keep)))
        if not np.logical_or.reduceat(keep, starts).all():
            continue
        live_in[:] = False
        live_in[graph.heads[keep]] = True
        if not live_in.all():
            continue
        labels = scc_labels(*live_edge_csr_from_mask(graph, keep))
        if labels.max(initial=0) == 0:
            hits += 1
    return hits / n_samples


def max_scc_rate_samples(
    graph: InfluenceGraph, n_samples: int = 1_000, rng=None
) -> np.ndarray:
    """Per-sample maximum SCC rates of live-edge samples (Figure 8).

    The maximum SCC rate of a deterministic graph is the size of its largest
    SCC divided by ``n``; the paper evaluates the distribution of this rate
    over live-edge samples of the largest r-robust SCC's induced subgraph.
    """
    rng = ensure_rng(rng)
    rates = np.empty(n_samples, dtype=np.float64)
    for i in range(n_samples):
        indptr, heads = sample_live_edge_csr(graph, rng)
        labels = scc_labels(indptr, heads)
        largest = int(np.bincount(labels).max())
        rates[i] = largest / graph.n
    return rates


def reliability_product(
    graph: InfluenceGraph,
    partition: Partition,
    n_samples: int = 2_000,
    rng=None,
    exact_edge_limit: int = 16,
) -> float:
    """Estimate ``prod_j Rel(G[C_j])`` over the partition's blocks.

    Singleton blocks have reliability exactly 1 and are skipped, so the cost
    scales with the non-singleton blocks only.  Blocks whose induced subgraph
    has at most ``exact_edge_limit`` edges are computed exactly.
    """
    rng = ensure_rng(rng)
    product = 1.0
    for block in partition.non_singleton_blocks():
        sub = graph.induced_subgraph(block)
        if sub.m <= exact_edge_limit:
            product *= exact_reliability(sub)
        else:
            product *= estimate_reliability(sub, n_samples=n_samples, rng=rng)
    return product
