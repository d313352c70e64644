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
    "block_subgraphs",
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


#: A sample's coins are drawn in about ``m / _CHUNKS`` coins at a time, and
#: never fewer than ``_MIN_CHUNK``, so a small block draws in one piece.
_CHUNKS = 16
_MIN_CHUNK = 1 << 12


def _skip_doubles(rng: np.random.Generator, count: int,
                  buffer: np.ndarray) -> None:
    """Move ``rng`` past ``count`` uniform doubles without reading them.

    A PCG64 stream jumps there with ``advance`` (one double is one 64-bit
    step; ``tests/test_reliability.py`` pins the equivalence), keeping the
    buffered 32-bit half that ``advance`` would drop.  Any other bit
    generator draws the doubles into ``buffer`` and discards them.
    """
    if count <= 0:
        return
    rng = ensure_rng(rng)
    bit_generator = rng.bit_generator
    if type(bit_generator) is np.random.PCG64:
        before = bit_generator.state
        bit_generator.advance(count)
        if before["has_uint32"]:
            after = bit_generator.state
            after["has_uint32"] = before["has_uint32"]
            after["uinteger"] = before["uinteger"]
            bit_generator.state = after
        return
    while count > 0:
        step = min(count, buffer.size)
        rng.random(out=buffer[:step])
        count -= step


def estimate_reliability(
    graph: InfluenceGraph, n_samples: int = 10_000, rng=None
) -> float:
    """Monte-Carlo estimate of ``Rel(G)``.

    Every sample owns exactly ``m`` consecutive doubles of ``rng`` (its
    keep-mask ``rng.random(m) < probs``), whatever its outcome, so callers
    sharing ``rng`` (:func:`reliability_product` over several blocks) see
    the same stream.  A strongly connected sample needs every vertex to
    keep a live out-edge and a live in-edge.  The coins are drawn in CSR
    order a chunk at a time, and after each chunk the rows it completed are
    tested for a live out-edge: at the first dead row the sample is
    rejected and the rest of its coins are skipped unread
    (:func:`_skip_doubles`; counter ``reliability.coins_skipped``).  Only a
    sample passing both degree tests builds a CSR and runs an SCC pass.
    """
    if graph.n <= 1:
        return 1.0
    rng = ensure_rng(rng)
    m, indptr, probs = graph.m, graph.indptr, graph.probs
    chunk = max(-(-m // _CHUNKS), _MIN_CHUNK)
    draws = np.empty(min(chunk, m), dtype=np.float64)
    starts = indptr[:-1]
    if not (np.diff(indptr) > 0).all() or not (
            np.bincount(graph.heads, minlength=graph.n) > 0).all():
        # A source or sink vertex: no sample is strongly connected.
        _skip_doubles(rng, n_samples * m, draws)
        inc("reliability.coins_skipped", n_samples * m)
        return 0.0
    # One step per chunk [lo, hi): the rows [row, upto) whose last edge it
    # draws, as their edge span [first, last) and reduceat offsets.
    plan = []
    row = 0
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        upto = int(np.searchsorted(indptr[1:], hi, side="right"))
        first, last = int(indptr[row]), int(indptr[upto])
        plan.append((lo, hi, first, last,
                     starts[row:upto] - first if upto > row else None))
        row = upto
    keep = np.empty(m, dtype=bool)
    live_in = np.empty(graph.n, dtype=bool)
    hits = skipped = 0
    for _ in range(n_samples):
        inc("sample.live_edge_graphs")
        for lo, hi, first, last, offsets in plan:
            rng.random(out=draws[:hi - lo])
            np.less(draws[:hi - lo], probs[lo:hi], out=keep[lo:hi])
            if offsets is not None and not np.logical_or.reduceat(
                    keep[first:last], offsets).all():
                _skip_doubles(rng, m - hi, draws)
                skipped += m - hi
                break
        else:
            live_in[:] = False
            live_in[graph.heads[keep]] = True
            if not live_in.all():
                continue
            labels = scc_labels(*live_edge_csr_from_mask(graph, keep))
            if labels.max(initial=0) == 0:
                hits += 1
    inc("reliability.coins_skipped", skipped)
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


def block_subgraphs(graph: InfluenceGraph,
                    partition: Partition) -> list[InfluenceGraph]:
    """The induced subgraphs ``G[C_j]`` of the partition's non-singleton
    blocks, in :meth:`~repro.partition.Partition.non_singleton_blocks`
    order — what :func:`reliability_product` estimates over."""
    return [graph.induced_subgraph(block)
            for block in partition.non_singleton_blocks()]


def reliability_product(
    graph: InfluenceGraph,
    partition: Partition,
    n_samples: int = 2_000,
    rng=None,
    exact_edge_limit: int = 16,
    subgraphs: "list[InfluenceGraph] | None" = None,
) -> float:
    """Estimate ``prod_j Rel(G[C_j])`` over the partition's blocks.

    Singleton blocks have reliability exactly 1 and are skipped, so the cost
    scales with the non-singleton blocks only.  Blocks whose induced subgraph
    has at most ``exact_edge_limit`` edges are computed exactly.
    ``subgraphs`` are the blocks' :func:`block_subgraphs` when the caller
    has cut them already (the same values; the cut is then not repeated).
    """
    rng = ensure_rng(rng)
    if subgraphs is None:
        subgraphs = block_subgraphs(graph, partition)
    product = 1.0
    for sub in subgraphs:
        if sub.m <= exact_edge_limit:
            product *= exact_reliability(sub)
        else:
            product *= estimate_reliability(sub, n_samples=n_samples, rng=rng)
    return product
