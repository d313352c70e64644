"""Reference implementations the library is cross-checked against.

None of these is reachable from the library:

* :func:`scipy_scc_labels` — ``scipy.sparse.csgraph``'s strong components
  (scipy is a test-suite oracle, never a library dependency);
* :func:`meet_labels_hash` — the paper's Algorithm 5 verbatim, a single
  scan with a hash table;
* :func:`reference_fold` — the r-robust fold ``P_i = P_{i-1} ∧ SCC(G_i)``
  over the same live-edge samples :func:`repro.core.robust_scc_partition`
  draws, with a reference SCC routine per sample and no early exit;
* :func:`reference_parallel_fold` — Algorithm 6's first stage run
  serially: the same spawned per-worker seeds as
  :func:`repro.core.parallel.coarsen_influence_graph_parallel`, one
  :func:`repro.core.robust_scc_partition` per worker, and a left-fold meet
  instead of the pooled meet tree;
* :func:`reference_sketch_fold` — the bottom-k sketch fold that
  :meth:`repro.sketch.InfluenceOracle._fold` replaced: one key sort, a
  ``vertex`` array and ``(n, k)`` point-estimate temporaries all held at
  once;
* :func:`lexsort_combine` and :func:`lexsort_csr` — the two-key
  ``np.lexsort`` + unbuffered ``np.add.at`` builds that
  :func:`repro.graph.combine_parallel_edges` and
  :meth:`repro.graph.InfluenceGraph.from_edges` replaced with one packed
  key.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core import robust_scc_partition, split_rounds
from repro.diffusion import sample_live_edge_csr
from repro.errors import PartitionError
from repro.graph import InfluenceGraph
from repro.partition import Partition
from repro.rng import ensure_rng, spawn_rngs
from repro.scc import kosaraju_scc_labels, tarjan_scc_labels

__all__ = [
    "REFERENCE_SCC",
    "lexsort_combine",
    "lexsort_csr",
    "meet_labels_hash",
    "reference_fold",
    "reference_parallel_fold",
    "reference_sketch_fold",
    "scipy_scc_labels",
]


def scipy_scc_labels(indptr: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """SCC labels from ``scipy.sparse.csgraph.connected_components``."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    n = indptr.size - 1
    data = np.ones(heads.size, dtype=np.int8)
    matrix = csr_array((data, heads, indptr), shape=(n, n))
    _, labels = connected_components(matrix, directed=True, connection="strong")
    return labels.astype(np.int64)


#: The reference SCC routines by name, for parametrized cross-checks.
REFERENCE_SCC: "dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]" = {
    "tarjan": tarjan_scc_labels,
    "kosaraju": kosaraju_scc_labels,
    "scipy": scipy_scc_labels,
}


def meet_labels_hash(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Algorithm 5 verbatim: single scan with a hash table.

    Produces canonical (first-occurrence-numbered) labels directly.
    """
    if p.shape != q.shape:
        raise PartitionError("partitions must cover the same vertex set")
    table: dict[tuple[int, int], int] = {}
    out = np.empty(p.size, dtype=np.int64)
    next_label = 0
    p_list = p.tolist()
    q_list = q.tolist()
    for v in range(p.size):
        pair = (p_list[v], q_list[v])
        label = table.get(pair)
        if label is None:
            label = next_label
            table[pair] = label
            next_label += 1
        out[v] = label
    return out


def reference_fold(
    graph: InfluenceGraph,
    r: int,
    rng=None,
    scc: "Callable[[np.ndarray, np.ndarray], np.ndarray]" = tarjan_scc_labels,
) -> Partition:
    """The r-robust partition folded with a reference SCC routine and the
    hash meet, over the samples ``robust_scc_partition(graph, r, rng=rng)``
    draws."""
    rng = ensure_rng(rng)
    partition = Partition.trivial(graph.n)
    for _ in range(r):
        indptr, heads = sample_live_edge_csr(graph, rng)
        blocks = Partition(scc(indptr, heads))
        partition = Partition(meet_labels_hash(partition.labels, blocks.labels))
    return partition


def reference_parallel_fold(graph: InfluenceGraph, r: int, workers: int,
                            rng=None) -> Partition:
    """Algorithm 6's r-robust partition folded serially: worker ``t`` of
    ``split_rounds(r, workers)`` builds its ``r_t``-robust partition from
    its spawned seed, and the worker partitions meet left to right."""
    rounds = split_rounds(r, workers)
    seeds = [int(c.integers(0, 2**62))
             for c in spawn_rngs(rng, len(rounds))]
    partition = robust_scc_partition(graph, rounds[0], rng=seeds[0])
    for r_t, seed in zip(rounds[1:], seeds[1:]):
        partition = partition.meet(robust_scc_partition(graph, r_t, rng=seed))
    return partition


def reference_sketch_fold(
    keys: np.ndarray, order: np.ndarray, ranks: np.ndarray,
    weights: np.ndarray, r: int, k: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Per-vertex bottom-k sketches ``(ranks, items, counts,
    point_estimates)`` from the build's recorded insertion ``keys``
    (``vertex * (r * n) + position``, ``position`` indexing ``order``)."""
    n = weights.size
    keys = np.sort(keys)
    vertices = keys // order.size
    items = order[keys - vertices * order.size]
    item_ranks = ranks[items]
    # Position of each insertion within its vertex's sorted run.
    starts = np.searchsorted(vertices, np.arange(n), side="left")
    offsets = np.arange(vertices.size) - starts[vertices]
    take = offsets < k
    out_ranks = np.full((n, k), np.inf, dtype=np.float64)
    out_items = np.full((n, k), -1, dtype=np.int64)
    out_ranks[vertices[take], offsets[take]] = item_ranks[take]
    out_items[vertices[take], offsets[take]] = items[take]
    counts = np.minimum(
        np.searchsorted(vertices, np.arange(n), side="right") - starts, k
    ).astype(np.int64)
    weights = weights.astype(np.float64)
    full = counts >= k
    item_weights = np.where(out_items >= 0, weights[out_items % n], 0.0)
    exact = item_weights.sum(axis=1)
    tau = out_ranks[:, k - 1]
    head_weights = item_weights[:, : k - 1]
    with np.errstate(invalid="ignore"):
        inclusion = -np.expm1(-head_weights * tau[:, None])
    conditioned = np.divide(
        head_weights, inclusion,
        out=np.zeros_like(head_weights), where=inclusion > 0,
    ).sum(axis=1)
    point_estimates = np.where(full, conditioned, exact) / r
    return out_ranks, out_items, counts, point_estimates


def lexsort_combine(
    tails: np.ndarray, heads: np.ndarray, probs: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Noisy-or merge of parallel edges by lexsort and ``np.add.at``.

    Every group, single copies included, goes through
    ``-expm1(sum log1p(-p))``.
    """
    if tails.size == 0:
        return tails, heads, probs
    order = np.lexsort((heads, tails))
    tails, heads, probs = tails[order], heads[order], probs[order]
    boundary = np.empty(tails.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (tails[1:] != tails[:-1]) | (heads[1:] != heads[:-1])
    group = np.cumsum(boundary) - 1
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-probs)
    sum_log = np.zeros(int(group[-1]) + 1, dtype=np.float64)
    np.add.at(sum_log, group, log_miss)
    combined = np.clip(-np.expm1(sum_log), np.nextafter(0.0, 1.0), 1.0)
    return tails[boundary], heads[boundary], combined


def lexsort_csr(
    n: int, tails: np.ndarray, heads: np.ndarray, probs: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(indptr, heads, probs)`` in CSR order by lexsort and ``np.add.at``."""
    order = np.lexsort((heads, tails))
    tails, heads, probs = tails[order], heads[order], probs[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, tails + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, heads, probs
