"""Reference implementations the library is cross-checked against.

None of these is reachable from the library:

* :func:`scipy_scc_labels` — ``scipy.sparse.csgraph``'s strong components
  (scipy is a test-suite oracle, never a library dependency);
* :func:`meet_labels_hash` — the paper's Algorithm 5 verbatim, a single
  scan with a hash table;
* :func:`reference_fold` — the r-robust fold ``P_i = P_{i-1} ∧ SCC(G_i)``
  over the same live-edge samples :func:`repro.core.robust_scc_partition`
  draws, with a reference SCC routine per sample and no early exit.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.diffusion import sample_live_edge_csr
from repro.errors import PartitionError
from repro.graph import InfluenceGraph
from repro.partition import Partition
from repro.rng import ensure_rng
from repro.scc import kosaraju_scc_labels, tarjan_scc_labels

__all__ = [
    "REFERENCE_SCC",
    "meet_labels_hash",
    "reference_fold",
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
