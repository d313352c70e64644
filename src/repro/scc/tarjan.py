"""Iterative Tarjan strongly-connected-components (Tarjan 1972, ref. [45]).

The paper names Tarjan's algorithm as Algorithm 1's in-memory SCC routine;
here it is the reference the vectorised FW-BW kernel (:mod:`repro.scc.fwbw`,
what :func:`repro.scc.scc_labels` runs) is checked against.  It runs in
O(n + m) time and O(n) auxiliary space, with an explicit work stack instead
of recursion so million-vertex graphs do not hit Python's recursion limit.

The function operates directly on CSR arrays rather than a graph object so it
can be applied to sampled live-edge graphs without wrapping them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["tarjan_scc_labels"]


def tarjan_scc_labels(indptr: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Label every vertex with its SCC id.

    Parameters
    ----------
    indptr, heads:
        CSR adjacency of a directed graph on ``len(indptr) - 1`` vertices.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of component labels in ``[0, n_components)``.  Labels
        are assigned in reverse-topological completion order (Tarjan's order);
        callers needing canonical labels should relabel via
        :meth:`repro.partition.Partition.canonical`.
    """
    n = int(indptr.size - 1)
    # Python lists are markedly faster than numpy arrays for the per-element
    # access pattern of the DFS inner loop.
    indptr_l = indptr.tolist()
    heads_l = heads.tolist()
    disc = [-1] * n  # discovery index, -1 = unvisited
    low = [0] * n
    comp = [-1] * n
    on_stack = bytearray(n)
    scc_stack: list[int] = []
    counter = 0
    n_comp = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        work = [(root, indptr_l[root])]
        disc[root] = low[root] = counter
        counter += 1
        scc_stack.append(root)
        on_stack[root] = 1
        while work:
            v, ptr = work[-1]
            if ptr < indptr_l[v + 1]:
                work[-1] = (v, ptr + 1)
                w = heads_l[ptr]
                if disc[w] == -1:
                    disc[w] = low[w] = counter
                    counter += 1
                    scc_stack.append(w)
                    on_stack[w] = 1
                    work.append((w, indptr_l[w]))
                elif on_stack[w] and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == disc[v]:
                    while True:
                        w = scc_stack.pop()
                        on_stack[w] = 0
                        comp[w] = n_comp
                        if w == v:
                            break
                    n_comp += 1
    return np.asarray(comp, dtype=np.int64)
