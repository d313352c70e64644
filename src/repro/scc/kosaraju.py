"""Kosaraju's two-pass SCC algorithm.

A second reference implementation beside Tarjan: property tests
cross-validate the two and the FW-BW kernel on random graphs, and the
ablation benchmark (``bench_ablation_scc``) compares their constants.
Iterative, O(n + m).
"""

from __future__ import annotations

import numpy as np

__all__ = ["kosaraju_scc_labels"]


def _reverse_csr(indptr: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transpose a CSR adjacency (counting sort on heads)."""
    n = indptr.size - 1
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = np.argsort(heads, kind="stable")
    rev_indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(rev_indptr, heads + 1, 1)
    np.cumsum(rev_indptr, out=rev_indptr)
    return rev_indptr, tails[order]


def kosaraju_scc_labels(indptr: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Label every vertex with its SCC id (Kosaraju's algorithm).

    Pass 1: iterative DFS on G recording finish order.  Pass 2: DFS on the
    transpose in reverse finish order; each tree is one SCC.
    """
    n = int(indptr.size - 1)
    indptr_l = indptr.tolist()
    heads_l = heads.tolist()

    # Pass 1 — finish order via iterative DFS.
    visited = bytearray(n)
    finish: list[int] = []
    for root in range(n):
        if visited[root]:
            continue
        visited[root] = 1
        stack = [(root, indptr_l[root])]
        while stack:
            v, ptr = stack[-1]
            if ptr < indptr_l[v + 1]:
                stack[-1] = (v, ptr + 1)
                w = heads_l[ptr]
                if not visited[w]:
                    visited[w] = 1
                    stack.append((w, indptr_l[w]))
            else:
                stack.pop()
                finish.append(v)

    # Pass 2 — collect trees on the transpose.
    rev_indptr, rev_heads = _reverse_csr(indptr, heads)
    rev_indptr_l = rev_indptr.tolist()
    rev_heads_l = rev_heads.tolist()
    comp = [-1] * n
    n_comp = 0
    for v in reversed(finish):
        if comp[v] != -1:
            continue
        comp[v] = n_comp
        stack = [v]
        while stack:
            u = stack.pop()
            for ptr in range(rev_indptr_l[u], rev_indptr_l[u + 1]):
                w = rev_heads_l[ptr]
                if comp[w] == -1:
                    comp[w] = n_comp
                    stack.append(w)
        n_comp += 1
    return np.asarray(comp, dtype=np.int64)
