"""BFS reachability on CSR digraphs.

``R_G(S)`` — the set (and weight) of vertices reachable from a seed set in a
deterministic graph — is the quantity the random-graph interpretation of the
IC model averages over (Eq. 2).  The frontier expansion is vectorised: each
BFS level gathers all out-edges of the frontier in one numpy pass.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gather_ranges", "reachable_mask", "reachable_weight",
           "sorted_distinct"]


def gather_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate the integer ranges ``[starts[i], ends[i])`` vectorially.

    This is the core CSR-slice gather used by every BFS/diffusion loop:
    given frontier vertices' edge ranges it yields the flat edge indices.
    Range ``i`` occupies output slots ``[offset_i, offset_i + count_i)``,
    so slot ``j`` holds ``j + (starts[i] - offset_i)``: one ``arange`` plus
    one ``repeat`` of the per-range shift (empty ranges repeat zero times).
    """
    counts = ends - starts
    offsets = np.cumsum(counts, dtype=np.int64)
    total = int(offsets[-1]) if offsets.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets -= counts
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(starts - offsets, counts)
    return out


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values`` in ascending order, sorting in place.

    Equal to ``np.unique(values)`` for a 1-D integer array, but by a sort
    plus an adjacent-difference mask: on numpy >= 2.3 ``np.unique`` takes a
    hash-table path that is several times slower than sorting for BFS
    frontiers.  Every frontier loop dedupes through here, and the result
    stays sorted because the frontier order fixes the order of the coin
    flips drawn for it.  ``values`` is reordered; pass a copy to keep it.
    """
    values.sort()
    if values.size < 2:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return np.compress(keep, values)


def reachable_mask(
    indptr: np.ndarray, heads: np.ndarray, sources: np.ndarray
) -> np.ndarray:
    """Boolean mask of vertices reachable from ``sources`` (inclusive)."""
    n = indptr.size - 1
    visited = np.zeros(n, dtype=bool)
    frontier = sorted_distinct(np.asarray(sources, dtype=np.int64).flatten())
    visited[frontier] = True
    while frontier.size:
        edge_idx = gather_ranges(indptr[frontier], indptr[frontier + 1])
        if edge_idx.size == 0:
            break
        targets = heads[edge_idx]
        new = targets[~visited[targets]]
        if new.size == 0:
            break
        frontier = sorted_distinct(new)
        visited[frontier] = True
    return visited


def reachable_weight(
    indptr: np.ndarray,
    heads: np.ndarray,
    sources: np.ndarray,
    weights: np.ndarray | None = None,
) -> float:
    """``R_G(S)``: count (or total weight) of vertices reachable from ``S``."""
    mask = reachable_mask(indptr, heads, sources)
    if weights is None:
        return float(mask.sum())
    return float(weights[mask].sum())
