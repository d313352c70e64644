"""Frontier machinery for the vectorised FW-BW SCC kernel.

The moves :mod:`repro.scc.fwbw` plays on every round — scratch-dedup
frontier BFS, trim peels, coloring rounds, bucket relabels — each as a
whole-frontier numpy operation, with no per-vertex Python anywhere.

All functions take the caller's ``stats`` object duck-typed on the
counter attributes they bump (``bfs_passes``, ``trim_waves``,
``color_passes``); :class:`repro.scc.fwbw.FwbwStats` qualifies.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bucket_ids",
    "color_round",
    "csr_of",
    "decrement_degrees",
    "dedup",
    "frontier_bfs",
    "gather",
    "resolve",
    "trim_peel",
]

# Dense-counting threshold for ``decrement_degrees``: ``np.subtract.at``
# pays a high per-element constant (unbuffered fancy indexing), while a
# ``bincount`` subtraction pays O(domain) but streams at memcpy speed.
# Counting wins once the update set is a non-trivial fraction of the
# domain; tiny late-wave updates stay on ``subtract.at``.
_COUNT_FRACTION = 8


def gather(indptr: np.ndarray, heads: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """All CSR neighbours of ``verts``, concatenated (duplicates included).

    Zero-degree vertices need no masking: ``repeat`` with a zero count
    drops them from the offset expansion on its own.
    """
    starts = indptr[verts]
    counts = indptr[verts + 1] - starts
    ends = counts.cumsum()
    total = int(ends[-1]) if counts.size else 0
    if total == 0:
        return np.empty(0, dtype=heads.dtype)
    offsets = (starts - (ends - counts)).repeat(counts)
    return heads[np.arange(total, dtype=counts.dtype) + offsets]


def csr_of(tails: np.ndarray, heads: np.ndarray, n: int,
           dtype=np.int64) -> np.ndarray:
    """``indptr`` for an edge list already sorted by tail."""
    indptr = np.zeros(n + 1, dtype=dtype)
    indptr[1:] = np.cumsum(np.bincount(tails, minlength=n))
    return indptr


def resolve(ids: "np.ndarray | None", verts: np.ndarray) -> np.ndarray:
    """Map compact-domain vertices to original ids (``None`` = identity).

    Before the first domain compaction the mapping is the identity, so the
    kernels pass ``None`` and skip a full gather on every trim wave of the
    heaviest round.
    """
    return verts if ids is None else ids[verts]


def dedup(verts: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Distinct values of ``verts`` via a scratch write-then-readback pass —
    O(len) with no sort or hash, the frontier dedup the BFS lives on."""
    pos = np.arange(verts.size, dtype=scratch.dtype)
    scratch[verts] = pos
    return verts[scratch[verts] == pos]


def bucket_ids(values: np.ndarray, domain: int) -> "tuple[np.ndarray, int]":
    """Dense ids (arbitrary but consistent order) for ``values`` < domain."""
    mark = np.zeros(domain, dtype=np.int64)
    mark[values] = 1
    dense = np.cumsum(mark) - 1
    return dense[values], int(dense[-1]) + 1 if values.size else 0


def decrement_degrees(deg: np.ndarray, targets: np.ndarray, cur_n: int) -> None:
    """``deg[t] -= 1`` for every occurrence of ``t`` in ``targets``.

    Large update sets are counted densely (one ``bincount`` at memcpy
    speed); small ones use ``np.subtract.at`` so late trim waves don't
    pay O(domain) each.  Exact either way.
    """
    if targets.size * _COUNT_FRACTION >= cur_n:
        deg -= np.bincount(targets, minlength=cur_n)
    else:
        np.subtract.at(deg, targets, 1)


def frontier_bfs(
    indptr: np.ndarray,
    heads: np.ndarray,
    seeds: np.ndarray,
    part: np.ndarray,
    scratch: np.ndarray,
    stats,
) -> np.ndarray:
    """Reachability from ``seeds`` over live edges, never through decided
    vertices (``part < 0``) — trimmed vertices still sit in the CSR arrays
    but are not legal path interior for the induced-subgraph semantics.

    Decided vertices are pre-marked reached so the per-pass frontier filter
    is a single mask: they can never enter a frontier, which implements the
    no-decided-interior rule.  Callers must therefore only read ``reach``
    entries of undecided vertices (every call site restricts to
    ``part >= 0``)."""
    reach = part < 0
    reach[seeds] = True
    frontier = seeds
    while frontier.size:
        stats.bfs_passes += 1
        nbrs = gather(indptr, heads, frontier)
        if nbrs.size == 0:
            break
        nbrs = nbrs[~reach[nbrs]]
        if nbrs.size == 0:
            break
        frontier = dedup(nbrs, scratch)
        reach[frontier] = True
    return reach


def trim_peel(
    fip: np.ndarray,
    fh: np.ndarray,
    rip: np.ndarray,
    rh: np.ndarray,
    part: np.ndarray,
    comp: np.ndarray,
    ids: "np.ndarray | None",
    active: np.ndarray,
    n_comp: int,
    scratch: np.ndarray,
    stats,
) -> int:
    """Frontier peel of zero-in/out-degree vertices (singleton SCCs).

    Mutates ``part`` (decided vertices go to -1) and ``comp`` in place;
    returns the updated component counter.  Resolves the whole tree/DAG
    fringe of a live-edge sample in O(n + m) total work.

    Both orientations are merged into one *combined* adjacency before the
    wave loop — out-edges store their head as-is, in-edges store their tail
    biased by ``cur_n`` — so each wave pays a single neighbour gather
    instead of two, and the candidate set needs no concatenation.
    """
    cur_n = part.size
    outdeg = np.diff(fip)
    indeg = np.diff(rip)
    if active.size == cur_n:
        wave = np.flatnonzero((outdeg == 0) | (indeg == 0))
    else:
        wave = active[(outdeg[active] == 0) | (indeg[active] == 0)]
    if wave.size == 0:
        return n_comp

    # Combined both-orientation adjacency, built once per call.  The bias
    # needs headroom for 2 * cur_n, so widen when the edge dtype is too
    # narrow for it (the same overflow bound the caller's int32 gate uses).
    enc_dtype = (fh.dtype if 2 * cur_n < np.iinfo(fh.dtype).max
                 else np.int64)
    cip = np.zeros(cur_n + 1, dtype=np.int64)
    np.cumsum(outdeg + indeg, out=cip[1:])
    pos = np.arange(fh.size, dtype=np.int64)
    pos += np.repeat(cip[:-1] - fip[:-1], outdeg)
    enc = np.empty(int(fh.size) + int(rh.size), dtype=enc_dtype)
    enc[pos] = fh
    pos = np.arange(rh.size, dtype=np.int64)
    pos += np.repeat(cip[:-1] + outdeg - rip[:-1], indeg)
    enc[pos] = rh.astype(enc_dtype, copy=False) + cur_n
    del pos

    while wave.size:
        stats.trim_waves += 1
        comp[resolve(ids, wave)] = n_comp + np.arange(wave.size,
                                                      dtype=np.int64)
        n_comp += int(wave.size)
        part[wave] = -1
        nb = gather(cip, enc, wave)
        rev = nb >= cur_n
        nb[rev] -= cur_n
        decrement_degrees(indeg, nb[~rev], cur_n)  # heads of out-edges
        decrement_degrees(outdeg, nb[rev], cur_n)  # tails of in-edges
        cand = nb[part[nb] >= 0]
        if cand.size:
            cand = dedup(cand, scratch)
        wave = cand[(outdeg[cand] == 0) | (indeg[cand] == 0)]
    return n_comp


def color_round(
    n: int,
    ft: np.ndarray,
    fh: np.ndarray,
    rt: np.ndarray,
    rh: np.ndarray,
    part: np.ndarray,
    comp: np.ndarray,
    ids: "np.ndarray | None",
    n_comp: int,
    scratch: np.ndarray,
    stats,
) -> "tuple[int, int]":
    """One coloring round: resolve every color root's SCC simultaneously.

    Forward max-id propagation runs to fixpoint pull-style — each pass is a
    single segmented ``np.maximum.reduceat`` over the reverse CSR.  A vertex
    that keeps its own id is a *root*; a backward BFS from all roots over
    same-color edges collects each root's SCC exactly (any vertex that
    reaches its color root is also reached by it, by color maximality).
    Returns the updated ``(n_comp, n_parts)``.
    """
    # Trim may have decided vertices since the round's edge refresh; drop
    # their edges before propagating.
    live = (part[ft] >= 0) & (part[fh] >= 0)
    ft, fh = ft[live], fh[live]
    rlive = (part[rt] >= 0) & (part[rh] >= 0)
    rt, rh = rt[rlive], rh[rlive]

    color = np.arange(n, dtype=part.dtype)
    rip = csr_of(rt, rh, n, dtype=part.dtype)
    nzv = np.flatnonzero(np.diff(rip) > 0)  # vertices with live in-edges
    starts = rip[nzv]
    while nzv.size:
        stats.color_passes += 1
        seg_max = np.maximum.reduceat(color[rh], starts)
        upd = seg_max > color[nzv]
        if not upd.any():
            break
        color[nzv[upd]] = seg_max[upd]

    active = np.flatnonzero(part >= 0)
    roots = active[color[active] == active]

    # Backward BFS from all roots along same-color edges = each root's SCC.
    same = color[rt] == color[rh]
    rt2, rh2 = rt[same], rh[same]
    reach = frontier_bfs(csr_of(rt2, rh2, n, dtype=part.dtype), rh2, roots,
                         part, scratch, stats)
    # ``reach`` pre-marks decided vertices (see frontier_bfs); membership is
    # only meaningful on the undecided domain.
    members = np.flatnonzero(reach & (part >= 0))
    new_id, n_new = bucket_ids(color[members], n)
    comp[resolve(ids, members)] = n_comp + new_id
    n_comp += n_new
    part[members] = -1

    # Remainders regroup by color class (color classes never straddle
    # parts, and SCCs never straddle color classes).
    remaining = np.flatnonzero(part >= 0)
    if remaining.size:
        new_part, n_parts = bucket_ids(color[remaining], n)
        part[remaining] = new_part
    else:
        n_parts = 0
    return n_comp, n_parts
