"""Vectorised forward–backward (FW-BW) SCC with trimming and a coloring phase
for fragmented remainders.

The divide-and-conquer FW-BW method (Fleischer, Hendrickson & Pinar) picks a
pivot, computes its forward and backward reachable sets, finalises their
intersection as one SCC, and recurses on the three remainder sets — which is
ideal for an array runtime because every step is a whole-frontier operation:

* **trim** — vertices with zero in- or out-degree inside their part are
  singleton SCCs; a frontier peel resolves the whole tree/DAG fringe of a
  live-edge sample in O(n + m) total work;
* **multi-source frontier BFS** — one pivot per active part, all parts
  advanced simultaneously; frontier expansion is a single ``indptr``-diff /
  ``np.repeat`` gather plus an O(1)-per-element scratch dedup, no
  per-vertex Python;
* **three-way split** — the remainder of each part splits into
  forward-only, backward-only and untouched sub-parts (SCCs never straddle
  these), implemented as one bucket relabel;
* **domain compaction** — whenever the active set halves, the surviving
  vertices are renumbered into a dense domain (one monotone gather, so the
  edge lists stay sorted), which keeps every later round's cost
  proportional to the live subgraph instead of the original ``n``.  The
  first round typically resolves the giant SCC and trims the fringe, after
  which hundreds of cleanup rounds may each touch only a few hundred
  vertices.

The explicit work queue of the classic recursion is the ``part`` label
array: every active part is an outstanding work item, and one pass of the
round loop services all of them at once.  The whole-frontier primitives
(gather, scratch dedup, trim peel, coloring round) live in
:mod:`repro.scc._frontier`.

Pure FW-BW degenerates when a graph decomposes into *many* small SCCs (the
reciprocal-edge clusters of social-network samples): each round only peels a
few components per part and the decomposition tree gets deep.  Following the
Multistep design of Slota, Rajamanickam & Madduri (IPDPS'14), once the
decomposition has fragmented past a threshold the kernel switches to a
**coloring** round: propagate the maximum vertex id forward to fixpoint
(pull-based ``np.maximum.reduceat`` over the reverse CSR), take every vertex
that kept its own id as a root, and resolve every root's SCC simultaneously
with one backward BFS restricted to its color class.  Thousands of SCCs
finalise per round instead of O(parts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._frontier import (
    bucket_ids,
    color_round,
    csr_of,
    frontier_bfs,
    resolve,
    trim_peel,
)

__all__ = ["fwbw_scc_labels", "FwbwStats"]

# Switch from pivot rounds to coloring rounds once the decomposition has
# fragmented (many active parts) or stopped collapsing quickly (round
# count): coloring finalises one SCC per color root instead of one per
# part.  The exact values are uncritical: both phases are exact, the
# thresholds only trade constants.
_COLOR_PARTS = 32
_COLOR_ROUNDS = 3


@dataclass
class FwbwStats:
    """Work counters for one FW-BW run (observability + regression tests)."""

    rounds: int = 0
    bfs_passes: int = 0
    color_passes: int = 0
    trim_waves: int = 0
    processed_edges: int = 0  # live edges entering each round, summed


def fwbw_scc_labels(
    indptr: np.ndarray,
    heads: np.ndarray,
    return_stats: bool = False,
):
    """Label every vertex of a CSR digraph with its SCC id, vectorised.

    Parameters
    ----------
    indptr, heads:
        CSR adjacency of a directed graph on ``len(indptr) - 1`` vertices.
    return_stats:
        Also return a :class:`FwbwStats` with round/pass/work counters.

    Returns
    -------
    numpy.ndarray (and optionally :class:`FwbwStats`)
        ``int64`` SCC labels in ``[0, n_components)``.  Label numbering is
        implementation-defined; canonicalise via
        :class:`repro.partition.Partition` before comparing with a
        reference implementation.
    """
    n = int(indptr.size) - 1
    stats = FwbwStats()
    comp = np.full(max(n, 0), -1, dtype=np.int64)
    if n <= 0:
        return (comp, stats) if return_stats else comp

    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    # A 32-bit index domain halves the memory traffic of every gather and
    # edge filter, which wins ~2x once the working set spills out of
    # last-level cache; below that, numpy's index-to-intp conversion makes
    # int32 a net loss, so small graphs stay on the native width.
    m_in = int(indptr[-1])
    imax = np.iinfo(np.int32).max
    use32 = n + m_in >= 256_000 and n < imax and m_in < imax
    idx = np.int32 if use32 else np.int64
    heads = np.ascontiguousarray(heads, dtype=idx)
    tails = np.repeat(np.arange(n, dtype=idx), np.diff(indptr))
    keep = tails != heads  # self-loops never affect SCC membership
    if keep.all():
        ft, fh = tails, heads
    else:
        ft, fh = tails[keep], heads[keep]
    # Reverse orientation, sorted by head: the same boolean filters keep
    # both edge lists CSR-ordered for the rest of the run, so per-round CSR
    # rebuilds are a bincount + cumsum, never a sort.  Within-bucket order
    # is irrelevant for a CSR, so the default (unstable, faster) sort is
    # fine — this is the only sort in the whole run.
    order = np.argsort(fh)
    rt, rh = fh[order], ft[order]

    cur_n = n
    ids = None  # compact-domain vertex -> original; None = identity
    part = np.zeros(n, dtype=idx)  # active part id; -1 once decided
    scratch = np.empty(n, dtype=idx)  # dedup workspace, reused all run
    n_comp = 0
    n_parts = 1  # active part ids are always dense in [0, n_parts)

    while True:
        # Refresh the live edge lists: an edge survives while both endpoints
        # are undecided and in the same part.  The lists only ever shrink.
        # (Round one is a no-op — everything starts live in part 0.)
        if stats.rounds:
            pf, ph = part[ft], part[fh]
            live = (pf >= 0) & (pf == ph)
            ft, fh = ft[live], fh[live]
            pf, ph = part[rt], part[rh]
            rlive = (ph >= 0) & (ph == pf)
            rt, rh = rt[rlive], rh[rlive]

        active = np.flatnonzero(part >= 0)
        if active.size == 0:
            break

        # ---- domain compaction --------------------------------------------
        # Renumbering is monotone over the sorted ``active``, so both edge
        # lists stay CSR-ordered; amortised O(n + m) over the whole run.
        if active.size * 2 < cur_n:
            old2new = scratch  # safe: fully rewritten before next dedup use
            old2new[active] = np.arange(active.size, dtype=idx)
            ft, fh = old2new[ft], old2new[fh]
            rt, rh = old2new[rt], old2new[rh]
            ids = resolve(ids, active)
            part = part[active]
            cur_n = active.size
            scratch = np.empty(cur_n, dtype=idx)
            active = np.arange(cur_n, dtype=np.int64)

        stats.rounds += 1
        stats.processed_edges += int(ft.size)

        fip = csr_of(ft, fh, cur_n, dtype=idx)
        rip = csr_of(rt, rh, cur_n, dtype=idx)

        # ---- trim: frontier peel of zero-in/out-degree vertices ----------
        n_comp = trim_peel(fip, fh, rip, rh, part, comp, ids, active, n_comp,
                           scratch, stats)
        active = np.flatnonzero(part >= 0)
        if active.size == 0:
            break

        if n_parts >= _COLOR_PARTS or stats.rounds > _COLOR_ROUNDS:
            n_comp, n_parts = color_round(
                cur_n, ft, fh, rt, rh, part, comp, ids, n_comp, scratch, stats
            )
            continue

        # ---- pivots: one per active part ---------------------------------
        # Bucket writes, no sort: any representative per part will do.
        pivot_of = np.full(n_parts, -1, dtype=np.int64)
        pivot_of[part[active]] = active
        pivots = pivot_of[pivot_of >= 0]

        # ---- forward/backward multi-source frontier BFS ------------------
        reach_f = frontier_bfs(fip, fh, pivots, part, scratch, stats)
        reach_b = frontier_bfs(rip, rh, pivots, part, scratch, stats)

        # ---- finalise every pivot's SCC (F ∩ B, per part) ----------------
        in_scc = np.zeros(cur_n, dtype=bool)
        in_scc[active] = reach_f[active] & reach_b[active]
        members = np.flatnonzero(in_scc)
        new_id, n_new = bucket_ids(part[members], n_parts)
        comp[resolve(ids, members)] = n_comp + new_id
        n_comp += n_new
        part[members] = -1

        # ---- split remainders into (F-only, B-only, untouched) -----------
        remaining = np.flatnonzero(part >= 0)
        if remaining.size:
            state = np.where(
                reach_f[remaining], 1, np.where(reach_b[remaining], 2, 0)
            ).astype(np.int64)
            new_part, n_parts = bucket_ids(
                part[remaining].astype(np.int64) * 3 + state, 3 * n_parts
            )
            part[remaining] = new_part
        else:
            n_parts = 0

    return (comp, stats) if return_stats else comp
