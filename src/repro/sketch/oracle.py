"""Bottom-k combined reachability sketches over the r live-edge rounds.

The oracle construction follows Cohen et al. ("Sketch-based Influence
Maximization and Computation"): under the live-edge view of the IC model,

    Inf(S) = (1/r) * sum_i w(R_i(S))

for ``r`` sampled live-edge graphs.  Give every *item* — a pair
``(round i, vertex u)`` — an independent exponential rank with rate
``w(u)``.  The bottom-k sketch of a vertex ``v`` keeps the ``k`` smallest
ranks among the items reachable from ``v`` (vertex ``u`` reachable from
``v`` in round ``i``); the rank-conditioning bottom-k estimator

    sum_i w(R_i(v))  ~=  sum_{rank_j < tau_k} w_j / (1 - exp(-w_j tau_k))

(``tau_k`` the k-th smallest rank, summed over the ``k - 1`` items below
it) is unbiased with coefficient of variation at most ``1 / sqrt(k - 2)``.
In the ``k << N`` regime each inclusion probability ``1 - exp(-w tau)``
is ``~ w tau`` and the sum collapses to the classic ``(k - 1) / tau_k``;
unlike that form it stays unbiased when the reachable item count barely
exceeds ``k`` (rank depletion inflates ``tau_k`` there, which the
conditioning absorbs).  A sketch holding fewer than ``k`` items is
*complete* — the estimate is then exact.  Sketches merge:
the bottom-k of a seed set is the k smallest distinct-item ranks across
its members' sketches, so seed-set queries never touch the graph.

Construction amortises the ``r`` rounds through one flat domain — vertex
``v`` of round ``i`` is ``i * n + v``, the disjoint union of all rounds —
and a single row-major ``np.nonzero`` of the ``(r, m)`` keep matrix yields
the union's reverse CSR with one argsort.
Items are then taken in ascending rank order in *blocks* whose widths
double from 1 up to :data:`SKETCH_BLOCK_CAP`, and each block runs one
multi-source pruned reverse BFS over ``(copy, slot)`` pair keys,
deduplicated by sort-and-compare (no hashing, no dense ``block x r*n``
visited buffer).  Pruning uses the per-copy counts at the block's start:
a copy already holding ``k`` smaller ranks neither records nor
propagates (every copy behind it is provably saturated too), bounding
work by ``O(k)`` arrivals per copy plus one block's overshoot.  A pair
is recorded only while its *vertex* holds fewer than ``k`` insertions at
the block's start — later blocks' ranks are all larger, so a full
vertex's sketch is final — which keeps the fold's input near ``k`` per
vertex.  The sketches depend on reachability alone, so the block
schedule changes the work, never the result: ``ranks``, ``items``,
``counts`` and :meth:`InfluenceOracle.state_digest` are those of the
one-item-at-a-time BFS.

Determinism: the whole build is a pure function of ``(graph content,
entropy, r, k)``.  Round ``i``'s keep-mask comes from the indexed stream
``(entropy, i)`` and the rank matrix from stream ``(entropy, r)``
(:func:`repro.rng.indexed_rng`), so an oracle rebuilt after cache
eviction — or by a dynamic epoch publish on an unchanged coarse graph —
is bit-for-bit the cold build.

Counters/spans (``docs/observability.md``): span ``sketch.build``;
counters ``sketch.builds``, ``sketch.insertions``, ``sketch.pruned``,
``sketch.queries``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..diffusion.reachability import gather_ranges, sorted_distinct
from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..obs import inc, span
from ..rng import RngLike, derive_entropy, ensure_rng, indexed_rng

__all__ = [
    "DEFAULT_SKETCH_K",
    "InfluenceOracle",
    "SKETCH_BLOCK_CAP",
    "SketchEstimator",
    "SketchStats",
    "round_masks",
    "sketch_eps",
]

#: Default sketch size.  ``k`` trades memory/build time for accuracy: the
#: estimator's coefficient of variation is at most ``1 / sqrt(k - 2)``.
DEFAULT_SKETCH_K = 64

#: Smallest admissible sketch size — the rank-conditioning estimator
#: needs ``k >= 2`` and its variance bound ``k >= 3``; 4 keeps a margin.
_MIN_K = 4

#: Widest block of items one multi-source reverse BFS carries.  Wider
#: blocks amortise more per-level numpy calls but prune and record
#: against staler (block-start) counts: on a 17,660-vertex coarse model
#: (r = 16, k = 64) caps of 256-512 built in ~1.55 s, 128 in 1.9 s and
#: 2048 in 1.8 s.  Results do not depend on it.
SKETCH_BLOCK_CAP = 512

#: Width of the first block; widths double from here up to the cap, so
#: the lowest-ranked items — which saturate copies fastest — run in small
#: blocks against up-to-date counts.
_FIRST_BLOCK = 1

#: Sketch rows per block of the point-estimate computation: its
#: ``(rows, k)`` float temporaries stay a fixed size whatever ``n`` is.
#: Each row's estimate depends on that row alone, so the height changes
#: the memory, never the result.
_ROW_BLOCK = 1024


def sketch_eps(k: int, delta: float = 0.05) -> float:
    """The advertised relative-error bound of a size-``k`` sketch.

    By Chebyshev over the bottom-k estimator's variance (``CV <= 1 /
    sqrt(k - 2)``), the relative error exceeds ``eps`` with probability at
    most ``1 / ((k - 2) * eps^2)``; solving for ``delta`` gives ``eps =
    1 / sqrt((k - 2) * delta)``.  Deliberately conservative — the
    differential suite checks estimates against this envelope, not a
    tuned constant.
    """
    if k < _MIN_K:
        raise AlgorithmError(f"sketch k must be >= {_MIN_K}")
    if not 0 < delta < 1:
        raise AlgorithmError("delta must lie in (0, 1)")
    return 1.0 / math.sqrt((k - 2) * delta)


def round_masks(graph: InfluenceGraph, entropy: int, r: int) -> np.ndarray:
    """The ``(r, m)`` live-edge keep matrix of the ``entropy`` family.

    Row ``i`` is drawn from the indexed stream ``(entropy, i)`` — the
    same mask an oracle built from ``entropy`` used for round ``i``, so
    tests (and the exact differential oracle) can reconstruct the
    realised rounds without the oracle having to retain them.
    """
    keep = np.empty((r, graph.m), dtype=bool)
    for i in range(r):
        keep[i] = indexed_rng(entropy, i).random(graph.m) < graph.probs
    return keep


def _rank_matrix(graph: InfluenceGraph, entropy: int, r: int) -> np.ndarray:
    """Exponential item ranks, rate ``w(u)``: an ``(r, n)`` float matrix.

    Drawn from the indexed stream ``(entropy, r)`` — disjoint from the
    mask streams ``0..r-1`` — so masks and ranks are independent and both
    are pure functions of ``(entropy, r)``.
    """
    rng = indexed_rng(entropy, r)
    exponentials = rng.standard_exponential((r, graph.n))
    return exponentials / graph.weights.astype(np.float64)[None, :]


def _union_reverse_csr(
    graph: InfluenceGraph, keep: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Reverse CSR of the disjoint union of all masked copies.

    Flat vertex ``i * n + v`` is vertex ``v`` of round ``i``.  The
    row-major ``np.nonzero`` yields the kept edges already sorted by
    round, and one stable argsort by head builds the reversed adjacency.
    """
    n = graph.n
    rounds, edges = np.nonzero(keep)
    base = rounds * n
    flat_tails = base + graph.tails()[edges]
    flat_heads = base + graph.heads[edges]
    order = np.argsort(flat_heads, kind="stable")
    rev_heads = flat_tails[order]
    counts = np.bincount(flat_heads, minlength=keep.shape[0] * n)
    rev_indptr = np.zeros(keep.shape[0] * n + 1, dtype=np.int64)
    np.cumsum(counts, out=rev_indptr[1:])
    return rev_indptr, rev_heads


def _block_spans(total: int, first: int,
                 cap: int) -> Iterator[tuple[int, int]]:
    """``[start, stop)`` blocks over ``total`` items, widths doubling from
    ``first`` up to ``cap``."""
    start, width = 0, max(1, first)
    while start < total:
        stop = min(total, start + width)
        yield start, stop
        start, width = stop, max(1, min(cap, 2 * width))


def _pruned_insertions(rev_indptr: np.ndarray, rev_heads: np.ndarray,
                       order: np.ndarray, n: int, k: int,
                       stats: SketchStats) -> np.ndarray:
    """Block-batched pruned reverse BFS over the union's flat copies.

    Items are taken in ``order`` (ascending rank) in blocks; each block
    runs one multi-source BFS whose states are ``(copy, slot)`` pairs —
    the item at position ``start + slot`` has reached ``copy`` — keyed
    ``copy << shift | slot`` and deduplicated by sorting.  Two block-start
    snapshots make the batch exact:

    * a copy already holding ``k`` items neither records nor propagates
      (every item of the block out-ranks its sketch, and every copy behind
      it is saturated too);
    * a pair is recorded only while its vertex holds fewer than ``k``
      insertions — later blocks' ranks are all larger, so a full vertex's
      sketch is final.

    Returns the fold keys ``vertex * (r * n) + position`` of the recorded
    insertions; ``stats`` gains their count and the pruned arrivals.  Each
    block (and each BFS level) runs in a helper of its own, so its
    temporaries are freed before the next one allocates.
    """
    flat_n = order.size
    counts = np.zeros(flat_n, dtype=np.int64)  # per copy, capped at k
    held = np.zeros(n, dtype=np.int64)  # recorded insertions per vertex
    recorded: "list[np.ndarray]" = []
    for start, stop in _block_spans(flat_n, _FIRST_BLOCK, SKETCH_BLOCK_CAP):
        shift = (stop - start - 1).bit_length()
        visited = _block_reach(rev_indptr, rev_heads, order[start:stop],
                               shift, counts, k, stats)
        if visited.size:
            recorded.append(_record_block(visited, shift, start, flat_n,
                                          counts, held, k))
    keys = (np.concatenate(recorded) if recorded
            else np.empty(0, dtype=np.int64))
    stats.insertions = int(keys.size)
    return keys


def _block_reach(rev_indptr: np.ndarray, rev_heads: np.ndarray,
                 sources: np.ndarray, shift: int, counts: np.ndarray,
                 k: int, stats: SketchStats) -> np.ndarray:
    """The sorted ``copy << shift | slot`` keys one block's BFS reaches
    from its live ``sources`` through unsaturated copies."""
    live = counts[sources] < k
    slots = np.flatnonzero(live)
    stats.pruned += int(live.size - slots.size)
    frontier = np.sort((sources[slots] << shift) | slots)
    visited = frontier
    while frontier.size:
        frontier = _next_frontier(rev_indptr, rev_heads, frontier, visited,
                                  shift, counts, k, stats)
        if frontier.size:
            stats.bfs_levels += 1
            # Two sorted runs: the stable sort merges them linearly.
            visited = np.concatenate((visited, frontier))
            visited.sort(kind="stable")
    return visited


def _next_frontier(rev_indptr: np.ndarray, rev_heads: np.ndarray,
                   frontier: np.ndarray, visited: np.ndarray, shift: int,
                   counts: np.ndarray, k: int,
                   stats: SketchStats) -> np.ndarray:
    """The sorted keys one reverse hop from ``frontier`` at unsaturated
    copies that ``visited`` does not hold yet."""
    copies = frontier >> shift
    lo, hi = rev_indptr[copies], rev_indptr[copies + 1]
    del copies
    targets = rev_heads[gather_ranges(lo, hi)]
    live = counts[targets] < k
    stats.pruned += int(live.size - np.count_nonzero(live))
    keys = targets[live]
    del targets
    keys <<= shift
    keys |= np.repeat(frontier & ((1 << shift) - 1), hi - lo)[live]
    del live, lo, hi
    keys = sorted_distinct(keys)
    seen = np.searchsorted(visited, keys)
    np.minimum(seen, visited.size - 1, out=seen)
    return keys[visited[seen] != keys]


def _record_block(visited: np.ndarray, shift: int, start: int, flat_n: int,
                  counts: np.ndarray, held: np.ndarray,
                  k: int) -> np.ndarray:
    """Fold keys of one block's reached pairs whose vertex is not full,
    updating the per-copy ``counts`` and per-vertex ``held`` in place."""
    n = held.size
    copies = visited >> shift  # sorted: keys are copy-major
    runs = np.flatnonzero(np.diff(copies, prepend=-1))
    reached = copies[runs]
    counts[reached] = np.minimum(
        counts[reached] + np.diff(runs, append=copies.size), k)
    del runs, reached
    copies %= n  # now each pair's vertex
    take = held[copies] < k
    vertices = copies[take]
    del copies
    held += np.bincount(vertices, minlength=n)
    keys = visited[take]
    del take
    keys &= (1 << shift) - 1
    keys += start
    vertices *= flat_n
    keys += vertices
    return keys


@dataclass
class SketchStats:
    """Work counters for one oracle build."""

    items: int = 0  # flat items processed (r * n)
    union_edges: int = 0  # edges of the union reverse CSR
    insertions: int = 0  # (vertex, item) pairs recorded for the fold
    pruned: int = 0  # items and BFS arrivals dropped at saturated copies
    bfs_levels: int = 0  # frontier expansions summed over all blocks


class InfluenceOracle:
    """A per-vertex influence oracle over bottom-k reachability sketches.

    Parameters
    ----------
    graph:
        The (typically coarsened, vertex-weighted) graph to sketch.
    r:
        Live-edge rounds averaged over — the same role as the coarsening
        parameter ``r``.
    k:
        Sketch size (see :data:`DEFAULT_SKETCH_K`).
    rng:
        Seed or generator the oracle's entropy is drawn from; the build
        is then a pure function of ``(graph content, entropy, r, k)``.

    The oracle conforms to the
    :class:`repro.core.frameworks.InfluenceEstimator` protocol, but is
    *bound* to its graph by identity — Algorithm 3 composes it with the
    Framework translation exactly like a pooled estimator.
    """

    def __init__(self, graph: InfluenceGraph, r: int = 16,
                 k: int = DEFAULT_SKETCH_K, rng: RngLike = None) -> None:
        if r <= 0:
            raise AlgorithmError("r must be positive")
        if k < _MIN_K:
            raise AlgorithmError(f"sketch k must be >= {_MIN_K}")
        self.graph = graph
        self.r = int(r)
        self.k = int(k)
        self.entropy = derive_entropy(rng)
        self.stats = SketchStats()
        with span("sketch.build", n=graph.n, m=graph.m, r=self.r, k=self.k):
            self._build()
        inc("sketch.builds")
        inc("sketch.insertions", self.stats.insertions)
        inc("sketch.pruned", self.stats.pruned)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        graph, r, k = self.graph, self.r, self.k
        flat_n = r * graph.n
        keep = round_masks(graph, self.entropy, r)
        rev_indptr, rev_heads = _union_reverse_csr(graph, keep)
        del keep
        ranks = _rank_matrix(graph, self.entropy, r).reshape(flat_n)
        order = np.argsort(ranks, kind="stable")
        self.stats.items = flat_n
        self.stats.union_edges = int(rev_heads.size)
        keys = _pruned_insertions(rev_indptr, rev_heads, order, graph.n, k,
                                  self.stats)
        del rev_indptr, rev_heads
        self._fold(keys, order, ranks)

    def _fold(self, keys: np.ndarray, order: np.ndarray,
              ranks: np.ndarray) -> None:
        """Combine recorded insertions into per-vertex bottom-k sketches.

        ``keys`` encode ``vertex * (r * n) + position``, ``position``
        indexing ``order`` (items by ascending rank); they are sorted in
        place.  A vertex's copies receive disjoint item sets (copy
        ``(i, v)`` only ever reaches round-``i`` items), so the combined
        bottom-k is simply the ``k`` smallest positions among a vertex's
        insertions — one sort of the keys, no dedup.  Sorting by position
        rather than rank keeps rank ties in processing order.

        Beside the keys, no temporary outgrows an ``(n, k)`` array and at
        most two are alive at once: each vertex's run is found by
        searching the sorted keys for its key range, only the first ``k``
        of each run are gathered, the matrices are filled through a
        row-major mask, and the point estimates are computed
        :data:`_ROW_BLOCK` rows at a time.
        """
        n, k, flat_n = self.graph.n, self.k, order.size
        keys.sort()
        bounds = np.searchsorted(keys, np.arange(n + 1) * flat_n)
        starts = bounds[:-1]
        self.counts = np.minimum(np.diff(bounds), k)
        positions = keys[gather_ranges(starts, starts + self.counts)]
        positions %= flat_n
        taken = order[positions]
        del positions
        # Row-major: the gathered insertions fill each row's first counts.
        held = np.arange(k) < self.counts[:, None]
        self.items = np.full((n, k), -1, dtype=np.int64)
        self.items[held] = taken
        del taken
        self.ranks = ranks[self.items]
        self.ranks[~held] = np.inf
        del held
        self._weights = self.graph.weights.astype(np.float64)
        # Precomputed point estimates make single-seed queries one read.
        self.point_estimates = np.empty(n, dtype=np.float64)
        for lo in range(0, n, _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            self.point_estimates[rows] = self._point_block(
                self.items[rows], self.ranks[rows], self.counts[rows])

    def _point_block(self, items: np.ndarray, ranks: np.ndarray,
                     counts: np.ndarray) -> np.ndarray:
        """Point estimates of one block of sketch rows."""
        k = self.k
        full = counts >= k
        item_weights = np.where(items >= 0,
                                self._weights[items % self.graph.n], 0.0)
        exact = item_weights.sum(axis=1)
        # Rank-conditioning estimate over the k-1 items below tau_k.  For
        # non-full rows tau is inf and the padded weights are 0, feeding
        # nan/0 into inclusion — masked out by `where` and discarded by
        # the `full` select anyway.
        tau = ranks[:, k - 1]
        head_weights = item_weights[:, : k - 1]
        with np.errstate(invalid="ignore"):
            inclusion = -np.expm1(-head_weights * tau[:, None])
        conditioned = np.divide(
            head_weights, inclusion,
            out=np.zeros_like(head_weights), where=inclusion > 0,
        ).sum(axis=1)
        return np.where(full, conditioned, exact) / self.r

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def eps(self, delta: float = 0.05) -> float:
        """The advertised relative-error bound at confidence ``1 - delta``."""
        return sketch_eps(self.k, delta)

    def point(self, vertex: int) -> float:
        """``Inf(vertex)`` — one array read off the precomputed estimates."""
        if not 0 <= vertex < self.graph.n:
            raise AlgorithmError("vertex id out of range")
        inc("sketch.queries")
        return float(self.point_estimates[vertex])

    def points(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`point`: one gather off the precomputed estimates.

        The batch face of the oracle — a point-query workload of q
        vertices costs one fancy index, not q Python calls.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            raise AlgorithmError("vertex batch must be non-empty")
        if vertices.min() < 0 or vertices.max() >= self.graph.n:
            raise AlgorithmError("vertex id out of range")
        inc("sketch.queries", int(vertices.size))
        return self.point_estimates[vertices].copy()

    def estimate(self, graph: InfluenceGraph, seeds: np.ndarray) -> float:
        """``Inf(seeds)`` from the merged bottom-k of the seeds' sketches.

        Protocol-conforming (Algorithm 3 plugs it in unchanged), but
        bound to the sketched graph by identity — sketches cannot answer
        for a graph they were not built on.
        """
        if graph is not self.graph:
            raise AlgorithmError(
                "InfluenceOracle is bound to the graph it sketched; "
                "build a new oracle for a different graph"
            )
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        if seeds.size == 0:
            raise AlgorithmError("seed set must be non-empty")
        if seeds[0] < 0 or seeds[-1] >= self.graph.n:
            raise AlgorithmError("seed id out of range")
        if seeds.size == 1:
            return self.point(int(seeds[0]))
        inc("sketch.queries")
        k = self.k
        ranks = self.ranks[seeds].ravel()
        items = self.items[seeds].ravel()
        valid = items >= 0
        ranks, items = ranks[valid], items[valid]
        # Seeds' reachable sets overlap, so the same item (with the same
        # rank) may appear under several seeds: merge on distinct items.
        items, first = np.unique(items, return_index=True)
        ranks = ranks[first]
        if items.size < k:
            # Every member sketch was complete, so the union is too.
            total = self._weights[items % self.graph.n].sum()
            return float(total / self.r)
        smallest = np.argpartition(ranks, k - 1)[:k]
        tau = ranks[smallest].max()
        below = smallest[ranks[smallest] < tau]
        weights = self._weights[items[below] % self.graph.n]
        inclusion = -np.expm1(-weights * tau)
        return float((weights / inclusion).sum() / self.r)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Resident bytes of the sketch arrays."""
        return int(self.ranks.nbytes + self.items.nbytes + self.counts.nbytes
                   + self.point_estimates.nbytes)

    def state_digest(self) -> str:
        """A content digest of the sketch state (bit-for-bit comparisons)."""
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        for array in (self.ranks, self.items, self.counts,
                      self.point_estimates):
            h.update(np.ascontiguousarray(array).tobytes())
        h.update(str((self.r, self.k, self.entropy)).encode("ascii"))
        return h.hexdigest()


class SketchEstimator:
    """The registry face of the oracle: lazily sketches each queried graph.

    Conforms to the :class:`repro.core.frameworks.InfluenceEstimator`
    protocol like :class:`~repro.algorithms.ris_estimator.RISEstimator`:
    the oracle is (re)built per graph *object* and reused across queries
    on it, so a batch of q queries pays one construction.  Construct via
    ``repro.estimators.make_estimator("sketch", ...)``.
    """

    def __init__(self, r: int = 16, k: int = DEFAULT_SKETCH_K,
                 rng: RngLike = None) -> None:
        if r <= 0:
            raise AlgorithmError("r must be positive")
        if k < _MIN_K:
            raise AlgorithmError(f"sketch k must be >= {_MIN_K}")
        self.r = int(r)
        self.k = int(k)
        self._rng = ensure_rng(rng)
        self._oracle: "InfluenceOracle | None" = None

    def oracle_for(self, graph: InfluenceGraph) -> InfluenceOracle:
        """The oracle bound to ``graph``, building it on first use."""
        if self._oracle is None or self._oracle.graph is not graph:
            self._oracle = InfluenceOracle(graph, r=self.r, k=self.k,
                                           rng=self._rng)
        return self._oracle

    def eps(self, delta: float = 0.05) -> float:
        """The advertised relative-error bound at confidence ``1 - delta``."""
        return sketch_eps(self.k, delta)

    def estimate(self, graph: InfluenceGraph, seeds: np.ndarray) -> float:
        """``Inf_graph(seeds)`` from the graph's (lazily built) oracle."""
        return self.oracle_for(graph).estimate(graph, seeds)
