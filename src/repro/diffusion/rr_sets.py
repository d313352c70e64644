"""Reverse-reachable (RR) set sampling and maximum-coverage machinery.

RR sets are the substrate of all sketch-based influence-maximization
algorithms (Borgs et al. [6]; Section 3.3): pick a random root ``z``, run a
*reverse* randomized BFS, and record the set of vertices that would have
influenced ``z``.  A seed set's influence equals ``W * Pr[S hits a random RR
set]`` where ``W`` is the total vertex weight, so maximizing influence reduces
to maximum coverage over a collection of RR sets.

For vertex-weighted (coarsened) graphs the root is drawn proportionally to
vertex weight, exactly as the paper's influence-maximization framework
prescribes (Section 6.2).
"""

from __future__ import annotations

import numpy as np

from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..rng import ensure_rng
from .reachability import gather_ranges, sorted_distinct

__all__ = ["RRSampler", "CoverageInstance"]


class RRSampler:
    """Draws RR sets from an influence graph.

    Parameters
    ----------
    graph:
        The (possibly vertex-weighted) influence graph.
    rng:
        Seed or generator for root choice and edge coin flips.
    model:
        ``"ic"`` (default) — independent cascade: reverse randomized BFS.
        ``"lt"`` — linear threshold: a reverse random in-edge *walk* (each
        vertex's live-edge outcome selects at most one in-edge with
        probability equal to its weight), per the standard LT-RIS
        construction.  Requires ``sum_u b(u, v) <= 1`` per vertex (the WC
        setting satisfies this).  With LT RR sets, every sketch-based
        maximizer in :mod:`repro.algorithms` solves LT influence
        maximization unchanged.
    """

    def __init__(self, graph: InfluenceGraph, rng=None, model: str = "ic") -> None:
        if model not in ("ic", "lt"):
            raise AlgorithmError("model must be 'ic' or 'lt'")
        self.model = model
        if model == "lt":
            from .linear_threshold import validate_lt_weights

            validate_lt_weights(graph)
        self.graph = graph
        self._rev = graph.reverse()
        self._rng = ensure_rng(rng)
        self._weights = graph.weights.astype(np.float64)
        self._cum_weights = np.cumsum(self._weights)
        self.total_weight = float(self._cum_weights[-1]) if graph.n else 0.0
        self.examined_edges = 0
        # Version-stamped visited marks: avoids an O(n) clear per RR set,
        # keeping per-set cost proportional to the set's own traversal —
        # the cost model the paper's speed-up analysis assumes.
        self._visit_stamp = np.zeros(graph.n, dtype=np.int64)
        self._stamp = 0

    def sample_root(self, rng=None) -> int:
        """A random root, weight-proportional (uniform when unweighted)."""
        if self.graph.n == 0:
            raise AlgorithmError("cannot sample a root from an empty graph")
        gen = self._rng if rng is None else ensure_rng(rng)
        u = gen.random() * self.total_weight
        return int(np.searchsorted(self._cum_weights, u, side="right"))

    def sample(self, root: int | None = None, rng=None) -> np.ndarray:
        """One RR set: vertices reaching ``root`` in a live-edge outcome.

        Edge coins are flipped lazily on examined reverse edges only; the
        examined-edge counter feeds the cost accounting that links the
        framework's speed-up to the edge-reduction ratio.

        ``rng`` substitutes a per-call stream for the sampler's own: given
        the same graph and the same generator state, the returned RR set is
        bit-identical regardless of which process draws it.  The serving
        pools (:mod:`repro.serve`) rely on this with :func:`repro.rng.
        indexed_rng` streams to shard one pool across workers.
        """
        gen = self._rng if rng is None else ensure_rng(rng)
        if root is None:
            root = self.sample_root(rng=gen)
        if self.model == "lt":
            return self._sample_lt(root, rng=gen)
        indptr, heads, probs = self._rev.indptr, self._rev.heads, self._rev.probs
        marks = self._visit_stamp
        self._stamp += 1
        stamp = self._stamp
        marks[root] = stamp
        frontier = np.asarray([root], dtype=np.int64)
        collected = [frontier]
        # np.take / np.compress do what fancy and boolean indexing do here,
        # with less per-call overhead; the level's work is unchanged.
        while frontier.size:
            edge_idx = gather_ranges(np.take(indptr, frontier),
                                     np.take(indptr, frontier + 1))
            if edge_idx.size == 0:
                break
            self.examined_edges += edge_idx.size
            success = gen.random(edge_idx.size) < np.take(probs, edge_idx)
            targets = np.take(heads, np.compress(success, edge_idx))
            new = np.compress(np.take(marks, targets) != stamp, targets)
            if new.size == 0:
                break
            frontier = sorted_distinct(new)
            marks[frontier] = stamp
            collected.append(frontier)
        rr = np.concatenate(collected)
        rr.sort()
        return rr

    def _sample_lt(self, root: int, rng=None) -> np.ndarray:
        """LT RR set: a reverse walk choosing one in-edge per step.

        Under the LT live-edge distribution each vertex keeps at most one
        in-edge (with probability equal to its weight), so the set of
        vertices reaching the root is a simple path; the walk stops when no
        in-edge is selected or the path would revisit a vertex.
        """
        gen = self._rng if rng is None else ensure_rng(rng)
        rev = self._rev
        path = [root]
        seen = {root}
        current = root
        while True:
            lo, hi = rev.indptr[current], rev.indptr[current + 1]
            if lo == hi:
                break
            self.examined_edges += hi - lo
            cumulative = np.cumsum(rev.probs[lo:hi])
            draw = gen.random()
            pos = int(np.searchsorted(cumulative, draw, side="right"))
            if pos >= hi - lo:
                break  # no in-edge selected for this vertex
            parent = int(rev.heads[lo + pos])
            if parent in seen:
                break  # the live-edge path loops; reachability saturates
            path.append(parent)
            seen.add(parent)
            current = parent
        rr = np.asarray(path, dtype=np.int64)
        rr.sort()
        return rr

    def sample_batch(self, count: int) -> list[np.ndarray]:
        """Draw ``count`` independent RR sets."""
        return [self.sample() for _ in range(count)]


def _inverted_set_ids(flat: np.ndarray, sizes: np.ndarray, n: int) -> np.ndarray:
    """Set ids of the memberships ``flat`` in vertex-major, set-minor order.

    Equal to ``set_ids[np.argsort(flat, kind="stable")]`` with ``set_ids``
    the owning set of each entry of ``flat`` (the concatenated sets, in set
    order): a stable sort by vertex keeps each vertex's sets ascending.
    Packing each membership into one key ``vertex << b | set`` gives that
    order as the plain ascending order of the keys, and equal keys are equal
    values, so numpy's fastest unstable sort can do it and the set ids are
    read back from the low ``b`` bits.  Raises :class:`AlgorithmError` if a
    key could overflow ``int64`` (more than ``2**62`` vertex-set pairs,
    far beyond any index that fits in memory).
    """
    shift = max(sizes.size - 1, 0).bit_length()
    if n > 1 << (62 - shift):
        raise AlgorithmError(
            f"coverage index over {n} vertices and {sizes.size} sets "
            "overflows its int64 keys"
        )
    set_ids = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    keys = np.left_shift(flat, shift, dtype=np.int64)
    keys |= set_ids
    del set_ids
    keys.sort()
    keys &= (1 << shift) - 1
    return keys


class CoverageInstance:
    """Maximum coverage over a collection of RR sets.

    Builds a flat inverted index (vertex -> containing sets) once, then runs
    the standard greedy with exact decremental gain updates: when a set
    becomes covered, the marginal gain of every vertex it contains drops by
    one.  Total update work is linear in the total size of covered sets.
    """

    def __init__(self, rr_sets: list[np.ndarray], n: int) -> None:
        self.n = n
        self.n_sets = len(rr_sets)
        sizes = np.fromiter((s.size for s in rr_sets), dtype=np.int64,
                            count=self.n_sets)
        # Set membership in CSR layout over sets (for decrements).
        self._set_indptr = np.zeros(self.n_sets + 1, dtype=np.int64)
        np.cumsum(sizes, out=self._set_indptr[1:])
        if self.n_sets:
            self._flat = np.concatenate(rr_sets)
        else:
            self._flat = np.empty(0, dtype=np.int64)
        # Inverted index in CSR layout over vertices.
        self._inv_sets = _inverted_set_ids(self._flat, sizes, n)
        self._inv_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._flat, minlength=n),
                  out=self._inv_indptr[1:])

    def degree(self) -> np.ndarray:
        """Initial coverage gain of each vertex (number of sets containing it)."""
        return np.diff(self._inv_indptr)

    def sets_containing(self, v: int) -> np.ndarray:
        """Ids of RR sets containing vertex ``v``."""
        lo, hi = self._inv_indptr[v], self._inv_indptr[v + 1]
        return self._inv_sets[lo:hi]

    def coverage_of(self, seeds: np.ndarray, first: "int | None" = None) -> int:
        """Number of RR sets hit by ``seeds``.

        ``first`` restricts the count to the prefix collection
        ``rr_sets[:first]`` — the pool-reuse path, where one grown-once
        collection serves queries that asked for different sketch sizes:
        because sets are appended in draw order, the prefix of length t is
        distributed exactly as an independent collection of t sets.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        limit = self.n_sets if first is None else min(first, self.n_sets)
        if seeds.size == 0 or limit <= 0:
            return 0
        covered = np.zeros(limit, dtype=bool)
        for v in seeds:
            ids = self.sets_containing(int(v))
            covered[ids[ids < limit]] = True
        return int(covered.sum())

    def greedy(self, k: int) -> tuple[np.ndarray, int]:
        """Greedy max coverage: ``k`` vertices and the number of covered sets.

        Exact greedy (not lazy): gains are kept exactly up to date by
        decrementing when a set is newly covered, so ``argmax`` is always
        correct.
        """
        if k <= 0:
            raise AlgorithmError("k must be positive")
        gains = self.degree()
        covered = np.zeros(self.n_sets, dtype=bool)
        seeds = np.empty(min(k, self.n), dtype=np.int64)
        total_covered = 0
        for i in range(seeds.size):
            v = int(np.argmax(gains))
            seeds[i] = v
            newly = self.sets_containing(v)
            newly = newly[~covered[newly]]
            covered[newly] = True
            total_covered += newly.size
            indptr = self._set_indptr
            for a, b in zip(indptr[newly].tolist(),
                            indptr[newly + 1].tolist()):
                gains[self._flat[a:b]] -= 1
            gains[v] = -1  # never pick twice
        return seeds, total_covered
