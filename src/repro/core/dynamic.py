"""Algorithm 7 — dynamic updates of coarsened graphs (Appendix C.2).

:class:`DynamicCoarsener` maintains, for a mutating influence graph, the
``r`` live-edge samples ``G_i``, their SCC partitions ``C_i``, the meet
``P_r``, and the coarsened graph ``H`` / mapping ``pi`` — updating them on
edge insertion and deletion instead of re-running coarsening from scratch.

The pruning argument of the paper applies twice over:

* an inserted or deleted edge materialises in each sample only with
  probability ``p_uv``, so only a ``p_uv`` fraction of the ``r`` samples
  is touched at all in expectation (coin-flip skips);
* even a materialised edge usually cannot change the sample's SCCs — an
  insert whose endpoints already share an SCC adds no new reachability
  pair inside any cycle, an insert ``u -> v`` with no live path ``v ~> u``
  closes no cycle, and a delete whose endpoints lie in *different* SCCs
  removes an edge that was on no cycle.  These cases are detected in O(1)
  label reads (plus a capped BFS for the cross-component insert) and
  counted as ``scc_pruned`` — the SCC recomputation is skipped with the
  partition provably unchanged.

When no ``C_i`` changes, ``P_r`` is provably unchanged and only the
coarse edge bundles touched by the batch need a probability update.

Internal representation
-----------------------

All maintained state is flat numpy arrays so updates cost vectorised
O(m) splices, never Python-object churn: the edge list lives in canonical
CSR order (``_tails``/``_heads``/``_probs`` plus a packed ``_sortkey``
for O(log m) membership), each sample is a boolean keep-mask over that
edge list, and the coarse graph is a parallel set of sorted bundle
arrays patched in place on the fast path.  ``snapshot()`` and
``current_graph()`` are cached per update-version and rebuild CSR
structures directly from the already-sorted arrays.

Coin disciplines
----------------

Two ways of realising the per-sample materialisation coins are supported:

* ``coins="stream"`` (the historical default) — coins come from one
  sequential RNG stream, exactly like Algorithm 1's sampler.  The realised
  samples then depend on the *order* of updates, so the maintained state
  can only be checked against :meth:`reference_coarsening` (a rebuild over
  the same realised samples).
* ``coins="addressable"`` — the coin for edge ``(u, v)`` in sample ``i``
  is a counter-based hash of ``(seed, i, u, v)``: a pure function of the
  edge *identity*, not of the update history.  A freshly built coarsener
  (or :func:`coarsen_addressable`) over the mutated graph draws exactly
  the same coins, so the incrementally maintained model is **bit-for-bit
  equal to a cold rebuild with the same seed** — the property the serving
  layer's epoch-versioned model cache and the stateful differential test
  suite are built on.

Bundle probabilities are tracked *exactly*: a touched coarse bundle has
``q = 1 - prod(1 - p)`` recomputed from its current member edges (in the
same canonical order and floating-point association as the static
contraction in :func:`repro.core.coarsen.coarsen`), never divided out.
Repeated insert/delete of the same edge therefore can never drift ``q``
through multiply/divide cancellation, and a bundle becoming empty is
discovered by exact counting, never by floating-point comparison.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..diffusion.live_edge import live_edge_csr_from_mask
from ..errors import (
    CoarseningError,
    WireFormatError,
    json_int,
    json_number,
)
from ..graph.builder import combine_parallel_edges
from ..graph.influence_graph import InfluenceGraph
from ..obs import inc, span
from ..partition.partition import Partition
from ..rng import ensure_rng
from ..scc import scc_labels
from .coarsen import coarsen
from .result import CoarsenResult, CoarsenStats

__all__ = [
    "COIN_DISCIPLINES",
    "Delta",
    "DynamicCoarsener",
    "DynamicStats",
    "coarsen_addressable",
    "edge_coin_uniforms",
]

COIN_DISCIPLINES = ("stream", "addressable")

# SplitMix64 round constants (Steele et al.) — the standard 64-bit finaliser
# used to turn structured integer keys into well-mixed words.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
#: 2^-53 — maps the top 53 bits of a mixed word onto [0, 1).
_INV_2_53 = np.float64(1.0 / 9007199254740992.0)

#: Visited-vertex budget for the cross-component reachability probe; past
#: this the probe gives up and the full SCC recomputation runs instead.
_REACH_CAP = 512


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser, vectorised over a ``uint64`` array (wraps)."""
    x = (x + _GOLDEN).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= _MIX_A
    x ^= x >> np.uint64(27)
    x *= _MIX_B
    x ^= x >> np.uint64(31)
    return x


def edge_coin_uniforms(
    tails: np.ndarray, heads: np.ndarray, sample_index: int, seed: int
) -> np.ndarray:
    """Counter-based uniforms in ``[0, 1)``, one per ``(tail, head)`` pair.

    The value for an edge depends only on ``(seed, sample_index, tail,
    head)`` — never on how many draws happened before — so cold and
    incremental constructions of the same live-edge sample agree exactly.
    """
    tails = np.asarray(tails).astype(np.uint64)
    heads = np.asarray(heads).astype(np.uint64)
    base = _mix64(
        np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
        + np.uint64(sample_index)
    )[0]
    word = _mix64(_mix64(tails + base) + heads)
    return (word >> np.uint64(11)).astype(np.float64) * _INV_2_53


@dataclass(frozen=True)
class Delta:
    """One edge mutation: ``op`` is ``"insert"`` (with ``p``) or ``"delete"``."""

    op: str
    u: int
    v: int
    p: "float | None" = None

    def __post_init__(self) -> None:
        if self.op not in ("insert", "delete"):
            raise CoarseningError(f"unknown delta op {self.op!r}")
        if self.op == "insert" and self.p is None:
            raise CoarseningError("insert deltas require a probability p")

    @classmethod
    def from_json(cls, body: dict) -> "Delta":
        """Build a delta from its JSON wire form (the serve endpoints).

        ``u``/``v`` must be JSON integers (:func:`~repro.errors.json_int`):
        coercing ``2.5`` to ``2`` would mutate an edge nobody named.  A
        present ``p`` must be a finite JSON number
        (:func:`~repro.errors.json_number`, raising
        :class:`~repro.errors.WireFormatError`): ``true`` is not ``1.0``.
        """
        try:
            op = body["op"]
            u = json_int(body["u"], "u")
            v = json_int(body["v"], "v")
        except (KeyError, TypeError, WireFormatError) as exc:
            detail = f": {exc}" if isinstance(exc, WireFormatError) else ""
            raise CoarseningError(
                f"delta objects need integer 'u'/'v' and an 'op'{detail}"
            ) from exc
        p = body.get("p")
        return cls(op=op, u=u, v=v,
                   p=None if p is None else json_number(p, "p"))


@dataclass
class DynamicStats:
    """Counters showing how much work dynamic pruning avoided.

    Every mutation touches each of the ``r`` samples exactly once, as one
    of: a coin-flip skip, a structure-preserving pruned hit, or an SCC
    recomputation — so ``scc_skipped + scc_recomputations`` always equals
    ``r * (insertions + deletions)``.  ``scc_pruned`` is the subset of
    ``scc_skipped`` where the edge *did* materialise but the SCC partition
    was provably unchanged (see the module docstring).

    ``scc_recomputations`` counts *logical* recomputation demands, one per
    (delta, sample) event; the actual kernel work is deferred to the end
    of the batch, where each dirty sample is recomputed once.
    """

    insertions: int = 0
    deletions: int = 0
    scc_recomputations: int = 0
    scc_skipped: int = 0
    scc_pruned: int = 0
    full_rebuilds: int = 0
    fast_updates: int = 0

    def as_dict(self) -> dict:
        return {
            "insertions": self.insertions,
            "deletions": self.deletions,
            "scc_recomputations": self.scc_recomputations,
            "scc_skipped": self.scc_skipped,
            "scc_pruned": self.scc_pruned,
            "full_rebuilds": self.full_rebuilds,
            "fast_updates": self.fast_updates,
        }


def coarsen_addressable(
    graph: InfluenceGraph,
    r: int = 16,
    seed: int = 0,
) -> CoarsenResult:
    """Cold coarsening under the *addressable* coin discipline.

    Produces exactly the model a :class:`DynamicCoarsener` with
    ``coins="addressable"`` maintains for ``graph`` — bit-for-bit,
    including coarse edge probabilities — without building any mutable
    edge-set state.  This is the rebuild path the serving layer uses when
    an epoch-versioned model has been evicted, and the oracle the
    differential tests compare the incremental state against.
    """
    if graph.is_weighted:
        raise CoarseningError("addressable coarsening expects an unweighted input")
    if r < 0:
        raise CoarseningError("r must be non-negative")
    tails, heads, probs = graph.edge_arrays()
    partition = Partition.trivial(graph.n)
    with span("coarsen_addressable", r=r, n=graph.n, m=graph.m):
        for i in range(r):
            keep = edge_coin_uniforms(tails, heads, i, seed) < probs
            indptr, kept_heads = live_edge_csr_from_mask(graph, keep)
            labels = scc_labels(indptr, kept_heads)
            partition = partition.meet(Partition(labels))
        coarse, pi = coarsen(graph, partition)
    stats = CoarsenStats(
        r=r,
        input_vertices=graph.n,
        input_edges=graph.m,
        output_vertices=coarse.n,
        output_edges=coarse.m,
    )
    return CoarsenResult(coarse=coarse, pi=pi, partition=partition, stats=stats)


class DynamicCoarsener:
    """Incrementally maintained coarsening of a mutating influence graph.

    Parameters
    ----------
    graph:
        Initial influence graph (unweighted).
    r:
        Robustness parameter.
    rng:
        Seed or generator driving both the initial samples and the coin
        flips of subsequent insertions.  Under ``coins="addressable"``
        this must be an *integer seed* (the coins are a pure function of
        it, so a stateful generator makes no sense there).
    coins:
        ``"stream"`` (sequential RNG stream, the historical behaviour) or
        ``"addressable"`` (counter-based per-edge coins; see the module
        docstring).  Addressable coins make the maintained model equal a
        cold :func:`coarsen_addressable` of the mutated graph.
    """

    def __init__(self, graph: InfluenceGraph, r: int = 16, rng=None,
                 coins: str = "stream") -> None:
        if graph.is_weighted:
            raise CoarseningError("dynamic coarsening expects an unweighted input")
        if r < 0:
            raise CoarseningError("r must be non-negative")
        if coins not in COIN_DISCIPLINES:
            raise CoarseningError(
                f"coins must be one of {COIN_DISCIPLINES}, not {coins!r}"
            )
        self.n = graph.n
        self.r = r
        self.coins = coins
        if coins == "addressable":
            if rng is None:
                rng = 0
            if not isinstance(rng, (int, np.integer)):
                raise CoarseningError(
                    "coins='addressable' needs an integer seed, not a "
                    "generator: the coins are a pure function of it"
                )
            self.seed = int(rng)
            self._rng = None
        else:
            self.seed = None
            self._rng = ensure_rng(rng)
        self.stats = DynamicStats()

        tails, heads, probs = graph.edge_arrays()
        # Canonical CSR-ordered edge arrays; _sortkey packs (tail, head)
        # into one int64 so membership and splice points are one
        # np.searchsorted away.
        self._tails = np.ascontiguousarray(tails, dtype=np.int64).copy()
        self._heads = np.ascontiguousarray(heads, dtype=np.int64).copy()
        self._probs = np.ascontiguousarray(probs, dtype=np.float64).copy()
        self._sortkey = self._tails * np.int64(max(self.n, 1)) + self._heads
        self._indptr = graph.indptr.copy()
        # Sample keep-masks as one (r, m) boolean matrix aligned with the
        # edge arrays — a mutation splices every sample in one axis-1 copy.
        self._keep = np.empty((r, graph.m), dtype=bool)
        for i in range(r):
            if coins == "addressable":
                self._keep[i] = edge_coin_uniforms(tails, heads, i, self.seed) < probs
            else:
                self._keep[i] = self._rng.random(graph.m) < probs
        self._comps = [self._scc_partition(i) for i in range(r)]
        # Bumped on every applied batch; snapshot()/current_graph() caches
        # are keyed by it.
        self._version = 0
        self._graph_cache: "tuple[int, InfluenceGraph] | None" = None
        self._snapshot_cache: "tuple[int, CoarsenResult] | None" = None
        self._rebuild_from_components()

    # ------------------------------------------------------------------
    # Edge-array internals
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges in the current graph."""
        return int(self._tails.size)

    def _find(self, u: int, v: int) -> "tuple[int, bool]":
        """Canonical position of ``(u, v)`` and whether it is present."""
        key = u * max(self.n, 1) + v
        pos = int(np.searchsorted(self._sortkey, key))
        present = pos < self._sortkey.size and int(self._sortkey[pos]) == key
        return pos, present

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` is currently present."""
        return self._find(int(u), int(v))[1]

    def edge_list(self) -> "list[tuple[int, int]]":
        """All current edges as ``(tail, head)`` pairs in canonical order."""
        return list(zip(self._tails.tolist(), self._heads.tolist()))

    def _splice_insert(self, pos: int, u: int, v: int, p: float,
                       hits: np.ndarray) -> None:
        self._tails = np.insert(self._tails, pos, np.int64(u))
        self._heads = np.insert(self._heads, pos, np.int64(v))
        self._probs = np.insert(self._probs, pos, np.float64(p))
        self._sortkey = np.insert(
            self._sortkey, pos, np.int64(u) * np.int64(max(self.n, 1)) + np.int64(v)
        )
        self._ctails = np.insert(self._ctails, pos, self._pi[u])
        self._cheads = np.insert(self._cheads, pos, self._pi[v])
        self._keep = np.insert(self._keep, pos, hits, axis=1)
        self._indptr[u + 1:] += 1

    def _splice_delete(self, pos: int, u: int) -> None:
        self._tails = np.delete(self._tails, pos)
        self._heads = np.delete(self._heads, pos)
        self._probs = np.delete(self._probs, pos)
        self._sortkey = np.delete(self._sortkey, pos)
        self._ctails = np.delete(self._ctails, pos)
        self._cheads = np.delete(self._cheads, pos)
        self._keep = np.delete(self._keep, pos, axis=1)
        self._indptr[u + 1:] -= 1

    # ------------------------------------------------------------------
    # Sample internals
    # ------------------------------------------------------------------

    def _insert_coins(self, u: int, v: int, p: float) -> np.ndarray:
        """Boolean materialisation decisions for a new edge, one per sample."""
        if self.coins == "addressable":
            us = np.array([u], dtype=np.int64)
            vs = np.array([v], dtype=np.int64)
            coins = np.array(
                [edge_coin_uniforms(us, vs, i, self.seed)[0]
                 for i in range(self.r)],
                dtype=np.float64,
            )
            return coins < p
        return self._rng.random(self.r) < p

    def _scc_partition(self, i: int) -> Partition:
        """SCC partition of live-edge sample ``i`` (mask over canonical CSR)."""
        keep = self._keep[i]
        counts = np.bincount(self._tails[keep], minlength=self.n)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return Partition(scc_labels(indptr, self._heads[keep]))

    def _sample_reaches(self, i: int, src: int, dst: int) -> "bool | None":
        """Does ``src`` reach ``dst`` in live sample ``i``?

        ``None`` means the probe visited more than ``_REACH_CAP`` vertices
        and gave up — the caller must fall back to a full recomputation.
        Live samples of influence graphs are sparse (expected out-degree
        ``sum(p)/n``), so forward closures are tiny in the common case.
        """
        keep = self._keep[i]
        indptr = self._indptr
        heads = self._heads
        seen = {src}
        frontier = [src]
        while frontier:
            next_frontier: "list[int]" = []
            for w in frontier:
                lo, hi = int(indptr[w]), int(indptr[w + 1])
                if hi == lo:
                    continue
                for h in heads[lo:hi][keep[lo:hi]].tolist():
                    if h == dst:
                        return True
                    if h not in seen:
                        seen.add(h)
                        next_frontier.append(h)
            if len(seen) > _REACH_CAP:
                return None
            frontier = next_frontier
        return False

    def _refresh_samples(self, dirty: "list[int]") -> bool:
        """Recompute the SCC partitions of the ``dirty`` samples against the
        current masks; True when any partition changed."""
        changed = False
        for i in dirty:
            new_comp = self._scc_partition(i)
            if new_comp != self._comps[i]:
                self._comps[i] = new_comp
                changed = True
        return changed

    # ------------------------------------------------------------------
    # Coarse-graph internals
    # ------------------------------------------------------------------

    def _rebuild_from_components(self) -> None:
        """Recompute ``P_r``, ``pi``, and the ``H`` bundle arrays from the
        current ``C_i`` — the same fold and contraction the cold paths run,
        so the result is bit-for-bit a cold rebuild."""
        partition = Partition.trivial(self.n)
        for comp in self._comps:
            partition = partition.meet(comp)
        self._partition = partition
        self._pi = partition.labels
        self._nb = partition.n_blocks
        self._weights = partition.block_sizes()
        self._ctails = self._pi[self._tails]
        self._cheads = self._pi[self._heads]
        cross = self._ctails != self._cheads
        ct, ch, cq = combine_parallel_edges(
            self._ctails[cross], self._cheads[cross], self._probs[cross]
        )
        self._cq_tails = np.ascontiguousarray(ct, dtype=np.int64)
        self._cq_heads = np.ascontiguousarray(ch, dtype=np.int64)
        self._cq_probs = np.ascontiguousarray(cq, dtype=np.float64)
        self._cq_sortkey = (
            self._cq_tails * np.int64(max(self._nb, 1)) + self._cq_heads
        )

    def _bundle_q(self, probs: np.ndarray) -> float:
        """``1 - prod(1 - p)`` over one bundle's members, canonical order.

        Mirrors :func:`repro.graph.builder.combine_parallel_edges` exactly:
        members arrive in canonical original-edge order (its stable lexsort
        preserves that order within a bundle), log-miss terms are
        accumulated sequentially (``np.add.at`` is unbuffered), and the
        result is clipped to ``(0, 1]`` — so the maintained ``q`` is
        bit-for-bit what a static contraction would produce.
        """
        with np.errstate(divide="ignore"):
            log_miss = np.log1p(-probs)
        total = np.zeros(1, dtype=np.float64)
        np.add.at(total, np.zeros(probs.size, dtype=np.intp), log_miss)
        q = -np.expm1(total[0])
        return float(np.clip(q, np.nextafter(0.0, 1.0), 1.0))

    def _patch_bundle(self, cu: int, cv: int) -> bool:
        """Recompute bundle ``(cu, cv)`` from its current member edges.

        Fast-path only (``pi`` unchanged).  Returns True when the coarse
        graph actually changed — a bundle appeared, vanished, or had its
        ``q`` change bitwise.
        """
        members = (self._ctails == cu) & (self._cheads == cv)
        probs = self._probs[members]
        key = cu * max(self._nb, 1) + cv
        pos = int(np.searchsorted(self._cq_sortkey, key))
        exists = (pos < self._cq_sortkey.size
                  and int(self._cq_sortkey[pos]) == key)
        if probs.size == 0:
            if not exists:
                return False
            self._cq_tails = np.delete(self._cq_tails, pos)
            self._cq_heads = np.delete(self._cq_heads, pos)
            self._cq_probs = np.delete(self._cq_probs, pos)
            self._cq_sortkey = np.delete(self._cq_sortkey, pos)
            return True
        q = self._bundle_q(probs)
        if exists:
            if float(self._cq_probs[pos]) == q:
                return False
            self._cq_probs[pos] = q
            return True
        self._cq_tails = np.insert(self._cq_tails, pos, np.int64(cu))
        self._cq_heads = np.insert(self._cq_heads, pos, np.int64(cv))
        self._cq_probs = np.insert(self._cq_probs, pos, np.float64(q))
        self._cq_sortkey = np.insert(self._cq_sortkey, pos, np.int64(key))
        return True

    # ------------------------------------------------------------------
    # Updates (Algorithm 7)
    # ------------------------------------------------------------------

    def insert_edge(self, u: int, v: int, p: float) -> dict:
        """Insert edge ``(u, v)`` with probability ``p``."""
        return self.apply_deltas([Delta("insert", u, v, p)])

    def delete_edge(self, u: int, v: int) -> dict:
        """Delete edge ``(u, v)``."""
        return self.apply_deltas([Delta("delete", u, v)])

    def _validate_deltas(self, deltas: Sequence[Delta]) -> None:
        """Check the whole batch against a simulated edge set first.

        Makes :meth:`apply_deltas` all-or-nothing at the *graph* level: a
        malformed delta anywhere in the batch raises before any state is
        touched, so the serving layer can map it to a 400 without ever
        publishing (or holding) a half-applied model.
        """
        overlay: "dict[tuple[int, int], bool]" = {}
        for d in deltas:
            u, v = int(d.u), int(d.v)
            if d.op == "insert":
                if u == v:
                    raise CoarseningError("self-loops are not allowed")
                if not (0 <= u < self.n and 0 <= v < self.n):
                    raise CoarseningError(
                        f"edge endpoints must lie in [0, {self.n})"
                    )
                if d.p is None or not 0.0 < d.p <= 1.0:
                    raise CoarseningError(
                        "influence probability must lie in (0, 1]"
                    )
                if overlay.get((u, v), self.has_edge(u, v)):
                    raise CoarseningError(f"edge ({u}, {v}) already present")
                overlay[(u, v)] = True
            else:
                if not overlay.get((u, v), self.has_edge(u, v)):
                    raise CoarseningError(f"edge ({u}, {v}) not present")
                overlay[(u, v)] = False

    def _update_sample_after_insert(self, i: int, u: int, v: int) -> bool:
        """Assess sample ``i`` after a materialised insert; True when its
        SCCs need recomputation (the caller defers it to the batch end)."""
        labels = self._comps[i].labels
        if labels[u] == labels[v]:
            # Intra-SCC edge: every new path x ~> u -> v ~> y already
            # existed via u ~> v inside the component.  No SCC change.
            self.stats.scc_skipped += 1
            self.stats.scc_pruned += 1
            return False
        reaches = self._sample_reaches(i, v, u)
        if reaches is False:
            # No live path v ~> u, so u -> v closes no cycle: the sample
            # gains reachability but its SCCs are exactly as before.
            self.stats.scc_skipped += 1
            self.stats.scc_pruned += 1
            return False
        self.stats.scc_recomputations += 1
        return True

    def _update_sample_after_delete(self, i: int, u: int, v: int) -> bool:
        """Assess sample ``i`` after a materialised delete; True when its
        SCCs need recomputation (the caller defers it to the batch end)."""
        labels = self._comps[i].labels
        if labels[u] != labels[v]:
            # The edge crossed two SCCs, so it lay on no cycle; removing
            # it cannot split (or otherwise change) any component.
            self.stats.scc_skipped += 1
            self.stats.scc_pruned += 1
            return False
        self.stats.scc_recomputations += 1
        return True

    def apply_deltas(self, deltas: "Sequence[Delta] | Iterable[Delta]") -> dict:
        """Apply a batch of edge mutations (Algorithm 7, batched).

        The batch is validated up front (all-or-nothing), pruning checks
        run per materialised delta (see the module docstring), and all the
        SCC recomputations the checks could not prune are deferred and run
        **once** per dirty sample against the final masks.  The
        partition/bundle state is likewise repaired once at the end: a
        single ``_rebuild_from_components`` if any sample's partition
        changed, else one exact recompute per touched coarse bundle.

        Returns a summary dict ``{"applied", "fast", "rebuilt",
        "coarse_changed"}`` — ``coarse_changed`` is False exactly when the
        maintained ``H``/``pi`` survived the batch bit-for-bit, which the
        serving layer uses to retain the published model object (and the
        sample pools bound to it) across the epoch.
        """
        deltas = list(deltas)
        if not deltas:
            return {"applied": 0, "fast": 0, "rebuilt": False,
                    "coarse_changed": False}
        self._validate_deltas(deltas)
        # Samples whose pruning checks failed: their SCCs are recomputed
        # ONCE, against the final masks, after the whole batch has been
        # spliced.  Deferral is exact — pruned deltas provably leave a
        # sample's partition unchanged, so a never-dirty sample's labels
        # stay the true SCCs of its current mask throughout the loop, and a
        # dirty sample skips further checks (its labels are stale) and
        # heads straight to the deferred recomputation.
        dirty: "dict[int, None]" = {}
        touched: "dict[tuple[int, int], None]" = {}
        for d in deltas:
            u, v = int(d.u), int(d.v)
            if d.op == "insert":
                p = float(d.p)  # type: ignore[arg-type]
                self.stats.insertions += 1
                hits = self._insert_coins(u, v, p)
                pos, _ = self._find(u, v)
                self._splice_insert(pos, u, v, p, hits)
                for i in range(self.r):
                    if not hits[i]:
                        self.stats.scc_skipped += 1
                    elif i in dirty:
                        self.stats.scc_recomputations += 1
                    elif self._update_sample_after_insert(i, u, v):
                        dirty[i] = None
            else:
                self.stats.deletions += 1
                pos, _ = self._find(u, v)
                kept = self._keep[:, pos].copy()
                self._splice_delete(pos, u)
                for i in range(self.r):
                    if not kept[i]:
                        self.stats.scc_skipped += 1
                    elif i in dirty:
                        self.stats.scc_recomputations += 1
                    elif self._update_sample_after_delete(i, u, v):
                        dirty[i] = None
            touched[(int(self._pi[u]), int(self._pi[v]))] = None
        changed = self._refresh_samples(list(dirty)) if dirty else False
        coarse_changed = False
        if changed:
            self.stats.full_rebuilds += 1
            self._rebuild_from_components()
            coarse_changed = True
        else:
            self.stats.fast_updates += len(deltas)
            for cu, cv in touched:
                if cu != cv and self._patch_bundle(cu, cv):
                    coarse_changed = True
        self._version += 1
        inc("dynamic.deltas", len(deltas))
        return {"applied": len(deltas), "fast": 0 if changed else len(deltas),
                "rebuilt": changed, "coarse_changed": coarse_changed}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def current_graph(self) -> InfluenceGraph:
        """The latest snapshot of the underlying influence graph ``G``.

        Built straight from the maintained CSR-ordered arrays (no sort)
        and cached per update-version, so repeated calls within one epoch
        share the same immutable object — and its content digest.
        """
        if self._graph_cache is not None and self._graph_cache[0] == self._version:
            return self._graph_cache[1]
        graph = InfluenceGraph(
            self._indptr.copy(), self._heads.copy(), self._probs.copy(),
            validate=False,  # library-maintained arrays, invariants upheld
        )
        self._graph_cache = (self._version, graph)
        return graph

    def snapshot(self) -> CoarsenResult:
        """The maintained coarsening as a :class:`CoarsenResult`.

        Cached per update-version; the coarse CSR is assembled from the
        maintained sorted bundle arrays without any Python-level
        iteration, so a snapshot costs O(coarse_m) array copies.
        """
        if (self._snapshot_cache is not None
                and self._snapshot_cache[0] == self._version):
            return self._snapshot_cache[1]
        counts = np.bincount(self._cq_tails, minlength=self._nb)
        indptr = np.zeros(self._nb + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        coarse = InfluenceGraph(
            indptr, self._cq_heads.copy(), self._cq_probs.copy(),
            weights=self._weights.copy(),
            validate=False,  # library-maintained arrays, invariants upheld
        )
        stats = CoarsenStats(
            r=self.r,
            input_vertices=self.n,
            input_edges=self.m,
            output_vertices=coarse.n,
            output_edges=coarse.m,
        )
        result = CoarsenResult(
            coarse=coarse, pi=self._pi.copy(), partition=self._partition,
            stats=stats,
        )
        self._snapshot_cache = (self._version, result)
        return result

    def reference_coarsening(self) -> CoarsenResult:
        """Coarsen the current graph from scratch *with the same samples*.

        Used by tests and the dynamic-updates benchmark to verify that the
        incremental state matches a full recomputation.  Under
        ``coins="addressable"`` the stronger oracle
        :func:`coarsen_addressable` (which re-derives the samples
        themselves) applies as well.
        """
        partition = Partition.trivial(self.n)
        for comp in self._comps:
            partition = partition.meet(comp)
        coarse, pi = coarsen(self.current_graph(), partition)
        return CoarsenResult(
            coarse=coarse,
            pi=pi,
            partition=partition,
            stats=CoarsenStats(r=self.r),
        )
