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
coarse edge bundles touched by the batch need a probability update.  When
some ``C_i`` changed, ``P_r`` is re-folded, and the contraction runs only
if ``pi`` moved; an unchanged ``pi`` takes the same bundle patch.

Internal representation
-----------------------

All maintained state is flat numpy arrays: the edge list in canonical CSR
order (``_indptr``/``_heads``/``_probs``; a row's heads ascend, so
membership is one ``np.searchsorted`` inside a row), each sample as a row
of one ``(r, m)`` boolean keep matrix over that edge list, and the coarse
graph as a parallel set of sorted bundle arrays patched in place on the
fast path.  Tails and coarse endpoints are derived where they are needed,
never stored.

A batch does not touch the edge arrays until its end.  Its pruning probes
read the pre-batch CSR through a small overlay — the base positions the
batch has deleted so far and the edges it has inserted so far, with their
coins — so every probe sees exactly the edge set a one-at-a-time splice
would have produced, and the counters cannot differ.  Then one pass of
contiguous segment copies rebuilds each array, so a batch costs one O(m)
splice, not one per delta.  The spliced arrays are always new objects and
never written afterwards, so ``current_graph()`` shares them; it and
``snapshot()`` are cached per update-version.

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

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..diffusion.live_edge import live_edge_csr_from_mask
from ..diffusion.reachability import gather_ranges
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
    """SplitMix64 finaliser, vectorised over a ``uint64`` array (wraps).

    Returns a fresh array; the rounds run in place in it, with one
    scratch buffer for the shifts.
    """
    x = x + _GOLDEN
    scratch = np.empty_like(x)
    for shift, factor in ((np.uint64(30), _MIX_A), (np.uint64(27), _MIX_B)):
        np.right_shift(x, shift, out=scratch)
        x ^= scratch
        x *= factor
    np.right_shift(x, np.uint64(31), out=scratch)
    x ^= scratch
    return x


def edge_coin_uniforms(
    tails: np.ndarray, heads: np.ndarray, sample_index: int | np.ndarray,
    seed: int,
) -> np.ndarray:
    """Counter-based uniforms in ``[0, 1)``, one per ``(tail, head)`` pair.

    The value for an edge depends only on ``(seed, sample_index, tail,
    head)`` — never on how many draws happened before — so cold and
    incremental constructions of the same live-edge sample agree exactly.
    ``sample_index`` may also be an array, broadcast against the edges:
    one edge's coins in all samples are one call.
    """
    tails = np.asarray(tails).astype(np.uint64)
    heads = np.asarray(heads).astype(np.uint64)
    base = _mix64(
        np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
        + np.atleast_1d(sample_index).astype(np.uint64)
    )
    word = _mix64(_mix64(tails + base) + heads)
    return (word >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _addressable_keep_rows(graph: InfluenceGraph, samples: Iterable[int],
                           seed: int) -> Iterator[np.ndarray]:
    """``edge_coin_uniforms(tails, heads, i, seed) < probs`` over the
    graph's CSR edges, one boolean row per sample ``i`` in ``samples``.

    The same values with less work: the first SplitMix round of ``tail +
    base`` is mixed once per vertex and gathered over the CSR rows, and
    the heads are added in place through a ``uint64`` view.  Only the row
    itself outlives its computation, so a caller's per-sample work (an SCC
    pass) does not run beside ``m``-long hash buffers.
    """
    heads = graph.heads.view(np.uint64)
    tails = graph.tails()
    vertices = np.arange(graph.n, dtype=np.uint64)
    seed_word = np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    for i in samples:
        word = _mix64(vertices + _mix64(seed_word + np.uint64(i)))[tails]
        word += heads
        word = _mix64(word)
        word >>= np.uint64(11)
        keep = word * _INV_2_53 < graph.probs
        del word
        yield keep


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
    partition = Partition.trivial(graph.n)
    with span("coarsen_addressable", r=r, n=graph.n, m=graph.m):
        for keep in _addressable_keep_rows(graph, range(r), seed):
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


class _Overlay:
    """One batch's edits over the pre-batch CSR, until its single splice.

    ``gone[u]`` lists the base positions the batch deleted from row ``u``;
    ``added[u][v]`` is ``(p, hits)`` for each edge the batch inserted and
    has not deleted again.
    """

    __slots__ = ("gone", "added")

    def __init__(self) -> None:
        self.gone: "dict[int, list[int]]" = {}
        self.added: "dict[int, dict[int, tuple[float, np.ndarray]]]" = {}


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

        # Canonical CSR edge arrays.  A batch replaces them with new arrays
        # and never writes into them, so they can be shared: with the
        # input graph here, and with current_graph() later.
        self._indptr = graph.indptr
        self._heads = graph.heads
        self._probs = graph.probs
        # Sample keep-masks as one (r, m) boolean matrix aligned with the
        # edge arrays — a batch splices every sample in one segment pass.
        self._keep = np.empty((r, graph.m), dtype=bool)
        if coins == "addressable":
            for i, keep in enumerate(
                    _addressable_keep_rows(graph, range(r), self.seed)):
                self._keep[i] = keep
        else:
            for i in range(r):
                self._keep[i] = self._rng.random(graph.m) < graph.probs
        self._comps = [self._scc_partition(i) for i in range(r)]
        # Bumped on every applied batch; snapshot()/current_graph() caches
        # are keyed by it.
        self._version = 0
        self._graph_cache: "tuple[int, InfluenceGraph] | None" = None
        self._snapshot_cache: "tuple[int, CoarsenResult] | None" = None
        self._rebuild_from_components(self._fold())

    # ------------------------------------------------------------------
    # Edge-array internals
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges in the current graph."""
        return int(self._heads.size)

    def _find(self, u: int, v: int) -> "tuple[int, bool]":
        """Canonical position of ``(u, v)`` and whether it is present."""
        lo, hi = int(self._indptr[u]), int(self._indptr[u + 1])
        pos = lo + int(np.searchsorted(self._heads[lo:hi], v))
        return pos, pos < hi and int(self._heads[pos]) == v

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` is currently present."""
        u, v = int(u), int(v)
        return 0 <= u < self.n and 0 <= v < self.n and self._find(u, v)[1]

    def edge_list(self) -> "list[tuple[int, int]]":
        """All current edges as ``(tail, head)`` pairs in canonical order."""
        tails = np.repeat(np.arange(self.n, dtype=np.int64),
                          np.diff(self._indptr))
        return list(zip(tails.tolist(), self._heads.tolist()))

    def _splice(self, overlay: "_Overlay") -> None:
        """Apply a batch's overlay to the edge arrays in one pass.

        Each array is rebuilt by contiguous segment copies of the pre-batch
        array between the deleted positions, with the inserted edges
        dropped into their canonical slots; ``_indptr`` moves by one
        cumsum of the per-row count changes.
        """
        inserts = sorted(
            (u, v, p, hits) for u, row in overlay.added.items()
            for v, (p, hits) in row.items()
        )
        deletes = [(pos, u) for u, row in overlay.gone.items()
                   for pos in row]
        # Events in base order; an insert goes before the base edge at its
        # position (that edge sorts after it, or is the deleted old copy),
        # and the stable sort keeps inserts at one position in key order.
        events = sorted(
            [(self._find(u, v)[0], False) for u, v, _, _ in inserts]
            + [(pos, True) for pos, _ in deletes]
        )
        segments: "list[tuple[int, int, int]]" = []
        slots: "list[int]" = []
        src = dst = 0
        for pos, is_delete in events:
            if pos > src:
                segments.append((src, pos, dst))
                dst += pos - src
                src = pos
            if is_delete:
                src = pos + 1
            else:
                slots.append(dst)
                dst += 1
        m = self.m
        if src < m:
            segments.append((src, m, dst))
        size = dst + m - src

        def splice(base: np.ndarray, new) -> np.ndarray:
            out = np.empty(base.shape[:-1] + (size,), dtype=base.dtype)
            for lo, hi, at in segments:
                out[..., at:at + hi - lo] = base[..., lo:hi]
            if slots:
                out[..., slots] = new
            return out

        added_tails = np.array([e[0] for e in inserts], dtype=np.int64)
        self._heads = splice(self._heads, [e[1] for e in inserts])
        self._probs = splice(self._probs, [e[2] for e in inserts])
        self._keep = splice(
            self._keep,
            np.array([e[3] for e in inserts], dtype=bool)
            .reshape(len(inserts), self.r).T,
        )
        gone_tails = np.array([u for _, u in deletes], dtype=np.int64)
        change = (np.bincount(added_tails + 1, minlength=self.n + 1)
                  - np.bincount(gone_tails + 1, minlength=self.n + 1))
        self._indptr = self._indptr + np.cumsum(change)

    # ------------------------------------------------------------------
    # Sample internals
    # ------------------------------------------------------------------

    def _insert_coins(self, u: int, v: int, p: float) -> np.ndarray:
        """Boolean materialisation decisions for a new edge, one per sample."""
        if self.coins == "addressable":
            samples = np.arange(self.r, dtype=np.int64)
            return edge_coin_uniforms([u], [v], samples, self.seed) < p
        return self._rng.random(self.r) < p

    def _scc_partition(self, i: int) -> Partition:
        """SCC partition of live-edge sample ``i`` (mask over canonical CSR)."""
        # Row u's live edges are the kept positions in [indptr[u],
        # indptr[u+1]), so the live CSR's indptr counts kept positions
        # below each base row start.
        live = np.flatnonzero(self._keep[i])
        return Partition(scc_labels(np.searchsorted(live, self._indptr),
                                    self._heads[live]))

    def _sample_reaches(self, i: int, src: int, dst: int,
                        overlay: "_Overlay") -> "bool | None":
        """Does ``src`` reach ``dst`` in live sample ``i``?

        Reads the pre-batch CSR through ``overlay``, i.e. the sample as
        the batch has left it so far.  ``None`` means the probe visited
        more than ``_REACH_CAP`` vertices and gave up — the caller must
        fall back to a full recomputation.  Live samples of influence
        graphs are sparse (expected out-degree ``sum(p)/n``), so forward
        closures are tiny in the common case.
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
                live = keep[lo:hi]
                gone = overlay.gone.get(w)
                if gone:
                    live = live.copy()
                    live[np.asarray(gone) - lo] = False
                out = heads[lo:hi][live].tolist()
                added = overlay.added.get(w)
                if added:
                    out += [h for h, (_, hits) in added.items() if hits[i]]
                for h in out:
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

    def _fold(self) -> Partition:
        """``P_r``: the meet of the current ``C_i``, as the cold paths fold."""
        partition = Partition.trivial(self.n)
        for comp in self._comps:
            partition = partition.meet(comp)
        return partition

    def _rebuild_from_components(self, partition: Partition) -> None:
        """Adopt ``partition`` (the current :meth:`_fold`) as ``P_r`` and
        recompute ``pi`` and the ``H`` bundle arrays — the same contraction
        the cold paths run, so the result is bit-for-bit a cold rebuild."""
        self._partition = partition
        self._pi = partition.labels
        self._nb = partition.n_blocks
        self._weights = partition.block_sizes()
        # Block members in ascending vertex order, for _patch_bundle.
        self._members = np.argsort(self._pi, kind="stable")
        self._member_ptr = np.zeros(self._nb + 1, dtype=np.int64)
        np.cumsum(self._weights, out=self._member_ptr[1:])
        ctails = np.repeat(self._pi, np.diff(self._indptr))
        cheads = self._pi[self._heads]
        cross = ctails != cheads
        ct, ch, cq = combine_parallel_edges(
            ctails[cross], cheads[cross], self._probs[cross]
        )
        self._cq_tails = np.ascontiguousarray(ct, dtype=np.int64)
        self._cq_heads = np.ascontiguousarray(ch, dtype=np.int64)
        self._cq_probs = np.ascontiguousarray(cq, dtype=np.float64)
        self._cq_sortkey = (
            self._cq_tails * np.int64(max(self._nb, 1)) + self._cq_heads
        )

    def _bundle_q(self, probs: np.ndarray) -> float:
        """``1 - prod(1 - p)`` over one bundle's members, canonical order.

        Runs :func:`repro.graph.builder.combine_parallel_edges` on the
        bundle alone: members arrive in canonical original-edge order (the
        contraction's combine sums each bundle in that order too), so the
        maintained ``q`` is bit-for-bit what a static contraction would
        produce, including ``q == p`` for a single-member bundle.
        """
        zeros = np.zeros(probs.size, dtype=np.int64)
        return float(combine_parallel_edges(zeros, zeros, probs)[2][0])

    def _patch_bundle(self, cu: int, cv: int) -> bool:
        """Recompute bundle ``(cu, cv)`` from its current member edges.

        Fast-path only (``pi`` unchanged).  The members are read from the
        out-rows of block ``cu``'s vertices in ascending order, i.e. in
        canonical edge order.  Returns True when the coarse graph actually
        changed — a bundle appeared, vanished, or had its ``q`` change
        bitwise.
        """
        verts = self._members[self._member_ptr[cu]:self._member_ptr[cu + 1]]
        rows = gather_ranges(self._indptr[verts], self._indptr[verts + 1])
        probs = self._probs[rows[self._pi[self._heads[rows]] == cv]]
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

    def _update_sample_after_insert(self, i: int, u: int, v: int,
                                    overlay: "_Overlay") -> bool:
        """Assess sample ``i`` after a materialised insert; True when its
        SCCs need recomputation (the caller defers it to the batch end)."""
        labels = self._comps[i].labels
        if labels[u] == labels[v]:
            # Intra-SCC edge: every new path x ~> u -> v ~> y already
            # existed via u ~> v inside the component.  No SCC change.
            self.stats.scc_skipped += 1
            self.stats.scc_pruned += 1
            return False
        reaches = self._sample_reaches(i, v, u, overlay)
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
        run per materialised delta (see the module docstring) against the
        pre-batch arrays plus the batch's overlay, the edge arrays are
        spliced once, and all the SCC recomputations the checks could not
        prune run **once** per dirty sample against the final masks.  The
        partition/bundle state is likewise repaired once at the end: a
        re-fold if any sample's partition changed, and a contraction only
        if the fold moved ``pi``; else one exact recompute per touched
        coarse bundle.  ``"rebuilt"`` (and ``DynamicStats.full_rebuilds``)
        still means a sample partition changed.

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
        overlay = _Overlay()
        for d in deltas:
            u, v = int(d.u), int(d.v)
            if d.op == "insert":
                p = float(d.p)  # type: ignore[arg-type]
                self.stats.insertions += 1
                hits = self._insert_coins(u, v, p)
                overlay.added.setdefault(u, {})[v] = (p, hits)
                for i in range(self.r):
                    if not hits[i]:
                        self.stats.scc_skipped += 1
                    elif i in dirty:
                        self.stats.scc_recomputations += 1
                    elif self._update_sample_after_insert(i, u, v, overlay):
                        dirty[i] = None
            else:
                self.stats.deletions += 1
                row = overlay.added.get(u)
                if row is not None and v in row:
                    kept = row.pop(v)[1]
                else:
                    pos = self._find(u, v)[0]
                    overlay.gone.setdefault(u, []).append(pos)
                    kept = self._keep[:, pos]
                for i in range(self.r):
                    if not kept[i]:
                        self.stats.scc_skipped += 1
                    elif i in dirty:
                        self.stats.scc_recomputations += 1
                    elif self._update_sample_after_delete(i, u, v):
                        dirty[i] = None
            touched[(int(self._pi[u]), int(self._pi[v]))] = None
        self._splice(overlay)
        changed = self._refresh_samples(list(dirty)) if dirty else False
        coarse_changed = False
        if changed:
            self.stats.full_rebuilds += 1
            partition = self._fold()
            # A changed C_i often leaves the meet as it was; then pi, the
            # block members and every untouched bundle stand, and only the
            # touched bundles are patched, exactly as on the fast path.
            if not np.array_equal(partition.labels, self._pi):
                self._rebuild_from_components(partition)
                touched, coarse_changed = {}, True
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
            self._indptr, self._heads, self._probs,
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
