"""CSR-backed directed influence graphs.

An *influence graph* ``G = (V, E, p)`` (Section 3 of the paper) is a directed
graph whose edges carry an activation probability ``p(e) in (0, 1]``.  A
*vertex-weighted* influence graph additionally assigns a positive integer
weight to every vertex; coarsened graphs produced by this library are
vertex-weighted, with ``w(c)`` equal to the number of original vertices merged
into ``c``.

The representation is a compressed sparse row (CSR) adjacency: ``indptr`` of
length ``n + 1`` and parallel arrays ``heads`` / ``probs`` of length ``m``,
sorted by tail then head.  Edge ``i`` runs from ``tails[i]`` to ``heads[i]``
with probability ``probs[i]``; edge ids are CSR positions.  Graphs are
immutable once constructed — the dynamic-update module keeps its own mutable
state and emits fresh graphs.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError

__all__ = ["InfluenceGraph"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def check_key_space(n: int) -> None:
    """Raise :class:`GraphFormatError` unless ``n * n`` fits in int64.

    Edges are sorted and grouped by the packed key ``tail * n + head``; with
    ids in ``[0, n)`` every key is below ``n * n``, so this bound is what
    keeps two edges from sharing a key.
    """
    if int(n) ** 2 > _INT64_MAX:
        raise GraphFormatError(
            f"{n} vertices overflow the int64 edge key (n * n > 2**63 - 1)"
        )


def sort_edge_keys(keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray | None]":
    """``(keys, order)`` with ``keys`` in non-decreasing order.

    Keys already in order come back as given with ``order`` None.
    Otherwise one argsort (numpy's default, unstable) orders them and
    ``order`` is the permutation, for the caller to gather the arrays it
    needs; copies of one key may come out in any order.
    """
    if keys.size < 2 or not (keys[1:] < keys[:-1]).any():
        return keys, None
    order = np.argsort(keys)
    return keys[order], order


class InfluenceGraph:
    """An immutable directed influence graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; out-edges of vertex ``v`` occupy
        CSR positions ``indptr[v]:indptr[v + 1]``.
    heads:
        ``int64`` array of length ``m`` with edge head vertices.
    probs:
        ``float64`` array of length ``m`` with influence probabilities in
        ``(0, 1]``.
    weights:
        Optional ``int64`` array of per-vertex weights (defaults to all ones,
        i.e. an unweighted graph).
    validate:
        Check structural invariants (monotone indptr, head range, probability
        range, no self-loops).  Disable only for data produced by this
        library itself.

    Use :meth:`from_edges` (or :class:`repro.graph.builder.GraphBuilder`) to
    construct a graph from unsorted edge arrays.
    """

    __slots__ = ("indptr", "heads", "probs", "_weights", "_tails", "_reverse",
                 "_digest")

    def __init__(
        self,
        indptr: np.ndarray,
        heads: np.ndarray,
        probs: np.ndarray,
        weights: np.ndarray | None = None,
        validate: bool = True,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.heads = np.ascontiguousarray(heads, dtype=np.int64)
        self.probs = np.ascontiguousarray(probs, dtype=np.float64)
        self._weights = (
            None if weights is None else np.ascontiguousarray(weights, dtype=np.int64)
        )
        self._tails: np.ndarray | None = None
        self._reverse: "InfluenceGraph | None" = None
        self._digest: str | None = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        tails: np.ndarray,
        heads: np.ndarray,
        probs: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> "InfluenceGraph":
        """Build a graph from parallel edge arrays (any order).

        Edges are put into CSR order by one packed key ``tail * n + head``;
        input already in that order is not sorted again, and its arrays
        may then be shared with the graph, as with the constructor.
        Self-loops and duplicate edges are rejected; use
        :class:`~repro.graph.builder.GraphBuilder` to clean raw data first.
        """
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        if not (tails.shape == heads.shape == probs.shape):
            raise GraphFormatError("tails, heads and probs must have equal length")
        if tails.size:
            if tails.min() < 0 or tails.max() >= n:
                raise GraphFormatError("edge tail out of range")
            if heads.min() < 0 or heads.max() >= n:
                raise GraphFormatError("edge head out of range")
        check_key_space(n)
        # A valid edge set has distinct keys, and a duplicate is caught
        # below whatever the order of its copies.
        keys, order = sort_edge_keys(tails * n + heads)
        if keys.size > 1 and (keys[1:] == keys[:-1]).any():
            raise GraphFormatError(
                "duplicate edges present; combine them with GraphBuilder"
            )
        if order is not None:
            probs = probs[order]
            del order
            tails = keys // n
            heads = keys - tails * n
        del keys
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
        return cls(indptr, heads, probs, weights=weights)

    @classmethod
    def empty(cls, n: int) -> "InfluenceGraph":
        """An ``n``-vertex graph with no edges."""
        return cls(
            np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

    def _validate(self) -> None:
        n = self.n
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise GraphFormatError("indptr must be a 1-d array of length n + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.heads.size:
            raise GraphFormatError("indptr must start at 0 and end at m")
        if (np.diff(self.indptr) < 0).any():
            raise GraphFormatError("indptr must be non-decreasing")
        if self.heads.size != self.probs.size:
            raise GraphFormatError("heads and probs must have equal length")
        if self.heads.size:
            if self.heads.min() < 0 or self.heads.max() >= n:
                raise GraphFormatError("edge head out of range")
            # note the negated form: it also rejects NaN, which would pass
            # a pair of direct comparisons
            if not ((self.probs > 0.0) & (self.probs <= 1.0)).all():
                raise GraphFormatError("influence probabilities must lie in (0, 1]")
            # a temporary tails array: caching it would keep m int64s alive
            # on every validated graph, and most never read their tails
            tails = np.repeat(np.arange(n, dtype=np.int64),
                              np.diff(self.indptr))
            if (tails == self.heads).any():
                raise GraphFormatError("self-loops are not allowed")
        if self._weights is not None:
            if self._weights.shape != (n,):
                raise GraphFormatError("weights must have one entry per vertex")
            if (self._weights <= 0).any():
                raise GraphFormatError("vertex weights must be positive")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return int(self.indptr.size - 1)

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return int(self.heads.size)

    @property
    def is_weighted(self) -> bool:
        """Whether explicit vertex weights were provided."""
        return self._weights is not None

    @property
    def weights(self) -> np.ndarray:
        """Per-vertex weights (all ones when the graph is unweighted)."""
        if self._weights is None:
            return np.ones(self.n, dtype=np.int64)
        return self._weights

    @property
    def total_weight(self) -> int:
        """Sum of all vertex weights (``n`` for unweighted graphs)."""
        if self._weights is None:
            return self.n
        return int(self._weights.sum())

    def tails(self) -> np.ndarray:
        """Edge tail array aligned with ``heads``/``probs`` (cached)."""
        if self._tails is None:
            self._tails = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(self.indptr)
            )
        return self._tails

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(tails, heads, probs)`` triplet arrays in CSR edge order."""
        return self.tails(), self.heads, self.probs

    def out_degree(self, v: int | None = None) -> "np.ndarray | int":
        """Out-degree of ``v``, or the full out-degree array when ``v`` is None."""
        if v is None:
            return np.diff(self.indptr)
        return int(self.indptr[v + 1] - self.indptr[v])

    def in_degree(self) -> np.ndarray:
        """In-degree array (computed without materialising the reverse graph)."""
        return np.bincount(self.heads, minlength=self.n).astype(np.int64)

    def out_edges(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """``(heads, probs)`` slices for the out-edges of vertex ``v``."""
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.heads[lo:hi], self.probs[lo:hi]

    def iter_edges(self):
        """Yield ``(tail, head, prob)`` triplets in CSR order.

        Prefer :meth:`edge_arrays` in performance-sensitive code; this
        iterator exists for tests, examples, and the disk writer.
        """
        tails = self.tails()
        for i in range(self.m):
            yield int(tails[i]), int(self.heads[i]), float(self.probs[i])

    def digest(self) -> str:
        """A content hash of the graph (structure, probabilities, weights).

        Two graphs with equal CSR arrays and weights share the digest, so it
        serves as a cache key for derived artifacts (the ``repro.serve``
        model cache keys coarsenings by it).  Cached after the first call;
        graphs are immutable, so the hash can never go stale.
        """
        if self._digest is None:
            import hashlib

            h = hashlib.blake2b(digest_size=16)
            h.update(self.n.to_bytes(8, "little"))
            h.update(self.indptr.tobytes())
            h.update(self.heads.tobytes())
            h.update(self.probs.tobytes())
            h.update(b"w" if self._weights is not None else b"u")
            if self._weights is not None:
                h.update(self._weights.tobytes())
            self._digest = h.hexdigest()
        return self._digest

    def _install_digest(self, digest: str) -> None:
        """Install an externally derived digest into the lazy cache slot.

        Library-internal: the serve layer's live-graph lineage addresses
        delta-epochs by a *chained* digest (parent digest + canonical
        delta encoding) so each epoch key costs O(|deltas|) instead of the
        O(n + m) content hash.  The caller owns the equivalence argument;
        a digest that has already been computed (or installed) is never
        overwritten — the first value wins, keeping every holder of this
        immutable graph consistent.
        """
        if self._digest is None:
            self._digest = digest

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def reverse(self) -> "InfluenceGraph":
        """The transpose graph (all edges flipped), with the same weights.

        The result is cached; reverse-reachability sampling calls this on
        every invocation.
        """
        if self._reverse is None:
            rev = InfluenceGraph.from_edges(
                self.n, self.heads, self.tails(), self.probs, weights=self._weights
            )
            rev._reverse = self
            self._reverse = rev
        return self._reverse

    def with_probabilities(self, probs: np.ndarray) -> "InfluenceGraph":
        """A structurally identical graph with new edge probabilities.

        Used to apply the probability settings of Section 7.1 (EXP / TRI /
        UC / WC) to one topology.
        """
        return InfluenceGraph(self.indptr, self.heads, probs, weights=self._weights)

    def induced_subgraph(self, vertices: np.ndarray) -> "InfluenceGraph":
        """The influence subgraph ``G[V']`` spanned by ``vertices``.

        Vertices are relabelled ``0..len(vertices)-1`` in the order given.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        local = np.full(self.n, -1, dtype=np.int64)
        local[vertices] = np.arange(vertices.size, dtype=np.int64)
        tails, heads, probs = self.edge_arrays()
        keep = (local[tails] >= 0) & (local[heads] >= 0)
        weights = None if self._weights is None else self._weights[vertices]
        return InfluenceGraph.from_edges(
            vertices.size, local[tails[keep]], local[heads[keep]], probs[keep],
            weights=weights,
        )

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        kind = "weighted " if self.is_weighted else ""
        return f"InfluenceGraph({kind}n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InfluenceGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.heads, other.heads)
            and np.allclose(self.probs, other.probs)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:  # graphs are mutable-free but large; id-hash
        return id(self)
