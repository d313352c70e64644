"""Incremental construction and cleaning of influence graphs.

Raw network data (SNAP edge lists, crawls) contains self-loops, duplicate
edges, and undirected edges that must be symmetrised.  The paper's setup
(Section 7.1) discards self-loops and multi-edges and replaces each undirected
edge with a pair of directed edges; :class:`GraphBuilder` implements exactly
that cleaning pipeline.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError
from .influence_graph import InfluenceGraph, check_key_space, sort_edge_keys

__all__ = ["GraphBuilder", "combine_parallel_edges"]


def combine_parallel_edges(
    tails: np.ndarray, heads: np.ndarray, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate ``(tail, head)`` pairs into single edges.

    Returns the distinct edges in ``(tail, head)`` order.  Duplicates are
    combined with the noisy-or rule the paper uses for coarsened edge
    bundles (Eq. 5): ``p = 1 - prod(1 - p_i)``, i.e. the edge fires if any
    copy fires; the ``log(1 - p_i)`` terms are summed in input order.  An
    edge with a single copy keeps its ``p`` unchanged, so a graph built
    from distinct edges stores exactly the probabilities it was given (the
    returned ``probs`` may then be the input array itself).

    Each ``(tail, head)`` is packed into one int64 key
    ``tail * width + head`` with ``width = max head + 1``, so a negative id
    (which would alias another edge's key) or ids whose square overflows
    int64 raise :class:`GraphFormatError`.  The keys are ordered by
    numpy's default (unstable) sort; only the copies of keys that occur
    more than once are then put back in input order, by one sort of
    ``position << b | input index`` keys, which raises
    :class:`GraphFormatError` past ``2**31`` edges.
    """
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    if tails.size == 0:
        return tails, heads, probs
    if tails.min() < 0 or heads.min() < 0:
        raise GraphFormatError("vertex ids must be non-negative")
    width = int(heads.max()) + 1
    check_key_space(max(int(tails.max()) + 1, width))
    keys, order = sort_edge_keys(tails * width + heads)
    boundary = np.empty(keys.size, dtype=bool)
    boundary[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    keys = keys[boundary]
    tails = keys // width
    heads = keys - tails * width
    del keys
    if tails.size == probs.size:
        return tails, heads, probs if order is None else probs[order]
    starts = np.flatnonzero(boundary)
    sizes = np.diff(starts, append=probs.size)
    multi = sizes > 1
    if order is not None:
        _restore_input_order(order, starts[multi], sizes[multi])
        probs = probs[order]
        del order
    group = np.cumsum(boundary) - 1
    del boundary
    # Accumulate log(1 - p) per group; exact for p < 1, and p == 1 forces the
    # combined probability to 1 regardless, which -inf log handles correctly.
    # bincount adds each group's terms one at a time in input order.
    with np.errstate(divide="ignore"):
        sum_log = np.bincount(group, weights=np.log1p(-probs),
                              minlength=starts.size)
    del group
    combined = probs[starts]
    combined[multi] = np.clip(-np.expm1(sum_log[multi]),
                              np.nextafter(0.0, 1.0), 1.0)
    return tails, heads, combined


def _restore_input_order(order: np.ndarray, starts: np.ndarray,
                         sizes: np.ndarray) -> None:
    """Sort ``order`` within each run ``[start, start + size)``, in place.

    The runs are the copies of one key after an unstable sort; ascending
    input indices within each run is what a stable sort would have given.
    """
    total = order.size
    shift = max(total - 1, 0).bit_length()
    if total > 1 << (62 - shift):
        raise GraphFormatError(
            f"{total} edges overflow the int64 copy-order keys"
        )
    positions = np.repeat(starts, sizes)
    members = positions + (np.arange(positions.size, dtype=np.int64)
                           - np.repeat(np.cumsum(sizes) - sizes, sizes))
    packed = np.left_shift(positions, shift)
    packed |= order[members]
    packed.sort()
    packed &= (1 << shift) - 1
    order[members] = packed


class GraphBuilder:
    """Accumulates edges and produces a clean :class:`InfluenceGraph`.

    Parameters
    ----------
    n:
        Number of vertices, or ``None`` to infer ``max id + 1`` at build time.
    combine_duplicates:
        When True (default) parallel edges are merged with the noisy-or rule;
        when False duplicates raise :class:`GraphFormatError`.

    Examples
    --------
    >>> b = GraphBuilder()
    >>> b.add_edge(0, 1, 0.3)
    >>> b.add_edge(1, 0, 0.2)
    >>> g = b.build()
    >>> (g.n, g.m)
    (2, 2)
    """

    def __init__(self, n: int | None = None, combine_duplicates: bool = True) -> None:
        self._n = n
        self._combine = combine_duplicates
        self._tails: list[np.ndarray] = []
        self._heads: list[np.ndarray] = []
        self._probs: list[np.ndarray] = []

    def add_edge(self, tail: int, head: int, prob: float) -> None:
        """Add one directed edge (self-loops are silently dropped)."""
        self.add_edges([tail], [head], [prob])

    def add_edges(self, tails, heads, probs) -> None:
        """Add a batch of directed edges; self-loops are dropped."""
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        if not (tails.shape == heads.shape == probs.shape):
            raise GraphFormatError("edge batch arrays must have equal length")
        keep = tails != heads
        self._tails.append(tails[keep])
        self._heads.append(heads[keep])
        self._probs.append(probs[keep])

    def add_undirected_edges(self, us, vs, probs) -> None:
        """Add undirected edges as bidirected pairs (paper Section 7.1)."""
        self.add_edges(us, vs, probs)
        self.add_edges(vs, us, probs)

    def build(self, weights: np.ndarray | None = None) -> InfluenceGraph:
        """Produce the cleaned :class:`InfluenceGraph`."""
        if self._tails:
            tails = np.concatenate(self._tails)
            heads = np.concatenate(self._heads)
            probs = np.concatenate(self._probs)
        else:
            tails = np.empty(0, dtype=np.int64)
            heads = np.empty(0, dtype=np.int64)
            probs = np.empty(0, dtype=np.float64)
        n = self._n
        if n is None:
            n = int(max(tails.max(initial=-1), heads.max(initial=-1))) + 1
        check_key_space(n)
        # negated form rejects NaN as well as out-of-range values
        if probs.size and not ((probs > 0.0) & (probs <= 1.0)).all():
            raise GraphFormatError("influence probabilities must lie in (0, 1]")
        if self._combine:
            tails, heads, probs = combine_parallel_edges(tails, heads, probs)
        return InfluenceGraph.from_edges(n, tails, heads, probs, weights=weights)
