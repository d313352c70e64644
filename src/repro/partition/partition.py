"""Array-represented vertex partitions and the meet operation.

A partition of ``V = {0..n-1}`` is stored as a label array ``P`` where
``P[v]`` is the id of the block containing ``v`` (Appendix B of the paper).
The *meet* ``P ∧ Q`` — the coarsest partition finer than both — is the core
incremental step of r-robust SCC construction (Theorem 4.11):
``P_i = P_{i-1} ∧ C_i``.

:func:`meet_labels` computes the meet with a packed-key ``numpy.unique``
instead of the paper's Algorithm 5 (a single scan with a hash table): the
result is the same canonical labelling, without an interpreted per-vertex
loop.  The test suite keeps Algorithm 5 verbatim as the reference it is
checked against.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from ..errors import PartitionError
from ..obs import inc, span

__all__ = ["Partition", "meet_all", "meet_labels"]


def meet_labels(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vectorised meet of two label arrays (canonical output labels).

    Blocks of the result are the non-empty intersections of a block of ``p``
    with a block of ``q``.  Output labels are numbered by first occurrence,
    so the result is canonical.
    """
    if p.shape != q.shape:
        raise PartitionError("partitions must cover the same vertex set")
    if p.size == 0:
        return p.astype(np.int64)
    # Pack (p, q) pairs into one int64 key.  Labels are < n, so the product
    # fits comfortably for any graph that fits in memory.
    q_span = int(q.max()) + 1
    key = p.astype(np.int64) * q_span + q.astype(np.int64)
    _, inverse = np.unique(key, return_inverse=True)
    return _canonicalize(inverse.astype(np.int64))


def _meet_pair(pair: "tuple[Partition, Partition]") -> "Partition":
    a, b = pair
    return a.meet(b)


def meet_all(
    partitions: "Sequence[Partition]",
    map_fn: "Callable[..., Iterable[Partition]] | None" = None,
) -> "Partition":
    """Pairwise tree reduction ``p_0 ∧ p_1 ∧ ... ∧ p_{k-1}``.

    Meet is associative and commutative (Theorem 4.11), so the reduction
    tree may be reshaped freely: the result is *identical* to the left
    fold — canonical labels depend only on the final blocks, not on the
    order the meets were taken in.  The tree shape cuts the sequential
    meet depth from ``k - 1`` to ``ceil(log2 k)`` and pairs same-size
    inputs, which keeps intermediate block counts (and hence the packed
    ``np.unique`` key domain) small.

    ``map_fn`` runs one level's independent pair-meets concurrently — pass
    ``ThreadPoolExecutor.map`` to overlap them (the numpy kernels release
    the GIL for the heavy sorts).  The default is the builtin serial
    ``map``.  An odd partition is carried to the next level unmerged.

    Emits a ``meet_tree`` span and bumps the ``meet.tree_depth`` counter
    by the number of levels reduced.
    """
    if not partitions:
        raise PartitionError("meet_all needs at least one partition")
    level = list(partitions)
    run_level = map_fn if map_fn is not None else map
    depth = 0
    with span("meet_tree", count=len(level)):
        while len(level) > 1:
            pairs = list(zip(level[0::2], level[1::2]))
            carry = [level[-1]] if len(level) % 2 else []
            level = list(run_level(_meet_pair, pairs)) + carry
            depth += 1
    inc("meet.tree_depth", depth)
    return level[0]


def _canonicalize(labels: np.ndarray) -> np.ndarray:
    """Renumber labels by order of first occurrence (stable, deterministic)."""
    seen = np.full(int(labels.max()) + 1, -1, dtype=np.int64)
    first = np.full_like(seen, -1)
    # first occurrence position of each label
    idx = np.arange(labels.size - 1, -1, -1, dtype=np.int64)
    first[labels[::-1]] = idx  # later writes win => earliest position retained
    order = np.argsort(first[first >= 0], kind="stable")
    seen_labels = np.nonzero(first >= 0)[0][order]
    seen[seen_labels] = np.arange(seen_labels.size, dtype=np.int64)
    return seen[labels]


class Partition:
    """A partition of ``{0..n-1}`` with canonical labels.

    Instances are immutable value objects; all operations return new
    partitions.  Labels are always canonical (numbered by first occurrence),
    so two partitions with the same blocks compare equal.
    """

    __slots__ = ("labels", "_n_blocks")

    def __init__(self, labels: np.ndarray, canonical: bool = False) -> None:
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        if labels.ndim != 1:
            raise PartitionError("labels must be a 1-d array")
        if labels.size and labels.min() < 0:
            raise PartitionError("labels must be non-negative")
        if not canonical and labels.size:
            labels = _canonicalize(labels)
        self.labels = labels
        self._n_blocks = int(labels.max()) + 1 if labels.size else 0

    # -- constructors ---------------------------------------------------

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        """The one-block partition ``{V}`` (the 0-robust SCC partition)."""
        return cls(np.zeros(n, dtype=np.int64), canonical=True)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        """The all-singletons partition — the finest partition."""
        return cls(np.arange(n, dtype=np.int64), canonical=True)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> "Partition":
        """Build from explicit blocks; blocks must tile ``{0..n-1}``."""
        labels = np.full(n, -1, dtype=np.int64)
        for i, block in enumerate(blocks):
            members = np.asarray(list(block), dtype=np.int64)
            if (labels[members] != -1).any():
                raise PartitionError("blocks overlap")
            labels[members] = i
        if (labels == -1).any():
            raise PartitionError("blocks do not cover every vertex")
        return cls(labels)

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of elements partitioned."""
        return int(self.labels.size)

    @property
    def n_blocks(self) -> int:
        """Number of blocks."""
        return self._n_blocks

    def block_sizes(self) -> np.ndarray:
        """Size of each block, indexed by label."""
        return np.bincount(self.labels, minlength=self._n_blocks).astype(np.int64)

    def members_of(self, label: int) -> np.ndarray:
        """Vertices in block ``label``."""
        return np.nonzero(self.labels == label)[0]

    def blocks(self) -> list[np.ndarray]:
        """All blocks as vertex arrays, indexed by label (single sort pass)."""
        order = np.argsort(self.labels, kind="stable")
        boundaries = np.searchsorted(self.labels[order], np.arange(self._n_blocks + 1))
        return [
            order[boundaries[i]:boundaries[i + 1]] for i in range(self._n_blocks)
        ]

    def non_singleton_blocks(self) -> list[np.ndarray]:
        """Blocks with two or more members (candidates for coarsening gains)."""
        sizes = self.block_sizes()
        return [b for b in self.blocks() if sizes[self.labels[b[0]]] > 1]

    # -- lattice operations ------------------------------------------------

    def meet(self, other: "Partition") -> "Partition":
        """The coarsest common refinement ``self ∧ other``.

        Trivial and discrete arguments short-circuit without the packed
        ``np.unique`` scan: ``{V} ∧ Q = Q`` and ``D ∧ Q = D`` for the
        all-singletons partition ``D``.  Every coarsen run hits both — the
        trivial case on the first r-robust round, the discrete case once the
        partition bottoms out.  Partitions are immutable value objects, so
        returning the argument itself is safe.
        """
        if self.n != other.n:
            raise PartitionError("partitions must cover the same vertex set")
        with span("partition_meet", n=self.n):
            inc("partition.meets")
            if self._n_blocks <= 1:
                return other
            if other._n_blocks <= 1:
                return self
            if self._n_blocks == self.n:
                return self
            if other._n_blocks == other.n:
                return other
            return Partition(meet_labels(self.labels, other.labels),
                             canonical=True)

    def is_refinement_of(self, other: "Partition") -> bool:
        """True when every block of ``self`` lies inside a block of ``other``.

        Equivalent to: within each block of ``self``, the ``other`` label is
        constant.
        """
        if self.n != other.n:
            raise PartitionError("partitions must cover the same vertex set")
        if self.n == 0:
            return True
        return self.meet(other).n_blocks == self.n_blocks

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    def __hash__(self) -> int:
        return hash(self.labels.tobytes())

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, blocks={self.n_blocks})"
