"""Shared RR-set sample pools (the query-coalescing substrate).

One :class:`SamplePool` exists per cached model.  It owns a grow-only
RR-set collection: a query needing ``t`` sets calls
:meth:`SamplePool.ensure`, which draws only the shortfall, and then scores
its seed set against the *prefix* ``rr_sets[:t]``.  Because sets are
appended in draw order, the prefix of length ``t`` is distributed exactly
as an independent collection of ``t`` sets — so many concurrent queries
(with different seed sets and even different sketch sizes) share one pool
without biasing each other, and a batch of q queries costs one sketch
construction instead of q (``serve.pool.reuse`` counts the sets a query
did *not* have to draw).

Growth happens in chunks so a per-query deadline can stop it between
chunks: the query then degrades to the achieved prefix instead of missing
its deadline (``serve.deadline.degraded``), and the service reports the
weaker accuracy through ``analysis.bounds.guarantee_report``.

Determinism: the pool follows the *indexed-stream* discipline — sample
``i`` is drawn from its own generator, :func:`repro.rng.indexed_rng`
seeded by ``(entropy, i)``, where the pool's entropy is one integer drawn
up front from the caller's ``rng``.  The pool's contents are therefore a
pure function of ``(graph, entropy, index)``: for a fixed service seed the
value of a query depends only on (model, seed set, sketch size) — never on
which thread drew the sets, and never on how the index range is
partitioned across *processes*.  That is what makes batched, sequential,
and sharded (:mod:`repro.serve.shard`) answers bit-for-bit identical
(asserted in ``benchmarks/bench_serve.py`` and
``benchmarks/bench_serve_shard.py``).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..algorithms.ris_estimator import RISEstimator
from ..core.frameworks import MaximizationResult
from ..diffusion.rr_sets import CoverageInstance, RRSampler
from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..obs import inc, span
from ..rng import RngLike
from ..rng import derive_entropy, ensure_rng, indexed_rng

__all__ = ["SamplePool", "PoolMaximizer"]

#: Sets drawn per deadline check; small enough that a deadline overshoots
#: by at most one chunk, large enough that the check is amortised away.
DEFAULT_CHUNK_SETS = 256


class PooledRead:
    """The service's read protocol (:mod:`repro.serve.service`) over a
    grow-only RR pool.

    Shared by the in-process :class:`SamplePool` and the fleet-backed
    :class:`~repro.serve.shard.ShardPool`, which provide ``ensure``,
    ``estimator``, ``size`` and ``graph``.
    """

    family = "ris"

    def read(self, requested: int, floor: int,
             deadline: "float | None") -> tuple:
        """One query's ``(estimator, achieved, requested, report, extras)``.

        The floor is grown without a deadline so a query can always
        return *something* statistically meaningful.  A pool has no
        standing report: the service states one for a query the deadline
        degraded.
        """
        self.ensure(floor)
        achieved = self.ensure(requested, deadline=deadline)
        return (self.estimator(achieved), achieved, requested, None,
                {"pool_size": self.size})

    def bind(self, graph: InfluenceGraph, model) -> None:
        """A pool depends on the coarse graph only: nothing to restate."""


class SamplePool(PooledRead):
    """A grow-only RR-set pool over one (coarse) graph.

    Parameters
    ----------
    graph:
        The graph queries are scored on (for a served model, the coarse
        graph ``H``).
    rng:
        Seed or generator the pool's entropy is drawn from (one integer,
        drawn immediately — see :func:`repro.rng.derive_entropy`); every
        sample index then gets its own :func:`repro.rng.indexed_rng`
        stream.
    model:
        Diffusion model (``"ic"`` / ``"lt"``), as on
        :class:`~repro.diffusion.rr_sets.RRSampler`.
    chunk_sets:
        Growth granularity between deadline checks.
    """

    def __init__(self, graph: InfluenceGraph, rng: RngLike = None,
                 model: str = "ic",
                 chunk_sets: int = DEFAULT_CHUNK_SETS) -> None:
        if chunk_sets <= 0:
            raise AlgorithmError("chunk_sets must be positive")
        self.graph = graph
        self.entropy = derive_entropy(rng)
        # The sampler's own fallback stream is the entropy's parent stream,
        # independent of every spawned child; ensure() never touches it —
        # pooled sample i always gets stream (entropy, i).
        self._sampler = RRSampler(graph, rng=ensure_rng(self.entropy),
                                  model=model)
        self._rr_sets: list[np.ndarray] = []  #: guarded-by: _lock
        self._coverage: "CoverageInstance | None" = None  #: guarded-by: _lock
        self._coverage_size = 0  #: guarded-by: _lock
        self._chunk_sets = chunk_sets
        self._lock = threading.Lock()

    @property
    def size(self) -> int:
        """Sets currently in the pool."""
        return len(self._rr_sets)

    @property
    def total_weight(self) -> float:
        """Total vertex weight of the pooled graph (the estimator scale)."""
        return self._sampler.total_weight

    @property
    def examined_edges(self) -> int:
        """Edges examined by all sampling so far (the paper's cost unit)."""
        return self._sampler.examined_edges

    def ensure(self, n_samples: int, deadline: "float | None" = None) -> int:
        """Grow the pool to ``n_samples`` sets (or until ``deadline``).

        ``deadline`` is an absolute :func:`time.monotonic` instant; growth
        stops at the first chunk boundary past it.  Returns the usable
        prefix length for this query: ``min(n_samples, pool size)`` — equal
        to ``n_samples`` unless the deadline cut growth short.  Thread-safe;
        concurrent callers coalesce on one lock and each reuses whatever
        the others already drew.
        """
        if n_samples <= 0:
            raise AlgorithmError("n_samples must be positive")
        with self._lock:
            reused = min(len(self._rr_sets), n_samples)
            if reused:
                inc("serve.pool.reuse", reused)
            if len(self._rr_sets) >= n_samples:
                return n_samples
            with span("serve.pool.grow", have=len(self._rr_sets),
                      want=n_samples):
                while len(self._rr_sets) < n_samples:
                    if deadline is not None and time.monotonic() >= deadline:
                        break
                    chunk = min(self._chunk_sets,
                                n_samples - len(self._rr_sets))
                    # Indexed-stream discipline: sample i comes from stream
                    # (entropy, i), so the pool's contents do not depend on
                    # who draws them — a sharded worker fleet drawing the
                    # same indices produces the identical pool.
                    for _ in range(chunk):
                        index = len(self._rr_sets)
                        self._rr_sets.append(self._sampler.sample(
                            rng=indexed_rng(self.entropy, index)))
            inc("serve.pool.drawn", len(self._rr_sets) - reused)
            return min(n_samples, len(self._rr_sets))

    def coverage(self) -> CoverageInstance:
        """A coverage index over the current pool (rebuilt only on growth)."""
        with self._lock:
            return self._current_coverage()

    def _current_coverage(self) -> CoverageInstance:
        """:meth:`coverage` with ``_lock`` already held."""
        if self._coverage is None or self._coverage_size != len(self._rr_sets):
            self._coverage = CoverageInstance(self._rr_sets, self.graph.n)
            self._coverage_size = len(self._rr_sets)
        return self._coverage

    def prefix_coverage(self, n_samples: int) -> CoverageInstance:
        """A coverage index over exactly the first ``n_samples`` sets.

        When the pool holds exactly ``n_samples`` sets this is the pool's
        own index (:meth:`coverage`), shared with the estimators; otherwise
        a fresh index over the prefix, built outside the lock.
        """
        with self._lock:
            if len(self._rr_sets) == n_samples:
                return self._current_coverage()
            prefix = self._rr_sets[:n_samples]
        return CoverageInstance(prefix, self.graph.n)

    def estimator(self, n_samples: int) -> RISEstimator:
        """A protocol-conforming estimator over the first ``n_samples`` sets.

        The returned :class:`RISEstimator` is bound to this pool's
        coverage via the pool-reuse path
        (:meth:`RISEstimator.from_coverage`); call :meth:`ensure` first so
        the prefix exists.
        """
        return RISEstimator.from_coverage(
            self.graph, self.coverage(), self.total_weight,
            n_samples=n_samples,
        )

    def maximizer(self, n_samples: int) -> "PoolMaximizer":
        """A protocol-conforming maximizer over the first ``n_samples`` sets."""
        return PoolMaximizer(self, n_samples)


class PoolMaximizer:
    """Greedy max coverage over a pool prefix (RIS semantics, zero sampling).

    Conforms to the :class:`~repro.core.frameworks.InfluenceMaximizer`
    protocol so ``maximize_on_coarse`` (Algorithm 4) can run it unchanged;
    the difference from :class:`~repro.algorithms.ris.RISMaximizer` is that
    the sketch already exists in the shared pool.
    """

    def __init__(self, pool: SamplePool, n_samples: int) -> None:
        if n_samples <= 0:
            raise AlgorithmError("n_samples must be positive")
        self._pool = pool
        self.n_samples = n_samples

    def select(self, graph: InfluenceGraph, k: int) -> MaximizationResult:
        """Select a size-``k`` seed set; returns a :class:`MaximizationResult`."""
        if graph is not self._pool.graph:
            raise AlgorithmError(
                "PoolMaximizer is bound to its pool's graph"
            )
        if not 0 < k <= graph.n:
            raise AlgorithmError("k must lie in [1, n]")
        available = self._pool.ensure(self.n_samples)
        if available < self.n_samples:
            raise AlgorithmError(
                f"pool holds {available} sets < requested {self.n_samples}"
            )
        with span("serve.pool.maximize", k=k, n_samples=self.n_samples):
            # Greedy needs exact decremental gains over exactly its prefix:
            # the pool's own index when the pool is that size, else its own.
            coverage = self._pool.prefix_coverage(self.n_samples)
            seeds, covered = coverage.greedy(k)
        estimate = self._pool.total_weight * covered / self.n_samples
        return MaximizationResult(
            seeds=seeds,
            estimated_influence=estimate,
            extras={"rr_sets": self.n_samples, "covered": covered,
                    "pooled": True},
        )
