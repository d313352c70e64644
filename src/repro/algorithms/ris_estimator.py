"""Sketch-based influence estimation (the RR-set estimator).

The estimation framework (Algorithm 3) accepts *any* estimator; besides the
naive simulation method the natural plug-in is the reverse-sketch estimator
of Borgs et al. [6] / Cohen et al. [12]:

    Inf(S) = W * Pr[S intersects a random RR set]

estimated by the hit rate over a pre-drawn collection.  The collection is
built once per graph and amortised over arbitrarily many seed-set queries —
the batched-audit scenario of the paper's introduction.

:meth:`RISEstimator.from_coverage` binds an estimator to a collection built
*elsewhere* (the pool-reuse path): the ``repro.serve`` query engine grows
one shared pool per cached model and scores every concurrent query on it,
so q queries cost one sketch construction regardless of who asks.
"""

from __future__ import annotations

import numpy as np

from ..diffusion.rr_sets import CoverageInstance, RRSampler
from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..rng import ensure_rng

__all__ = ["RISEstimator"]


class RISEstimator:
    """Estimates influence from a cached RR-set collection.

    Parameters
    ----------
    n_samples:
        Sketch size (default 20,000); the additive error of one query is
        ``O(W / sqrt(n_samples))`` with high probability.
    rng:
        Seed or generator for sketch sampling.

    ``repro.estimators.make_estimator("ris", ...)`` builds the same
    instance by family name.

    Notes
    -----
    The sketch is (re)built lazily per graph object and reused across
    queries on the same graph, so a batch of q queries costs one sketch
    construction plus q coverage lookups.
    """

    def __init__(self, n_samples: int = 20_000, *, rng=None,
                 model: str = "ic") -> None:
        if n_samples <= 0:
            raise AlgorithmError("n_samples must be positive")
        self.n_samples = n_samples
        self._rng = ensure_rng(rng)
        self.model = model
        self._graph: InfluenceGraph | None = None
        self._coverage: CoverageInstance | None = None
        self._total_weight = 0.0
        self.examined_edges = 0

    @classmethod
    def from_coverage(
        cls,
        graph: InfluenceGraph,
        coverage: CoverageInstance,
        total_weight: float,
        *,
        n_samples: "int | None" = None,
    ) -> "RISEstimator":
        """An estimator bound to a pre-built coverage instance.

        The pool-reuse path: no sampling happens on this instance — it
        scores seed sets against the first ``n_samples`` sets of
        ``coverage`` (all of them when ``None``).  ``total_weight`` must be
        the vertex-weight total the collection was drawn against.
        """
        if coverage.n_sets == 0:
            raise AlgorithmError("coverage instance holds no RR sets")
        limit = coverage.n_sets if n_samples is None else n_samples
        if not 0 < limit <= coverage.n_sets:
            raise AlgorithmError(
                f"n_samples must lie in [1, {coverage.n_sets}]"
            )
        est = cls(limit)
        est._graph = graph
        est._coverage = coverage
        est._total_weight = float(total_weight)
        return est

    def _ensure_sketch(self, graph: InfluenceGraph) -> None:
        if self._graph is graph:
            return
        sampler = RRSampler(graph, rng=self._rng, model=self.model)
        rr_sets = sampler.sample_batch(self.n_samples)
        self._coverage = CoverageInstance(rr_sets, graph.n)
        self._total_weight = sampler.total_weight
        self._graph = graph
        self.examined_edges += sampler.examined_edges

    def estimate(self, graph: InfluenceGraph, seeds: np.ndarray) -> float:
        """``W * (RR sets hit by seeds) / n_samples``."""
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size == 0:
            raise AlgorithmError("seed set must be non-empty")
        self._ensure_sketch(graph)
        assert self._coverage is not None
        hits = self._coverage.coverage_of(seeds, first=self.n_samples)
        return self._total_weight * hits / self.n_samples
