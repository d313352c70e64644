"""Reverse Influence Sampling (RIS) with a fixed sketch budget.

The plain Borgs-et-al. recipe (Section 3.3): draw a collection of RR sets,
solve maximum coverage greedily, and estimate the solution's influence as
``total_weight * covered_fraction``.  The theta-free fixed-budget variant
here is the building block the adaptive algorithms (IMM, SSA, D-SSA) wrap
with their stopping rules, and doubles as a fast practical maximizer.
"""

from __future__ import annotations

import math

from ..core.frameworks import MaximizationResult
from ..diffusion.rr_sets import CoverageInstance, RRSampler
from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..obs import inc, span
from ..rng import ensure_rng

__all__ = ["RISMaximizer", "log_binomial"]


def log_binomial(n: int, k: int) -> float:
    """``ln C(n, k)`` via lgamma — used by every sketch-size bound."""
    if k < 0 or k > n:
        return float("-inf")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


class RISMaximizer:
    """Greedy maximum coverage over a fixed number of RR sets.

    Parameters
    ----------
    n_samples:
        Sketch budget (number of RR sets, default 10,000).  No adaptive
        guarantee; accuracy grows with the budget as in the Borgs et al.
        analysis.
    rng:
        Seed or generator for sketch sampling.
    """

    def __init__(self, n_samples: int = 10_000, *, rng=None,
                 model: str = "ic") -> None:
        if n_samples <= 0:
            raise AlgorithmError("n_samples must be positive")
        self.n_samples = n_samples
        self._rng = ensure_rng(rng)
        self.model = model
        self.examined_edges = 0

    def select(self, graph: InfluenceGraph, k: int) -> MaximizationResult:
        """Select a size-``k`` seed set; returns a :class:`MaximizationResult`."""
        if not 0 < k <= graph.n:
            raise AlgorithmError("k must lie in [1, n]")
        sampler = RRSampler(graph, rng=self._rng, model=self.model)
        with span("ris_sampling", n_sets=self.n_samples, n=graph.n):
            rr_sets = sampler.sample_batch(self.n_samples)
        with span("ris_selection", k=k, n_sets=self.n_samples):
            coverage = CoverageInstance(rr_sets, graph.n)
            seeds, covered = coverage.greedy(k)
        self.examined_edges += sampler.examined_edges
        inc("ris.rr_sets", self.n_samples)
        inc("ris.examined_edges", sampler.examined_edges)
        estimate = sampler.total_weight * covered / self.n_samples
        return MaximizationResult(
            seeds=seeds,
            estimated_influence=estimate,
            extras={"rr_sets": self.n_samples, "covered": covered},
        )
