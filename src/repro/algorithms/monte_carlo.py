"""The naive Monte-Carlo influence estimator (Section 3.2).

Wraps :func:`repro.diffusion.simulator.estimate_influence` in the estimator
protocol used by the frameworks, with per-instance accounting so benchmarks
can report examined-edge counts (the quantity the paper's speed-up ratio
tracks).
"""

from __future__ import annotations

import numpy as np

from ..diffusion.simulator import SimulationStats, estimate_influence
from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..rng import ensure_rng

__all__ = ["MonteCarloEstimator"]


class MonteCarloEstimator:
    """Estimates ``Inf_G(S)`` by averaging repeated IC simulations.

    Parameters
    ----------
    n_samples:
        Simulations per estimate (default 10,000).  The paper uses 100,000
        for ground truth; tens of thousands suffice in practice [10, 22].
    rng:
        Seed or generator (shared across estimates on this instance).

    ``repro.estimators.make_estimator("mc", ...)`` builds the same instance
    by family name.
    """

    def __init__(self, n_samples: int = 10_000, *, rng=None) -> None:
        if n_samples <= 0:
            raise AlgorithmError("n_samples must be positive")
        self.n_samples = n_samples
        self._rng = ensure_rng(rng)
        self.stats = SimulationStats()

    def estimate(self, graph: InfluenceGraph, seeds: np.ndarray) -> float:
        """The mean activated weight over ``n_samples`` runs."""
        return estimate_influence(
            graph, seeds, self.n_samples, rng=self._rng, stats=self.stats
        )
