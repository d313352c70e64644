"""TIM+ — Two-phase Influence Maximization (Tang, Xiao, Shi 2014 [44]).

The predecessor of IMM and one of the sketch-based algorithms the paper's
frameworks accelerate.  Two phases:

1. **KPT estimation**: estimate a lower bound ``KPT`` on the expected
   spread of the optimal size-k seed set by measuring the *width* (in-edge
   count) of random RR sets — Algorithm 2 of the TIM paper: for growing
   sample counts, if the average width statistic crosses a threshold, the
   current scale is the estimate.  TIM+ then refines the bound with a
   greedy solution on a small sketch (the "+" refinement).
2. **Node selection**: draw ``theta = lambda / KPT`` RR sets and run greedy
   maximum coverage, like every RIS descendant.

Produces a ``(1 - 1/e - eps)``-approximation with probability
``1 - n^-l``.  Compared to IMM its sketch bound is looser, so it samples
more — visible in the examined-edge counters when both run side by side.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.frameworks import MaximizationResult
from ..diffusion.rr_sets import CoverageInstance, RRSampler
from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..rng import ensure_rng
from .ris import log_binomial

__all__ = ["TIMPlusMaximizer"]


class TIMPlusMaximizer:
    """TIM+ with accuracy ``eps`` and confidence exponent ``l``.

    ``max_samples`` bounds the sketch (degrading to fixed-budget behaviour
    when hit, reported in ``extras``).
    """

    def __init__(
        self,
        eps: float = 0.1,
        *,
        l: float = 1.0,
        rng=None,
        max_samples: int = 2_000_000,
        model: str = "ic",
    ) -> None:
        if not 0.0 < eps < 1.0:
            raise AlgorithmError("eps must lie in (0, 1)")
        self.eps = eps
        self.l = l
        self._rng = ensure_rng(rng)
        self.max_samples = max_samples
        self.model = model
        self.examined_edges = 0

    def _kpt_estimation(self, graph: InfluenceGraph, k: int,
                        sampler: RRSampler, rr_sets: list) -> float:
        """Phase 1: the TIM KPT* lower bound via RR-set widths.

        The width ``w(R)`` of an RR set is the number of in-edges of its
        vertices; ``E[1 - (1 - w(R)/m)^k]`` relates to ``OPT_k / n``.
        """
        n, m = graph.n, graph.m
        w_total = float(graph.weights.sum())
        if m == 0:
            return w_total / n
        in_degree = graph.in_degree().astype(np.float64)
        log2_n = max(1, int(math.ceil(math.log2(n))))
        for i in range(1, log2_n):
            c_i = int(
                math.ceil((6.0 * self.l * math.log(max(n, 2))
                           + 6.0 * math.log(math.log2(max(n, 2)) + 1.0))
                          * (2.0 ** i))
            )
            c_i = min(c_i, self.max_samples)
            while len(rr_sets) < c_i:
                rr_sets.append(sampler.sample())
            total = 0.0
            for rr in rr_sets[:c_i]:
                width = float(in_degree[rr].sum())
                kappa = 1.0 - (1.0 - width / m) ** k
                total += kappa
            if total / c_i > 1.0 / (2.0 ** i):
                return w_total * total / (2.0 * c_i)
        return w_total / n

    def select(self, graph: InfluenceGraph, k: int) -> MaximizationResult:
        """Select a size-``k`` seed set; returns a :class:`MaximizationResult`."""
        if not 0 < k <= graph.n:
            raise AlgorithmError("k must lie in [1, n]")
        n = graph.n
        w_total = float(graph.weights.sum())
        eps = self.eps
        l = self.l + math.log(2.0) / math.log(max(n, 2))
        sampler = RRSampler(graph, rng=self._rng, model=self.model)
        rr_sets: list[np.ndarray] = []

        kpt = max(self._kpt_estimation(graph, k, sampler, rr_sets),
                  w_total / n)

        # "+" refinement: greedy on a small sketch gives a second bound.
        eps_prime = 5.0 * (l * (eps ** 2) / (k + l)) ** (1.0 / 3.0)
        theta_prime = int(math.ceil(
            (2.0 + eps_prime) * l * w_total * math.log(max(n, 2))
            / (eps_prime ** 2 * kpt)
        ))
        theta_prime = min(max(theta_prime, 1), self.max_samples)
        while len(rr_sets) < theta_prime:
            rr_sets.append(sampler.sample())
        coverage = CoverageInstance(rr_sets[:theta_prime], n)
        _, covered = coverage.greedy(k)
        refined = (
            w_total * covered / theta_prime / (1.0 + eps_prime)
        )
        kpt = max(kpt, refined)

        # Phase 2: the final sketch.
        lambda_ = (
            (8.0 + 2.0 * eps) * w_total
            * (l * math.log(max(n, 2)) + log_binomial(n, k) + math.log(2.0))
            / (eps ** 2)
        )
        theta = int(math.ceil(lambda_ / kpt))
        capped = theta > self.max_samples
        theta = min(max(theta, 1), self.max_samples)
        while len(rr_sets) < theta:
            rr_sets.append(sampler.sample())
        coverage = CoverageInstance(rr_sets[:theta], n)
        seeds, covered = coverage.greedy(k)
        self.examined_edges += sampler.examined_edges
        return MaximizationResult(
            seeds=seeds,
            estimated_influence=w_total * covered / theta,
            extras={"rr_sets": theta, "kpt": kpt, "capped": capped},
        )
