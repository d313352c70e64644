"""IMM — Influence Maximization via Martingales (Tang, Shi, Xiao 2015 [43]).

Two phases:

1. **Sampling.**  Estimate a lower bound ``LB`` on ``OPT_k`` by iterative
   halving: for ``x = n/2, n/4, ...`` draw enough RR sets to distinguish
   whether ``OPT >= x`` (Lemma 6 of the IMM paper), stopping at the first
   ``x`` the greedy cover certifies; then set the final sketch budget
   ``theta = lambda* / LB``.
2. **Node selection.**  Greedy maximum coverage over ``theta`` RR sets.

With probability ``1 - 1/n^l`` the result is a ``(1 - 1/e - eps)``
approximation.  On vertex-weighted (coarsened) graphs the influence scale is
the total weight ``W``; the bounds below use ``n`` (number of vertices) for
the union bounds over seed sets, and ``W`` wherever ``OPT``'s scale enters,
which is the natural generalisation used by weighted-RIS implementations.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.frameworks import MaximizationResult
from ..diffusion.rr_sets import CoverageInstance, RRSampler
from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..obs import inc, span
from ..rng import ensure_rng
from .ris import log_binomial

__all__ = ["IMMMaximizer"]


class IMMMaximizer:
    """IMM with parameters ``eps`` (accuracy) and ``l`` (confidence exponent).

    ``max_samples`` caps the sketch budget so adversarial
    parameterisations cannot exhaust memory; hitting the cap raises unless
    ``allow_cap`` is set, in which case the run degrades to fixed-budget
    RIS semantics.
    """

    def __init__(
        self,
        eps: float = 0.1,
        *,
        l: float = 1.0,
        rng=None,
        max_samples: int = 2_000_000,
        allow_cap: bool = True,
        model: str = "ic",
    ) -> None:
        if not 0.0 < eps < 1.0:
            raise AlgorithmError("eps must lie in (0, 1)")
        self.eps = eps
        self.l = l
        self._rng = ensure_rng(rng)
        self.max_samples = max_samples
        self.allow_cap = allow_cap
        self.model = model
        self.examined_edges = 0

    def select(self, graph: InfluenceGraph, k: int) -> MaximizationResult:
        """Select a size-``k`` seed set; returns a :class:`MaximizationResult`."""
        if not 0 < k <= graph.n:
            raise AlgorithmError("k must lie in [1, n]")
        n = graph.n
        w_total = float(graph.weights.sum())
        eps = self.eps
        # Boost confidence to cover the union bound over halving rounds.
        l = self.l + math.log(2.0) / math.log(max(n, 2))
        log_nk = log_binomial(n, k)
        ln_n = math.log(max(n, 2))

        sampler = RRSampler(graph, rng=self._rng, model=self.model)
        rr_sets: list[np.ndarray] = []

        def ensure_sets(count: int) -> bool:
            count = min(count, self.max_samples)
            while len(rr_sets) < count:
                rr_sets.append(sampler.sample())
            return count >= self.max_samples

        # ---- Phase 1: lower-bound OPT by iterative halving ----
        eps_prime = math.sqrt(2.0) * eps
        lb = w_total / n  # trivial lower bound: any single vertex's weight
        capped = False
        max_rounds = max(1, int(math.ceil(math.log2(n))) - 1)
        with span("imm_sampling", k=k, n=n):
            for i in range(1, max_rounds + 1):
                x = w_total / (2.0 ** i)
                lambda_prime = (
                    (2.0 + 2.0 * eps_prime / 3.0)
                    * (log_nk + l * ln_n + math.log(max(math.log2(n), 1.0)))
                    * w_total
                    / (eps_prime ** 2)
                )
                theta_i = int(math.ceil(lambda_prime / x))
                capped = ensure_sets(theta_i) or capped
                coverage = CoverageInstance(
                    rr_sets[: min(theta_i, len(rr_sets))], n
                )
                _, covered = coverage.greedy(k)
                estimate = w_total * covered / coverage.n_sets
                if estimate >= (1.0 + eps_prime) * x:
                    lb = estimate / (1.0 + eps_prime)
                    break

            # ---- Phase 2: final sketch budget from LB ----
            alpha = math.sqrt(l * ln_n + math.log(2.0))
            beta = math.sqrt(
                (1.0 - 1.0 / math.e) * (log_nk + l * ln_n + math.log(2.0))
            )
            lambda_star = (
                2.0 * w_total * ((1.0 - 1.0 / math.e) * alpha + beta) ** 2
                / (eps ** 2)
            )
            theta = int(math.ceil(lambda_star / lb))
            capped = ensure_sets(theta) or capped
        if capped and not self.allow_cap:
            raise AlgorithmError(
                f"IMM sketch budget exceeded max_samples={self.max_samples}"
            )
        used = min(theta, len(rr_sets))
        with span("imm_selection", k=k, rr_sets=used):
            coverage = CoverageInstance(rr_sets[:used], n)
            seeds, covered = coverage.greedy(k)
        self.examined_edges += sampler.examined_edges
        inc("imm.rr_sets", used)
        inc("imm.examined_edges", sampler.examined_edges)
        return MaximizationResult(
            seeds=seeds,
            estimated_influence=w_total * covered / used,
            extras={"rr_sets": used, "lower_bound": lb, "capped": capped},
        )
