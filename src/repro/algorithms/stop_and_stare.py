"""SSA and D-SSA — Stop-and-Stare influence maximization (Nguyen et al. [36]).

These are the paper's headline baselines (Tables 5 and 11).  Both follow the
same skeleton:

1. draw a doubling collection ``R_t`` of RR sets and solve max coverage
   greedily, yielding a candidate ``S_t`` with an (optimistic) estimate
   ``I_t``;
2. **stare**: check ``S_t``'s influence on an *independent* validation
   collection ``R_t^c``; if the unbiased validation estimate confirms the
   greedy estimate to within the error budget, stop and return ``S_t``;
3. otherwise double and repeat, capped at ``N_max`` total RR sets.

SSA uses fixed error splits ``eps_1 = eps_2 = eps_3`` and throws the
validation collection away each round; D-SSA computes the error split
*dynamically* from the observed estimates and recycles the validation
collection into the next round's sketch pool — the source of its ~2x sample
savings, which our implementation reproduces.

The error-composition constants follow the published D-SSA stopping rule
with the vertex count generalised to total vertex weight ``W``, so the
algorithms run unchanged on coarsened (vertex-weighted) graphs — exactly the
usage in the paper's framework experiments.

Guarantee: ``(1 - 1/e - eps)``-approximation with probability ``1 - delta``
(under the published analysis; this reproduction validates quality
empirically against exhaustive greedy).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.frameworks import MaximizationResult
from ..diffusion.rr_sets import CoverageInstance, RRSampler
from ..errors import AlgorithmError, BudgetExceededError
from ..graph.influence_graph import InfluenceGraph
from ..rng import ensure_rng
from .ris import log_binomial

__all__ = ["SSAMaximizer", "DSSAMaximizer"]


class _StopAndStareBase:
    """Shared machinery for SSA and D-SSA."""

    def __init__(
        self,
        eps: float = 0.1,
        *,
        delta: float = 0.01,
        rng=None,
        max_samples: int = 1_000_000,
        memory_budget_sets: int | None = None,
        memory_budget_elements: int | None = None,
        model: str = "ic",
    ) -> None:
        if not 0.0 < eps < 1.0 - 2.0 / math.e:
            raise AlgorithmError("eps must lie in (0, 1 - 2/e)")
        if not 0.0 < delta < 1.0:
            raise AlgorithmError("delta must lie in (0, 1)")
        self.eps = eps
        self.delta = delta
        self._rng = ensure_rng(rng)
        self.max_samples = max_samples
        self.memory_budget_sets = memory_budget_sets
        self.memory_budget_elements = memory_budget_elements
        self.model = model
        self.examined_edges = 0
        self._elements_stored = 0

    def _n_max(self, n: int, w_total: float, k: int) -> int:
        """Worst-case RR-set budget (the algorithms stop far earlier)."""
        e = math.e
        bound = (
            8.0
            * (1.0 - 1.0 / e)
            / (2.0 + 2.0 * self.eps / 3.0)
            * (math.log(6.0 / self.delta) + log_binomial(n, k))
            * w_total
            / (self.eps ** 2 * k)
        )
        return min(int(math.ceil(bound)), self.max_samples)

    def _initial_budget(self) -> int:
        """``Lambda``: the smallest statistically meaningful collection."""
        eps, delta = self.eps, self.delta
        return max(
            32,
            int(
                math.ceil(
                    (2.0 + 2.0 * eps / 3.0) * math.log(3.0 / delta) / (eps ** 2)
                )
            ),
        )

    def _check_budget(self, total_sets: int) -> None:
        if (
            self.memory_budget_sets is not None
            and total_sets > self.memory_budget_sets
        ):
            raise BudgetExceededError(
                f"RR-set pool of {total_sets} exceeds the configured budget "
                f"of {self.memory_budget_sets} sets"
            )

    def _sample_charged(self, sampler: RRSampler, count: int) -> list:
        """Draw RR sets, charging their storage against the element budget.

        The element budget models real RR-sketch memory (sum of set sizes);
        on high-influence graphs a few enormous sets blow it long before the
        set *count* is large — the paper's OOM mode for D-SSA on billion-edge
        EXP inputs.
        """
        batch = sampler.sample_batch(count)
        self._elements_stored += sum(s.size for s in batch)
        if (
            self.memory_budget_elements is not None
            and self._elements_stored > self.memory_budget_elements
        ):
            raise BudgetExceededError(
                f"RR-set pool of {self._elements_stored} stored vertices "
                f"exceeds the budget of {self.memory_budget_elements}"
            )
        return batch


class SSAMaximizer(_StopAndStareBase):
    """SSA: fixed error split, validation collection discarded per round."""

    def select(self, graph: InfluenceGraph, k: int) -> MaximizationResult:
        """Select a size-``k`` seed set; returns a :class:`MaximizationResult`."""
        if not 0 < k <= graph.n:
            raise AlgorithmError("k must lie in [1, n]")
        sampler = RRSampler(graph, rng=self._rng, model=self.model)
        self._elements_stored = 0
        w_total = sampler.total_weight
        eps1 = eps2 = eps3 = self.eps / 4.0
        n_max = self._n_max(graph.n, w_total, k)
        # Coverage threshold so the validation estimate is (1 +- eps2)-exact.
        lambda1 = (
            1.0
            + (1.0 + eps2) * (2.0 + 2.0 * eps2 / 3.0)
            * math.log(3.0 / self.delta) / (eps2 ** 2)
        )

        size = self._initial_budget()
        rounds = 0
        while True:
            rounds += 1
            self._check_budget(2 * size)
            rr_sets = self._sample_charged(sampler, size)
            coverage = CoverageInstance(rr_sets, graph.n)
            seeds, covered = coverage.greedy(k)
            i_greedy = w_total * covered / size
            # Stare: independent validation of equal size.
            validation = CoverageInstance(
                self._sample_charged(sampler, size), graph.n
            )
            covered_c = validation.coverage_of(seeds)
            i_check = w_total * covered_c / size
            enough_coverage = covered_c >= lambda1
            confirmed = i_check >= i_greedy / (1.0 + eps1)
            if (enough_coverage and confirmed) or 2 * size >= n_max:
                self.examined_edges += sampler.examined_edges
                return MaximizationResult(
                    seeds=seeds,
                    estimated_influence=i_check,
                    extras={
                        "rr_sets": 2 * size,
                        "rounds": rounds,
                        "stopped_at_cap": 2 * size >= n_max,
                    },
                )
            # SSA throws both collections away before doubling.
            self._elements_stored = 0
            size *= 2


class DSSAMaximizer(_StopAndStareBase):
    """D-SSA: dynamic error split, validation collection recycled.

    The stopping rule evaluates the composed error

    ``eps_t = (e1 + e2 + e1*e2)(1 - 1/e - eps) + (1 - 1/e)*e3``

    with ``e1`` measured from the greedy/validation gap and ``e2``, ``e3``
    derived from the validation collection size, stopping once
    ``eps_t <= eps``.
    """

    def select(self, graph: InfluenceGraph, k: int) -> MaximizationResult:
        """Select a size-``k`` seed set; returns a :class:`MaximizationResult`."""
        if not 0 < k <= graph.n:
            raise AlgorithmError("k must lie in [1, n]")
        sampler = RRSampler(graph, rng=self._rng, model=self.model)
        self._elements_stored = 0
        w_total = sampler.total_weight
        eps = self.eps
        e_const = 1.0 - 1.0 / math.e
        n_max = self._n_max(graph.n, w_total, k)

        pool: list[np.ndarray] = self._sample_charged(
            sampler, self._initial_budget()
        )
        rounds = 0
        while True:
            rounds += 1
            size = len(pool)
            coverage = CoverageInstance(pool, graph.n)
            seeds, covered = coverage.greedy(k)
            i_greedy = w_total * covered / size
            # Stare on a fresh collection of equal size.
            validation_sets = self._sample_charged(sampler, size)
            validation = CoverageInstance(validation_sets, graph.n)
            covered_c = validation.coverage_of(seeds)
            i_check = w_total * max(covered_c, 1) / size

            e1 = i_greedy / i_check - 1.0
            e2 = eps * math.sqrt(w_total * (1.0 + eps) / (2.0 ** (rounds - 1) * i_check))
            e3 = eps * math.sqrt(
                w_total * (1.0 + eps) * (e_const - eps)
                / ((1.0 + eps / 3.0) * 2.0 ** (rounds - 1) * i_check)
            )
            eps_t = (e1 + e2 + e1 * e2) * (e_const - eps) + e_const * e3

            total = 2 * size
            if (e1 <= eps and eps_t <= eps) or total >= n_max:
                self.examined_edges += sampler.examined_edges
                return MaximizationResult(
                    seeds=seeds,
                    estimated_influence=i_check,
                    extras={
                        "rr_sets": total,
                        "rounds": rounds,
                        "stopped_at_cap": total >= n_max,
                    },
                )
            # Dynamic reuse: the validation sets join the pool (the D-SSA
            # trick that halves total samples versus SSA).
            self._check_budget(total)
            pool.extend(validation_sets)
