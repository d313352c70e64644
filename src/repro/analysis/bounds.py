"""Accuracy-guarantee reports for a concrete coarsening (Theorems 6.1/6.2).

Given a :class:`~repro.core.result.CoarsenResult`, these helpers estimate
the reliability factor ``rho = prod_j Rel(G[C_j])`` and phrase the paper's
guarantees in terms a user can act on:

* estimation (Theorem 6.1): a ``(1 +- eps)``-accurate estimate on ``H``
  satisfies ``-eps <= (Inf_out - Inf_G) / Inf_G <= (1 + eps) / rho - 1``;
* maximization (Theorem 6.2): an ``alpha``-approximate solution on ``H``
  pulls back to an ``alpha * rho``-approximate solution on ``G``.

``rho`` is itself #P-hard exactly, so it is estimated per non-singleton
block (exact enumeration for tiny blocks, Monte-Carlo otherwise); the
report records the estimation method used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.result import CoarsenResult
from ..graph.influence_graph import InfluenceGraph
from .reliability import reliability_product

__all__ = ["GuaranteeReport", "guarantee_report"]


@dataclass
class GuaranteeReport:
    """Concrete instantiation of the Section 6 guarantees for one coarsening."""

    reliability_product: float
    non_singleton_blocks: int
    estimation_eps: float
    estimation_lower_rel_error: float
    estimation_upper_rel_error: float
    maximization_alpha: float
    maximization_effective_alpha: float

    def summary(self) -> str:
        """A human-readable multi-line summary."""
        return "\n".join([
            f"reliability factor rho = {self.reliability_product:.4f} "
            f"(over {self.non_singleton_blocks} merged blocks)",
            f"estimation (Theorem 6.1, eps = {self.estimation_eps}): "
            f"relative error in "
            f"[{self.estimation_lower_rel_error:+.3f}, "
            f"{self.estimation_upper_rel_error:+.3f}]",
            f"maximization (Theorem 6.2, alpha = "
            f"{self.maximization_alpha:.4f}): effective ratio "
            f"{self.maximization_effective_alpha:.4f}",
        ])


def guarantee_report(
    graph: InfluenceGraph,
    result: CoarsenResult,
    estimation_eps: float = 0.01,
    maximization_alpha: float = 1.0 - 1.0 / math.e,
    n_samples: int = 2_000,
    rng=None,
    subgraphs: "list[InfluenceGraph] | None" = None,
) -> GuaranteeReport:
    """Estimate ``rho`` for ``result`` and instantiate Theorems 6.1/6.2.

    Parameters
    ----------
    estimation_eps:
        The accuracy the inner estimator provides on ``H`` (e.g. its
        Monte-Carlo concentration bound).
    maximization_alpha:
        The inner maximizer's ratio on ``H`` (default ``1 - 1/e``, the
        greedy/RIS family).
    n_samples:
        Monte-Carlo samples per non-singleton block for the reliability
        estimate.
    subgraphs:
        The blocks' induced subgraphs
        (:func:`~repro.analysis.reliability.block_subgraphs`) when the
        caller has cut them already; the report is the same.
    """
    rho = reliability_product(
        graph, result.partition, n_samples=n_samples, rng=rng,
        subgraphs=subgraphs,
    )
    return GuaranteeReport(
        reliability_product=rho,
        non_singleton_blocks=len(result.partition.non_singleton_blocks()),
        estimation_eps=estimation_eps,
        estimation_lower_rel_error=-estimation_eps,
        estimation_upper_rel_error=(1.0 + estimation_eps) / rho - 1.0
        if rho > 0 else float("inf"),
        maximization_alpha=maximization_alpha,
        maximization_effective_alpha=maximization_alpha * rho,
    )
