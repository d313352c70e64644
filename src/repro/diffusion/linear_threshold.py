"""Linear Threshold (LT) diffusion — an extension beyond the paper's scope.

The paper analyses the Independent Cascade model only; LT is the other
classic diffusion model of Kempe, Kleinberg and Tardos [22], included here
because a diffusion-analysis library is expected to provide it.  NOTE: the
coarsening guarantees (Theorems 4.6/6.1/6.2) are proved for IC and do *not*
transfer to LT — the coarsening pipeline intentionally rejects LT inputs.

Model: each vertex ``v`` draws a threshold ``theta_v ~ U[0, 1]``; ``v``
activates when the summed weights of its active in-neighbours reach
``theta_v``.  Edge weights ``b(u, v)`` must satisfy ``sum_u b(u, v) <= 1``
(the WC setting, ``b = 1/indegree``, meets this with equality).

Live-edge interpretation (KKT Theorem 4.6 of [22]): each vertex picks at
most one in-edge, choosing ``(u, v)`` with probability ``b(u, v)`` (none
with the remaining mass); the diffusion equals reachability in the sampled
in-forest.  Both the direct threshold simulation and the live-edge sampler
are provided; tests verify they agree in distribution.
"""

from __future__ import annotations

import numpy as np

from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..rng import ensure_rng
from .reachability import gather_ranges, reachable_weight, sorted_distinct

__all__ = [
    "validate_lt_weights",
    "sample_lt_live_edges",
    "simulate_lt_once",
    "estimate_influence_lt",
]


def validate_lt_weights(graph: InfluenceGraph) -> None:
    """Check the LT constraint ``sum_u b(u, v) <= 1`` for every vertex."""
    incoming = np.zeros(graph.n, dtype=np.float64)
    np.add.at(incoming, graph.heads, graph.probs)
    if (incoming > 1.0 + 1e-9).any():
        worst = int(np.argmax(incoming))
        raise AlgorithmError(
            f"LT weights must sum to <= 1 per vertex; vertex {worst} has "
            f"incoming mass {incoming[worst]:.4f} (hint: the WC setting "
            f"satisfies the constraint by construction)"
        )


def sample_lt_live_edges(
    graph: InfluenceGraph, rng=None
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the LT live-edge in-forest; returns a forward ``(indptr, heads)``.

    Each vertex independently selects at most one of its in-edges with
    probability equal to its weight.  The returned CSR is over *forward*
    edges so reachability from seeds works unchanged.
    """
    rng = ensure_rng(rng)
    rev = graph.reverse()
    chosen_tails: list[int] = []
    chosen_heads: list[int] = []
    draws = rng.random(graph.n)
    for v in range(graph.n):
        lo, hi = rev.indptr[v], rev.indptr[v + 1]
        if lo == hi:
            continue
        cumulative = np.cumsum(rev.probs[lo:hi])
        u_pos = int(np.searchsorted(cumulative, draws[v], side="right"))
        if u_pos < hi - lo:  # else: no in-edge selected
            chosen_tails.append(int(rev.heads[lo + u_pos]))
            chosen_heads.append(v)
    tails = np.asarray(chosen_tails, dtype=np.int64)
    heads = np.asarray(chosen_heads, dtype=np.int64)
    order = np.argsort(tails, kind="stable")
    tails, heads = tails[order], heads[order]
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.add.at(indptr, tails + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, heads


def simulate_lt_once(
    graph: InfluenceGraph,
    seeds: np.ndarray,
    rng=None,
) -> np.ndarray:
    """One LT diffusion via direct threshold simulation.

    Thresholds are drawn fresh; activation proceeds in rounds until no
    vertex crosses its threshold.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size == 0:
        raise AlgorithmError("seed set must be non-empty")
    rng = ensure_rng(rng)
    thresholds = rng.random(graph.n)
    active = np.zeros(graph.n, dtype=bool)
    active[seeds] = True
    pressure = np.zeros(graph.n, dtype=np.float64)
    frontier = sorted_distinct(seeds.flatten())
    while frontier.size:
        edge_idx = gather_ranges(graph.indptr[frontier], graph.indptr[frontier + 1])
        if edge_idx.size == 0:
            break
        targets = graph.heads[edge_idx]
        np.add.at(pressure, targets, graph.probs[edge_idx])
        crossed = sorted_distinct(targets)
        newly = crossed[
            ~active[crossed] & (pressure[crossed] >= thresholds[crossed])
        ]
        if newly.size == 0:
            break
        active[newly] = True
        frontier = newly
    return active


def estimate_influence_lt(
    graph: InfluenceGraph,
    seeds: np.ndarray,
    n_simulations: int = 10_000,
    rng=None,
    method: str = "live-edge",
) -> float:
    """Monte-Carlo LT influence via live-edge sampling or direct simulation."""
    if method not in ("live-edge", "threshold"):
        raise AlgorithmError("method must be 'live-edge' or 'threshold'")
    validate_lt_weights(graph)
    rng = ensure_rng(rng)
    seeds = np.asarray(seeds, dtype=np.int64)
    weights = graph.weights
    total = 0.0
    for _ in range(n_simulations):
        if method == "live-edge":
            indptr, heads = sample_lt_live_edges(graph, rng)
            total += reachable_weight(indptr, heads, seeds, weights=weights)
        else:
            active = simulate_lt_once(graph, seeds, rng)
            total += float(weights[active].sum())
    return total / n_simulations
