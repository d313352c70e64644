"""Forward Monte-Carlo simulation of the Independent Cascade model.

One simulation runs the discrete-step IC process (Section 3.1): a newly
activated vertex gets a single chance to activate each inactive out-neighbour
with the edge's probability.  Each BFS level is vectorised — the out-edges of
the whole frontier are gathered and coin-flipped in one numpy pass, which is
equivalent to the sequential per-vertex definition because every edge is
examined at most once.

Simulation cost is dominated by the number of examined edges (Section 3.2),
so the module counts them: the paper's observation that the framework's time
reduction tracks the *edge* reduction ratio is reproduced via this counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from ..rng import RngLike, ensure_rng
from .reachability import gather_ranges, sorted_distinct

__all__ = ["simulate_ic_once", "simulate_ic", "estimate_influence", "SimulationStats"]


@dataclass
class SimulationStats:
    """Aggregate counters across a batch of IC simulations."""

    simulations: int = 0
    examined_edges: int = 0
    activations: int = 0


def simulate_ic_once(
    graph: InfluenceGraph,
    seeds: np.ndarray,
    rng: RngLike = None,
    stats: SimulationStats | None = None,
) -> np.ndarray:
    """Run one IC diffusion and return the boolean activation mask.

    Seeds are activated at step 0; the process runs until no activation is
    possible.  Coin flips happen lazily on examined edges only, matching the
    cost model of a real simulator (not a full live-edge sample).
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size == 0:
        raise AlgorithmError("seed set must be non-empty")
    if seeds.min() < 0 or seeds.max() >= graph.n:
        raise AlgorithmError("seed vertex out of range")
    rng = ensure_rng(rng)
    active = np.zeros(graph.n, dtype=bool)
    frontier = sorted_distinct(seeds.flatten())
    active[frontier] = True
    examined = 0
    while frontier.size:
        edge_idx = gather_ranges(graph.indptr[frontier], graph.indptr[frontier + 1])
        if edge_idx.size == 0:
            break
        examined += edge_idx.size
        success = rng.random(edge_idx.size) < graph.probs[edge_idx]
        targets = graph.heads[edge_idx[success]]
        new = targets[~active[targets]]
        if new.size == 0:
            break
        frontier = sorted_distinct(new)
        active[frontier] = True
    if stats is not None:
        stats.simulations += 1
        stats.examined_edges += examined
        stats.activations += int(active.sum())
    return active


def simulate_ic(
    graph: InfluenceGraph,
    seeds: np.ndarray,
    n_simulations: int,
    rng: RngLike = None,
    stats: SimulationStats | None = None,
) -> np.ndarray:
    """Run ``n_simulations`` IC diffusions; return the per-run spread weights.

    For a vertex-weighted graph the spread is the total weight of active
    vertices, per the weighted influence definition in Section 3.1.
    """
    rng = ensure_rng(rng)
    weights = graph.weights
    spreads = np.empty(n_simulations, dtype=np.float64)
    for i in range(n_simulations):
        active = simulate_ic_once(graph, seeds, rng, stats=stats)
        spreads[i] = float(weights[active].sum())
    return spreads


def estimate_influence(
    graph: InfluenceGraph,
    seeds: np.ndarray,
    n_simulations: int = 10_000,
    rng: RngLike = None,
    stats: SimulationStats | None = None,
) -> float:
    """The naive simulation estimator of ``Inf_G(S)`` (Section 3.2)."""
    return float(
        simulate_ic(graph, seeds, n_simulations, rng, stats=stats).mean()
    )
