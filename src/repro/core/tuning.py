"""Choosing the robustness parameter r.

The paper fixes r = 16 as the sweet spot between size reduction and
estimation accuracy (Section 7.5).  For a new graph, :func:`r_sweep`
reproduces the analysis behind that choice cheaply: it builds the whole
refinement chain ``P_1 ⊆ P_2 ⊆ ... ⊆ P_rmax`` from *one* shared sample
sequence (so the sweep is deterministically monotone, Theorem 4.14) and
reports each candidate's coarse-graph size.  Accuracy proxies can then be
computed only for the knees of the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import AlgorithmError
from ..graph.influence_graph import InfluenceGraph
from .coarsen import coarsen
from .robust_scc import robust_scc_refinement_sequence

__all__ = ["RSweepPoint", "r_sweep"]


@dataclass
class RSweepPoint:
    """One candidate r with its coarse-graph size."""

    r: int
    coarse_vertices: int
    coarse_edges: int
    vertex_ratio: float
    edge_ratio: float


def r_sweep(
    graph: InfluenceGraph,
    r_values: Sequence[int] = (1, 2, 4, 8, 16, 32),
    rng=None,
) -> list[RSweepPoint]:
    """Size of the coarsened graph at each candidate ``r``.

    All candidates share one live-edge sample chain, so the returned ratios
    are non-decreasing in ``r`` by construction — a single pass costs
    ``O(max(r_values))`` samples, not ``O(sum)``.
    """
    if not r_values:
        raise AlgorithmError("r_values must be non-empty")
    if any(r < 1 for r in r_values):
        raise AlgorithmError("r candidates must be >= 1")
    r_values = sorted(set(int(r) for r in r_values))
    chain = robust_scc_refinement_sequence(graph, max(r_values), rng=rng)
    points = []
    for r in r_values:
        coarse, _ = coarsen(graph, chain[r - 1])
        points.append(RSweepPoint(
            r=r,
            coarse_vertices=coarse.n,
            coarse_edges=coarse.m,
            vertex_ratio=coarse.n / graph.n if graph.n else 1.0,
            edge_ratio=coarse.m / graph.m if graph.m else 1.0,
        ))
    return points
