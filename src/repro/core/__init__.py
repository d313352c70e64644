"""The paper's primary contribution: influence-graph coarsening.

* :func:`coarsen_influence_graph` — the unified entry point: Algorithm 1
  (``space="linear"``, the default), Algorithm 2 (``space="sublinear"``)
  and Algorithm 6 (``workers=``);
* :class:`DynamicCoarsener` — Algorithm 7;
* :func:`estimate_on_coarse` / :func:`maximize_on_coarse` — Algorithms 3/4.
"""

from .api import coarsen_influence_graph
from .coarsen import check_partition_strongly_connected, coarsen
from .dynamic import Delta, DynamicCoarsener, DynamicStats, coarsen_addressable
from .frameworks import (
    InfluenceEstimator,
    InfluenceMaximizer,
    MaximizationResult,
    estimate_on_coarse,
    maximize_on_coarse,
)
from .persistence import load_coarsening, peek_coarsening_meta, save_coarsening
from .parallel import split_rounds
from .result import CoarsenResult, CoarsenStats
from .robust_scc import robust_scc_partition, robust_scc_refinement_sequence
from .tuning import RSweepPoint, r_sweep
from .sublinear_space import SublinearResult

__all__ = [
    "r_sweep",
    "RSweepPoint",
    "save_coarsening",
    "load_coarsening",
    "peek_coarsening_meta",
    "coarsen",
    "check_partition_strongly_connected",
    "robust_scc_partition",
    "robust_scc_refinement_sequence",
    "coarsen_influence_graph",
    "split_rounds",
    "SublinearResult",
    "CoarsenResult",
    "CoarsenStats",
    "Delta",
    "DynamicCoarsener",
    "DynamicStats",
    "coarsen_addressable",
    "estimate_on_coarse",
    "maximize_on_coarse",
    "InfluenceEstimator",
    "InfluenceMaximizer",
    "MaximizationResult",
]
