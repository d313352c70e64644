"""repro — a reproduction of "Coarsening Massive Influence Networks for
Scalable Diffusion Analysis" (Ohsaka, Sonobe, Fujita, Kawarabayashi,
SIGMOD 2017).

The package coarsens influence graphs under the Independent Cascade model
by contracting r-robust strongly connected components, then accelerates
influence estimation and influence maximization by running existing
algorithms on the compact coarsened graph.

Quickstart::

    from repro import load_dataset, coarsen_influence_graph
    from repro import estimate_on_coarse, make_estimator

    graph = load_dataset("soc-slashdot", setting="exp", seed=0)
    result = coarsen_influence_graph(graph, r=16, rng=0)
    print(result.stats.edge_reduction_ratio)
    est = make_estimator("mc", n_samples=10_000, rng=1)
    inf = estimate_on_coarse(result, [42], est)

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for
the paper-versus-measured record of every table and figure.
"""

from .algorithms import (
    CELFMaximizer,
    DegreeHeuristic,
    DSSAMaximizer,
    GreedyMaximizer,
    IMMMaximizer,
    MonteCarloEstimator,
    RISMaximizer,
    SSAMaximizer,
)
from .analysis import (
    estimate_reliability,
    exact_reliability,
    max_scc_rate_samples,
    mean_absolute_relative_error,
    reliability_product,
    spearman_rank_correlation,
)
from .core import (
    CoarsenResult,
    CoarsenStats,
    Delta,
    DynamicCoarsener,
    coarsen,
    coarsen_addressable,
    coarsen_influence_graph,
    estimate_on_coarse,
    maximize_on_coarse,
    robust_scc_partition,
)
from .datasets import apply_setting, list_datasets, load_dataset
from .diffusion import estimate_influence, simulate_ic
from .estimators import (
    EstimateResult,
    available_estimators,
    estimate_with_report,
    make_estimator,
)
from .errors import (
    AlgorithmError,
    BudgetExceededError,
    CoarseningError,
    GraphFormatError,
    PartitionError,
    ReproError,
    WireFormatError,
)
from .graph import GraphBuilder, InfluenceGraph, read_edge_list, write_edge_list
from .partition import Partition
from .serve import DynamicModel, InfluenceService, QueryResult, ServiceConfig
from .storage import PairStore, TripletStore

__version__ = "4.0.0"

__all__ = [
    # graph substrate
    "InfluenceGraph",
    "GraphBuilder",
    "read_edge_list",
    "write_edge_list",
    "Partition",
    "TripletStore",
    "PairStore",
    # coarsening core
    "coarsen",
    "robust_scc_partition",
    "coarsen_influence_graph",
    "DynamicCoarsener",
    "Delta",
    "coarsen_addressable",
    "CoarsenResult",
    "CoarsenStats",
    # frameworks
    "estimate_on_coarse",
    "maximize_on_coarse",
    # estimator registry
    "available_estimators",
    "make_estimator",
    "estimate_with_report",
    "EstimateResult",
    # serving
    "InfluenceService",
    "ServiceConfig",
    "QueryResult",
    "DynamicModel",
    # diffusion + algorithms
    "simulate_ic",
    "estimate_influence",
    "MonteCarloEstimator",
    "DegreeHeuristic",
    "GreedyMaximizer",
    "CELFMaximizer",
    "RISMaximizer",
    "IMMMaximizer",
    "SSAMaximizer",
    "DSSAMaximizer",
    # analysis
    "exact_reliability",
    "estimate_reliability",
    "reliability_product",
    "max_scc_rate_samples",
    "mean_absolute_relative_error",
    "spearman_rank_correlation",
    # datasets
    "load_dataset",
    "list_datasets",
    "apply_setting",
    # errors
    "ReproError",
    "GraphFormatError",
    "PartitionError",
    "CoarseningError",
    "BudgetExceededError",
    "AlgorithmError",
    "WireFormatError",
]
