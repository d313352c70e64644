"""Tests for the Monte-Carlo influence estimator against exact oracles."""

import numpy as np
import pytest

from repro.algorithms import MonteCarloEstimator, RISEstimator
from repro.estimators import make_estimator
from repro.analysis import exact_influence
from repro.errors import AlgorithmError
from repro.graph import InfluenceGraph

from .conftest import build_graph, random_graph


class TestMonteCarloEstimator:
    def test_matches_exact_on_paper_graph(self, paper_graph):
        est = make_estimator("mc", n_samples=30_000, rng=0)
        for seed in (0, 3, 6):
            exact = exact_influence(paper_graph, np.array([seed]))
            got = est.estimate(paper_graph, np.array([seed]))
            assert got == pytest.approx(exact, rel=0.03)

    def test_matches_exact_on_random_tiny_graphs(self):
        for seed in range(4):
            g = random_graph(7, 12, seed=seed, p_low=0.2, p_high=0.8)
            est = make_estimator("mc", n_samples=20_000, rng=seed)
            exact = exact_influence(g, np.array([0]))
            assert est.estimate(g, np.array([0])) == pytest.approx(exact, rel=0.05)

    def test_weighted_graph_estimate(self):
        g = InfluenceGraph.from_edges(
            2, np.array([0]), np.array([1]), np.array([0.5]),
            weights=np.array([10, 6]),
        )
        est = make_estimator("mc", n_samples=40_000, rng=1)
        # 10 + 0.5 * 6 = 13
        assert est.estimate(g, np.array([0])) == pytest.approx(13.0, rel=0.03)

    def test_stats_accumulate_across_estimates(self, paper_graph):
        est = make_estimator("mc", n_samples=100, rng=0)
        est.estimate(paper_graph, np.array([0]))
        est.estimate(paper_graph, np.array([1]))
        assert est.stats.simulations == 200
        assert est.stats.examined_edges > 0

    def test_rejects_nonpositive_simulations(self):
        with pytest.raises(AlgorithmError):
            make_estimator("mc", n_samples=0)

    def test_full_seed_set_gives_total_weight(self, paper_graph):
        est = make_estimator("mc", n_samples=10, rng=0)
        assert est.estimate(paper_graph, np.arange(9)) == pytest.approx(9.0)

    def test_deterministic_given_seed(self, paper_graph):
        a = make_estimator("mc", n_samples=500, rng=9).estimate(paper_graph, np.array([0]))
        b = make_estimator("mc", n_samples=500, rng=9).estimate(paper_graph, np.array([0]))
        assert a == b


class TestRegistryConstruction:
    @pytest.mark.parametrize("family,cls,n_samples", [
        ("mc", MonteCarloEstimator, 500),
        ("ris", RISEstimator, 800),
    ], ids=["mc", "ris"])
    def test_matches_direct_constructor(self, family, cls, n_samples):
        g = random_graph(40, 160, seed=8)
        seeds = np.array([0, 3])
        direct = cls(n_samples, rng=7).estimate(g, seeds)
        registry = make_estimator(family, n_samples=n_samples, rng=7)
        assert type(registry) is cls
        assert registry.estimate(g, seeds) == direct
