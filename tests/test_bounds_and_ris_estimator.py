"""Tests for the guarantee report and the RR-set estimator extension."""

import numpy as np
import pytest

from repro.algorithms import RISEstimator
from repro.diffusion.rr_sets import CoverageInstance, RRSampler
from repro.estimators import make_estimator
from repro.analysis import exact_influence, guarantee_report
from repro.core import coarsen_influence_graph, estimate_on_coarse
from repro.errors import AlgorithmError

from .conftest import build_graph, random_graph


class TestRISEstimator:
    def test_matches_exact_on_tiny_graph(self, paper_graph):
        est = make_estimator("ris", n_samples=40_000, rng=0)
        for seed in (0, 3):
            exact = exact_influence(paper_graph, np.array([seed]))
            got = est.estimate(paper_graph, np.array([seed]))
            assert got == pytest.approx(exact, rel=0.05)

    def test_matches_monte_carlo_on_seed_sets(self):
        g = random_graph(30, 100, seed=1, p_low=0.1, p_high=0.6)
        ris = make_estimator("ris", n_samples=30_000, rng=0)
        mc = make_estimator("mc", n_samples=30_000, rng=1)
        seeds = np.array([0, 5, 9])
        assert ris.estimate(g, seeds) == pytest.approx(
            mc.estimate(g, seeds), rel=0.05
        )

    def test_sketch_reused_across_queries(self, paper_graph):
        est = make_estimator("ris", n_samples=1_000, rng=0)
        est.estimate(paper_graph, np.array([0]))
        edges_after_first = est.examined_edges
        est.estimate(paper_graph, np.array([1]))
        assert est.examined_edges == edges_after_first  # no resampling

    def test_sketch_rebuilt_for_new_graph(self, paper_graph, two_cliques_graph):
        est = make_estimator("ris", n_samples=500, rng=0)
        est.estimate(paper_graph, np.array([0]))
        before = est.examined_edges
        est.estimate(two_cliques_graph, np.array([0]))
        assert est.examined_edges > before

    def test_works_inside_framework(self, two_cliques_graph):
        result = coarsen_influence_graph(two_cliques_graph, r=4, rng=0)
        est = make_estimator("ris", n_samples=20_000, rng=0)
        value = estimate_on_coarse(result, np.array([0]), est)
        mc = make_estimator("mc", n_samples=20_000, rng=1)
        reference = estimate_on_coarse(result, np.array([0]), mc)
        assert value == pytest.approx(reference, rel=0.05)

    def test_rejects_bad_parameters(self, paper_graph):
        with pytest.raises(AlgorithmError):
            make_estimator("ris", n_samples=0)
        with pytest.raises(AlgorithmError):
            make_estimator("ris", n_samples=10, rng=0).estimate(
                paper_graph, np.array([], dtype=np.int64)
            )

    def test_from_coverage_uses_whole_collection(self):
        g = random_graph(30, 90, seed=9)
        sampler = RRSampler(g, rng=0)
        coverage = CoverageInstance(sampler.sample_batch(50), g.n)
        est = RISEstimator.from_coverage(g, coverage, sampler.total_weight)
        assert est.n_samples == coverage.n_sets == 50


class TestGuaranteeReport:
    def test_singleton_coarsening_is_exact(self, paper_graph):
        # r huge => (almost surely) no merging => rho == 1, zero upper error
        result = coarsen_influence_graph(paper_graph, r=32, rng=0)
        if result.partition.non_singleton_blocks():
            pytest.skip("rare merge at r=32")
        report = guarantee_report(paper_graph, result, estimation_eps=0.01)
        assert report.reliability_product == 1.0
        assert report.estimation_upper_rel_error == pytest.approx(0.01, abs=1e-9)
        assert report.maximization_effective_alpha == pytest.approx(
            report.maximization_alpha
        )

    def test_reliable_cliques_give_tight_bounds(self, two_cliques_graph):
        result = coarsen_influence_graph(two_cliques_graph, r=4, rng=0)
        report = guarantee_report(
            two_cliques_graph, result, estimation_eps=0.01, rng=0
        )
        assert 0.5 < report.reliability_product <= 1.0
        assert report.non_singleton_blocks == 2
        assert report.estimation_upper_rel_error < 1.0
        assert report.maximization_effective_alpha > 0.3

    def test_summary_renders(self, two_cliques_graph):
        result = coarsen_influence_graph(two_cliques_graph, r=4, rng=0)
        report = guarantee_report(two_cliques_graph, result, rng=0)
        text = report.summary()
        assert "Theorem 6.1" in text
        assert "Theorem 6.2" in text
