"""Integration tests: full pipelines across modules.

Each test exercises a realistic end-to-end scenario — the kind of flow the
examples demonstrate — asserting cross-module consistency rather than
single-module behaviour.
"""

import os

import numpy as np
import pytest

from repro import (
    DSSAMaximizer,
    TripletStore,
    coarsen_influence_graph,
    estimate_on_coarse,
    load_dataset,
    maximize_on_coarse,
    read_edge_list,
    write_edge_list,
)
from repro.algorithms import DegreeHeuristic
from repro.estimators import make_estimator
from repro.core import DynamicCoarsener


@pytest.fixture(scope="module")
def slashdot():
    return load_dataset("soc-slashdot", setting="exp", seed=0)


@pytest.fixture(scope="module")
def slashdot_coarse(slashdot):
    return coarsen_influence_graph(slashdot, r=16, rng=0)


class TestEstimationPipeline:
    def test_framework_tracks_plain_mc(self, slashdot, slashdot_coarse):
        rng = np.random.default_rng(3)
        vertices = rng.choice(slashdot.n, size=5, replace=False)
        plain = make_estimator("mc", n_samples=4_000, rng=1)
        framework = make_estimator("mc", n_samples=4_000, rng=2)
        for v in vertices:
            gt = plain.estimate(slashdot, np.array([v]))
            est = estimate_on_coarse(slashdot_coarse, np.array([v]), framework)
            # Theorem 4.6 direction + empirical tightness at r=16
            assert est > 0.5 * gt
            assert est < 2.0 * gt

    def test_ris_and_mc_estimators_agree_through_framework(
        self, slashdot_coarse
    ):
        seeds = np.array([10, 20, 30])
        mc = estimate_on_coarse(
            slashdot_coarse, seeds, make_estimator("mc", n_samples=5_000, rng=4)
        )
        ris = estimate_on_coarse(
            slashdot_coarse, seeds, make_estimator("ris", n_samples=20_000, rng=5)
        )
        assert ris == pytest.approx(mc, rel=0.15)


class TestMaximizationPipeline:
    def test_framework_solution_quality(self, slashdot, slashdot_coarse):
        judge = make_estimator("mc", n_samples=1_500, rng=9)
        plain = DSSAMaximizer(eps=0.2, delta=0.1, rng=1).select(slashdot, 5)
        framework = maximize_on_coarse(
            slashdot_coarse, 5, DSSAMaximizer(eps=0.2, delta=0.1, rng=2), rng=3
        )
        plain_value = judge.estimate(slashdot, plain.seeds)
        framework_value = judge.estimate(slashdot, framework.seeds)
        assert framework_value > 0.9 * plain_value

    def test_framework_beats_degree_baseline_or_ties(self, slashdot,
                                                     slashdot_coarse):
        judge = make_estimator("mc", n_samples=1_500, rng=10)
        degree = DegreeHeuristic().select(slashdot, 5)
        framework = maximize_on_coarse(
            slashdot_coarse, 5, DSSAMaximizer(eps=0.2, delta=0.1, rng=6), rng=7
        )
        assert judge.estimate(slashdot, framework.seeds) > 0.9 * judge.estimate(
            slashdot, degree.seeds
        )


class TestStorageRoundTrips:
    def test_disk_pipeline_equals_in_memory(self, tmp_path, slashdot):
        src = TripletStore.from_graph(slashdot, tmp_path / "g.trip")
        sub = coarsen_influence_graph(src, space="sublinear", out_path=tmp_path / "h.trip", r=8, rng=7
        )
        lin = coarsen_influence_graph(slashdot, r=8, rng=7)
        assert sub.load().coarse == lin.coarse

    def test_edge_list_round_trip_preserves_coarsening(self, tmp_path,
                                                       slashdot):
        path = tmp_path / "graph.txt"
        write_edge_list(slashdot, path)
        back = read_edge_list(path)
        a = coarsen_influence_graph(slashdot, r=4, rng=5)
        b = coarsen_influence_graph(back, r=4, rng=5)
        assert a.coarse == b.coarse


@pytest.mark.parallel
class TestParallelConsistency:
    def test_parallel_result_usable_by_frameworks(self, slashdot):
        result = coarsen_influence_graph(slashdot, r=8, workers=2, rng=0)
        est = estimate_on_coarse(
            result, np.array([0]), make_estimator("mc", n_samples=2_000, rng=1)
        )
        assert est >= 1.0


class TestDynamicPipeline:
    def test_snapshot_usable_by_frameworks(self, slashdot):
        dyn = DynamicCoarsener(
            slashdot.induced_subgraph(np.arange(400)), r=8, rng=0
        )
        dyn.insert_edge(0, 399, 0.5)
        snap = dyn.snapshot()
        est = estimate_on_coarse(
            snap, np.array([0]), make_estimator("mc", n_samples=2_000, rng=1)
        )
        assert est >= 1.0
