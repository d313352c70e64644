"""Tests for Algorithms 1, 2 and 6 — the three coarsening implementations.

The key property: fed the same random stream, all implementations produce
the *identical* coarsened graph; with different streams they produce graphs
from the same distribution (checked structurally).
"""

import numpy as np
import pytest

from repro.core import (
    coarsen_influence_graph,
    split_rounds,
)
from repro.errors import AlgorithmError, CoarseningError
from repro.storage import TripletStore

from .conftest import random_graph


class TestLinearSpace:
    def test_result_fields(self, paper_graph):
        res = coarsen_influence_graph(paper_graph, r=4, rng=0)
        assert res.coarse.total_weight == 9
        assert res.pi.size == 9
        assert res.stats.r == 4
        assert res.stats.input_edges == 13
        assert res.stats.output_edges == res.coarse.m
        assert 0 < res.stats.vertex_reduction_ratio <= 1.0

    def test_deterministic(self, two_cliques_graph):
        a = coarsen_influence_graph(two_cliques_graph, r=6, rng=11)
        b = coarsen_influence_graph(two_cliques_graph, r=6, rng=11)
        assert a.coarse == b.coarse
        assert np.array_equal(a.pi, b.pi)

    def test_cliques_coarsen(self, two_cliques_graph):
        res = coarsen_influence_graph(two_cliques_graph, r=4, rng=0)
        assert res.coarse.n == 2
        assert res.coarse.weights.tolist() == [4, 4]
        # the only surviving edge is the 0.2 bridge
        assert res.coarse.m == 1
        assert res.coarse.probs[0] == pytest.approx(0.2)

    def test_map_seeds_and_pull_back(self, two_cliques_graph):
        res = coarsen_influence_graph(two_cliques_graph, r=4, rng=0)
        coarse_seeds = res.map_seeds(np.array([0, 1, 2]))
        assert coarse_seeds.size == 1  # same block
        back = res.pull_back(coarse_seeds, rng=0)
        assert back.size == 1
        assert res.pi[back[0]] == coarse_seeds[0]

    def test_map_seeds_range_check(self, two_cliques_graph):
        res = coarsen_influence_graph(two_cliques_graph, r=2, rng=0)
        with pytest.raises(CoarseningError):
            res.map_seeds(np.array([99]))

    def test_r_zero_collapses_to_one_vertex(self, paper_graph):
        res = coarsen_influence_graph(paper_graph, r=0, rng=0)
        assert res.coarse.n == 1
        assert res.coarse.m == 0
        assert res.coarse.weights.tolist() == [9]

    def test_validate_mode(self, two_cliques_graph):
        res = coarsen_influence_graph(two_cliques_graph, r=4, rng=0, validate=True)
        assert res.coarse.n == 2


class TestSublinearSpace:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_linear_space_bit_for_bit(self, tmp_path, seed):
        """Same numpy stream => identical output graph and mapping."""
        g = random_graph(30, 150, seed=seed, p_low=0.2, p_high=0.95)
        src = TripletStore.from_graph(g, tmp_path / "g.trip")
        sub = coarsen_influence_graph(src, space="sublinear", out_path=tmp_path / "h.trip", r=5, rng=seed
        )
        lin = coarsen_influence_graph(g, r=5, rng=seed)
        loaded = sub.load()
        assert loaded.coarse == lin.coarse
        assert np.array_equal(loaded.pi, lin.pi)

    def test_chunked_streaming_same_result(self, tmp_path):
        g = random_graph(25, 100, seed=9, p_low=0.3, p_high=0.9)
        src = TripletStore.from_graph(g, tmp_path / "g.trip", chunk_edges=11)
        small = coarsen_influence_graph(src, space="sublinear", out_path=tmp_path / "h1.trip", r=4, rng=5, chunk_edges=7
        )
        src2 = TripletStore.from_graph(g, tmp_path / "g2.trip")
        big = coarsen_influence_graph(src2, space="sublinear", out_path=tmp_path / "h2.trip", r=4, rng=5, chunk_edges=1 << 16
        )
        assert small.load().coarse == big.load().coarse

    def test_sample_stores_cleaned_up(self, tmp_path):
        g = random_graph(10, 30, seed=1)
        src = TripletStore.from_graph(g, tmp_path / "g.trip")
        coarsen_influence_graph(src, space="sublinear", out_path=tmp_path / "h.trip", r=3, rng=0)
        leftovers = [p for p in tmp_path.iterdir() if "live_edge" in p.name]
        assert leftovers == []

    def test_f_prime_stat_reported(self, tmp_path, two_cliques_graph):
        src = TripletStore.from_graph(two_cliques_graph, tmp_path / "g.trip")
        res = coarsen_influence_graph(src, space="sublinear", out_path=tmp_path / "h.trip", r=4, rng=0
        )
        assert "f_prime_edges" in res.stats.extras
        # the bridge edge touches a weight-4 component, so it is in F'
        assert res.stats.extras["f_prime_edges"] >= 1

    def test_negative_r_rejected(self, tmp_path, paper_graph):
        src = TripletStore.from_graph(paper_graph, tmp_path / "g.trip")
        with pytest.raises(CoarseningError):
            coarsen_influence_graph(src, space="sublinear", out_path=tmp_path / "h.trip", r=-1)


@pytest.mark.parallel
class TestParallel:
    def test_split_rounds_balanced(self):
        assert split_rounds(16, 4) == [4, 4, 4, 4]
        assert sum(split_rounds(10, 3)) == 10
        assert max(split_rounds(10, 3)) - min(split_rounds(10, 3)) <= 1

    def test_split_rounds_clamps_surplus_workers(self):
        # workers > r used to spawn zero-sample workers that still drew
        # seeds and occupied pool slots; now the pool shrinks to r.
        assert split_rounds(2, 4) == [1, 1]
        assert split_rounds(3, 16) == [1, 1, 1]
        for r in range(1, 12):
            counts = split_rounds(r, 64)
            assert min(counts) >= 1
            assert sum(counts) == r

    def test_split_rounds_r_zero_keeps_trivial_semantics(self):
        assert split_rounds(0, 4) == [0]

    def test_split_rounds_rejects_zero_workers(self):
        with pytest.raises(AlgorithmError):
            split_rounds(4, 0)

    def test_same_distribution_as_sequential(self, two_cliques_graph):
        """Both find the two cliques regardless of parallel split."""
        seq = coarsen_influence_graph(two_cliques_graph, r=8, rng=0)
        par = coarsen_influence_graph(
            two_cliques_graph, r=8, workers=4, rng=0
        )
        assert seq.coarse.n == par.coarse.n == 2
        assert seq.coarse.weights.tolist() == par.coarse.weights.tolist()

    def test_stats_extras(self, two_cliques_graph):
        res = coarsen_influence_graph(
            two_cliques_graph, r=7, workers=3, rng=0
        )
        assert res.stats.extras["workers"] == 3
        assert res.stats.extras["requested_workers"] == 3
        assert sum(res.stats.extras["rounds"]) == 7

    def test_worker_clamp_recorded_in_extras(self, two_cliques_graph):
        res = coarsen_influence_graph(
            two_cliques_graph, r=2, workers=8, rng=0
        )
        assert res.stats.extras["workers"] == 2
        assert res.stats.extras["requested_workers"] == 8
        assert res.stats.extras["rounds"] == [1, 1]

    def test_clamped_pool_matches_exact_pool(self, two_cliques_graph):
        """workers=8 with r=2 is the same run as workers=2 with r=2."""
        clamped = coarsen_influence_graph(
            two_cliques_graph, r=2, workers=8, rng=5
        )
        exact = coarsen_influence_graph(
            two_cliques_graph, r=2, workers=2, rng=5
        )
        assert clamped.coarse == exact.coarse
        assert np.array_equal(clamped.pi, exact.pi)

    def test_r_zero_parallel_is_trivial(self, paper_graph):
        res = coarsen_influence_graph(
            paper_graph, r=0, workers=4, rng=0
        )
        assert res.coarse.n == 1
        assert res.coarse.weights.tolist() == [9]
        assert res.stats.extras["rounds"] == [0]
