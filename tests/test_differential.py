"""Differential determinism: one seed, one answer, across implementations.

The library's fold is checked against folds of the reference SCC routines
(``tarjan`` / ``kosaraju``), and two coarsening algorithms (Algorithm 1
in-memory, Algorithm 2 disk-streaming) against each other.  All of them
consume the same live-edge sample stream, so with a fixed seed they must
produce *identical* partitions and *identical* coarse edge weights ``q`` —
not merely statistically close ones.  Any divergence means a path reordered
or re-drew randomness, which would silently invalidate every cross-path
comparison in the benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import coarsen, coarsen_influence_graph
from repro.scc import kosaraju_scc_labels, tarjan_scc_labels
from repro.storage import TripletStore

from .conftest import random_graph
from .references import reference_fold

SEEDS = (0, 7, 123)


def q_weight_map(graph) -> dict[tuple[int, int], float]:
    tails, heads, probs = graph.edge_arrays()
    return {
        (int(u), int(v)): float(p)
        for u, v, p in zip(tails.tolist(), heads.tolist(), probs.tolist())
    }


def assert_same_q(left: dict, right: dict) -> None:
    assert left.keys() == right.keys()
    for edge, p in left.items():
        assert right[edge] == pytest.approx(p, abs=1e-12), edge


class TestSccBackends:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tarjan_kosaraju_identical(self, seed):
        graph = random_graph(n=80, m=400, seed=seed, p_low=0.05, p_high=0.9)
        result = coarsen_influence_graph(graph, r=6, rng=seed)
        for scc in (tarjan_scc_labels, kosaraju_scc_labels):
            partition = reference_fold(graph, 6, rng=seed, scc=scc)
            coarse, pi = coarsen(graph, partition)
            assert np.array_equal(result.pi, pi)
            assert result.partition == partition
            assert_same_q(q_weight_map(result.coarse), q_weight_map(coarse))
            assert np.array_equal(result.coarse.weights, coarse.weights)


class TestAlgorithm1VsAlgorithm2:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("r", (1, 4, 8))
    def test_linear_vs_sublinear_identical(self, tmp_path, seed, r):
        graph = random_graph(n=70, m=350, seed=seed, p_low=0.05, p_high=0.9)
        lin = coarsen_influence_graph(graph, r=r, rng=seed)

        src = TripletStore.from_graph(graph, str(tmp_path / "g.trip"))
        sub = coarsen_influence_graph(src, space="sublinear", out_path=str(tmp_path / "h.trip"), r=r, rng=seed,
            work_dir=str(tmp_path),
        )

        assert np.array_equal(lin.pi, sub.pi)
        assert lin.partition == sub.partition
        assert np.array_equal(lin.coarse.weights, sub.weights)
        assert_same_q(q_weight_map(lin.coarse), q_weight_map(sub.store.to_graph()))

    def test_small_chunks_do_not_change_the_answer(self, tmp_path):
        """Chunked streaming draws the same RNG stream as one bulk draw."""
        graph = random_graph(n=60, m=300, seed=5, p_low=0.1, p_high=0.8)
        lin = coarsen_influence_graph(graph, r=4, rng=5)
        src = TripletStore.from_graph(graph, str(tmp_path / "g.trip"))
        sub = coarsen_influence_graph(src, space="sublinear", out_path=str(tmp_path / "h.trip"), r=4, rng=5,
            work_dir=str(tmp_path), chunk_edges=17,
        )
        assert np.array_equal(lin.pi, sub.pi)
        assert_same_q(q_weight_map(lin.coarse), q_weight_map(sub.store.to_graph()))


class TestRunToRun:
    def test_same_seed_same_answer_twice(self):
        graph = random_graph(n=90, m=450, seed=11)
        first = coarsen_influence_graph(graph, r=8, rng=42)
        second = coarsen_influence_graph(graph, r=8, rng=42)
        assert np.array_equal(first.pi, second.pi)
        assert_same_q(q_weight_map(first.coarse), q_weight_map(second.coarse))

    def test_different_seeds_usually_differ(self):
        # sanity check that the differential tests are not vacuous
        graph = random_graph(n=90, m=450, seed=11)
        a = coarsen_influence_graph(graph, r=2, rng=1)
        b = coarsen_influence_graph(graph, r=2, rng=2)
        assert not np.array_equal(a.pi, b.pi) or a.coarse.m != b.coarse.m
