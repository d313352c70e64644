"""Tests for r-robust SCC extraction (Definition 4.9, Theorem 4.11)."""

import numpy as np
import pytest

from repro import coarsen_influence_graph
from repro.core import (
    DynamicCoarsener,
    coarsen_addressable,
    robust_scc_partition,
    robust_scc_refinement_sequence,
)
from repro.diffusion import reachable_mask
from repro.errors import AlgorithmError, ReproError
from repro.partition import Partition
from repro.scc import kosaraju_scc_labels
from repro.storage import TripletStore

from .conftest import build_graph, random_graph
from .references import reference_fold


class TestBasics:
    def test_r_zero_is_trivial_partition(self, paper_graph):
        assert robust_scc_partition(paper_graph, 0, rng=0) == Partition.trivial(9)

    def test_negative_r_rejected(self, paper_graph):
        with pytest.raises(AlgorithmError):
            robust_scc_partition(paper_graph, -1, rng=0)

    def test_deterministic_in_seed(self, paper_graph):
        a = robust_scc_partition(paper_graph, 8, rng=42)
        b = robust_scc_partition(paper_graph, 8, rng=42)
        assert a == b

    def test_deterministic_graph_r1_equals_scc(self):
        # With all probabilities 1, every sample is the full graph.
        g = build_graph(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0),
                            (1, 2, 1.0)])
        p = robust_scc_partition(g, 1, rng=0)
        assert p.n_blocks == 2
        assert p.labels[0] == p.labels[1]
        assert p.labels[2] == p.labels[3]

    def test_high_probability_cliques_merge(self, two_cliques_graph):
        p = robust_scc_partition(two_cliques_graph, 4, rng=0)
        # Each 0.95-probability 4-clique should robustly merge.
        assert p.labels[0] == p.labels[1] == p.labels[2] == p.labels[3]
        assert p.labels[4] == p.labels[5] == p.labels[6] == p.labels[7]
        assert p.labels[0] != p.labels[4]

    def test_isolated_vertices_are_singleton_robust_sccs(self):
        g = build_graph(5, [(0, 1, 0.5)])
        p = robust_scc_partition(g, 3, rng=0)
        assert p.n_blocks == 5


class TestNegativeR:
    """Every coarsening entry point rejects ``r < 0`` with a typed error."""

    @pytest.mark.parametrize("entry", [
        "robust_scc_partition",
        "robust_scc_refinement_sequence",
        "algorithm_1",
        "algorithm_6",
        "algorithm_2",
        "coarsen_addressable",
        "dynamic_coarsener",
    ])
    @pytest.mark.parametrize("r", [-1, -2])
    def test_raises_repro_error(self, entry, r, tmp_path):
        g = random_graph(20, 60, seed=0)
        calls = {
            "robust_scc_partition": lambda: robust_scc_partition(g, r, rng=0),
            "robust_scc_refinement_sequence":
                lambda: robust_scc_refinement_sequence(g, r, rng=0),
            "algorithm_1": lambda: coarsen_influence_graph(g, r, rng=0),
            "algorithm_6": lambda: coarsen_influence_graph(g, r, rng=0,
                                                           workers=2),
            "algorithm_2": lambda: coarsen_influence_graph(
                TripletStore.from_graph(g, str(tmp_path / "g.trip")), r,
                rng=0, space="sublinear", out_path=str(tmp_path / "h.trip")),
            "coarsen_addressable": lambda: coarsen_addressable(g, r, seed=0),
            "dynamic_coarsener": lambda: DynamicCoarsener(g, r=r, rng=0),
        }
        with pytest.raises(ReproError, match="r must be non-negative"):
            calls[entry]()


class TestReferenceFold:
    """The fold equals a fold of reference SCCs over the same samples."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("r", [3, 8])
    def test_fold_matches_tarjan_reference(self, seed, r):
        g = random_graph(80, 320, seed=seed, p_low=0.1, p_high=0.6)
        assert (robust_scc_partition(g, r, rng=seed)
                == reference_fold(g, r, rng=seed))

    def test_fold_matches_kosaraju_reference_past_finest(self):
        # Weak edges drive the fold to all singletons early; the library
        # stops there, the reference folds every round.
        g = random_graph(200, 800, seed=4, p_low=0.05, p_high=0.3)
        fold = robust_scc_partition(g, 12, rng=1)
        assert fold.n_blocks == g.n
        assert fold == reference_fold(g, 12, rng=1, scc=kosaraju_scc_labels)


class TestDefinition:
    """Every r-robust SCC must be SC in *all* r sampled graphs (Def. 4.9)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_blocks_sc_in_every_sample(self, seed):
        g = random_graph(20, 80, seed=seed, p_low=0.3, p_high=0.95)
        partition, samples = robust_scc_partition(
            g, 4, rng=seed, keep_samples=True
        )
        assert len(samples) == 4
        for block in partition.non_singleton_blocks():
            for indptr, heads in samples:
                # every member must reach every other within the sample
                for v in block:
                    mask = reachable_mask(indptr, heads, np.array([v]))
                    assert mask[block].all(), "block not SC in a sample"

    @pytest.mark.parametrize("seed", range(5))
    def test_maximality_via_meet_characterisation(self, seed):
        """Theorem 4.11: P_r equals the meet of per-sample SCC partitions."""
        from repro.scc import scc_labels

        g = random_graph(18, 60, seed=seed, p_low=0.3, p_high=0.95)
        partition, samples = robust_scc_partition(
            g, 3, rng=seed, keep_samples=True
        )
        meet = Partition.trivial(g.n)
        for indptr, heads in samples:
            meet = meet.meet(Partition(scc_labels(indptr, heads)))
        assert partition == meet


class TestMonotonicity:
    def test_refinement_chain(self, two_cliques_graph):
        """P_1, P_2, ... only refine (Theorem 4.14's deterministic core)."""
        chain = robust_scc_refinement_sequence(two_cliques_graph, 8, rng=1)
        assert len(chain) == 8
        for finer, coarser in zip(chain[1:], chain[:-1]):
            assert finer.is_refinement_of(coarser)

    def test_block_counts_non_decreasing(self):
        g = random_graph(30, 120, seed=7, p_low=0.2, p_high=0.9)
        chain = robust_scc_refinement_sequence(g, 10, rng=3)
        counts = [p.n_blocks for p in chain]
        assert counts == sorted(counts)
