"""Unit tests for the CSR influence-graph substrate."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import InfluenceGraph

from .conftest import build_graph, random_graph


class TestConstruction:
    def test_from_edges_sorts_into_csr(self):
        g = InfluenceGraph.from_edges(
            3, np.array([2, 0, 1]), np.array([0, 1, 2]), np.array([0.5, 0.4, 0.3])
        )
        assert g.n == 3
        assert g.m == 3
        assert g.tails().tolist() == [0, 1, 2]
        assert g.heads.tolist() == [1, 2, 0]
        assert g.probs.tolist() == [0.4, 0.3, 0.5]

    def test_empty_graph(self):
        g = InfluenceGraph.empty(5)
        assert g.n == 5
        assert g.m == 0
        assert g.out_degree().tolist() == [0] * 5

    def test_zero_vertices(self):
        g = InfluenceGraph.empty(0)
        assert g.n == 0
        assert g.total_weight == 0

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(GraphFormatError):
            InfluenceGraph.from_edges(
                2, np.array([0]), np.array([1, 0]), np.array([0.5])
            )

    def test_rejects_out_of_range_head(self):
        with pytest.raises(GraphFormatError):
            InfluenceGraph.from_edges(
                2, np.array([0]), np.array([5]), np.array([0.5])
            )

    def test_rejects_out_of_range_tail(self):
        with pytest.raises(GraphFormatError):
            InfluenceGraph.from_edges(
                2, np.array([-1]), np.array([1]), np.array([0.5])
            )

    def test_rejects_zero_probability(self):
        with pytest.raises(GraphFormatError):
            InfluenceGraph.from_edges(
                2, np.array([0]), np.array([1]), np.array([0.0])
            )

    def test_rejects_probability_above_one(self):
        with pytest.raises(GraphFormatError):
            InfluenceGraph.from_edges(
                2, np.array([0]), np.array([1]), np.array([1.5])
            )

    def test_accepts_probability_exactly_one(self):
        g = InfluenceGraph.from_edges(
            2, np.array([0]), np.array([1]), np.array([1.0])
        )
        assert g.probs[0] == 1.0

    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            InfluenceGraph.from_edges(
                2, np.array([1]), np.array([1]), np.array([0.5])
            )

    def test_csr_constructor_rejects_self_loop(self):
        with pytest.raises(GraphFormatError, match="self-loops"):
            InfluenceGraph(np.array([0, 1, 2]), np.array([1, 1]),
                           np.array([0.5, 0.5]))

    def test_validation_caches_no_tails(self, paper_graph):
        """Validating checks self-loops without keeping an m-long tails
        array on the graph (block subgraphs never read theirs)."""
        sub = paper_graph.induced_subgraph(np.array([0, 1, 2]))
        assert sub._tails is None
        g = InfluenceGraph(np.array([0, 1, 2]), np.array([1, 0]),
                           np.array([0.5, 0.5]))
        assert g._tails is None
        assert g.tails().tolist() == [0, 1]

    def test_rejects_duplicate_edges(self):
        with pytest.raises(GraphFormatError):
            InfluenceGraph.from_edges(
                2, np.array([0, 0]), np.array([1, 1]), np.array([0.5, 0.6])
            )

    def test_rejects_bad_weights_shape(self):
        with pytest.raises(GraphFormatError):
            InfluenceGraph.from_edges(
                2, np.array([0]), np.array([1]), np.array([0.5]),
                weights=np.array([1, 2, 3]),
            )

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(GraphFormatError):
            InfluenceGraph.from_edges(
                2, np.array([0]), np.array([1]), np.array([0.5]),
                weights=np.array([1, 0]),
            )


class TestAccessors:
    def test_degrees(self, paper_graph):
        assert paper_graph.out_degree(1) == 3  # 1 -> 0, 2, 3
        assert paper_graph.in_degree()[3] == 2  # from 1 and 2
        assert int(np.sum(paper_graph.out_degree())) == paper_graph.m

    def test_out_edges_slice(self, paper_graph):
        heads, probs = paper_graph.out_edges(1)
        assert sorted(heads.tolist()) == [0, 2, 3]
        assert len(probs) == 3

    def test_iter_edges_matches_arrays(self, paper_graph):
        triplets = list(paper_graph.iter_edges())
        tails, heads, probs = paper_graph.edge_arrays()
        assert len(triplets) == paper_graph.m
        for i, (u, v, p) in enumerate(triplets):
            assert (u, v) == (tails[i], heads[i])
            assert p == pytest.approx(probs[i])

    def test_weights_default_to_ones(self, paper_graph):
        assert not paper_graph.is_weighted
        assert paper_graph.weights.tolist() == [1] * 9
        assert paper_graph.total_weight == 9

    def test_explicit_weights(self):
        g = InfluenceGraph.from_edges(
            3, np.array([0]), np.array([1]), np.array([0.5]),
            weights=np.array([3, 1, 2]),
        )
        assert g.is_weighted
        assert g.total_weight == 6

    def test_repr_mentions_sizes(self, paper_graph):
        assert "n=9" in repr(paper_graph)
        assert "m=13" in repr(paper_graph)


class TestReverse:
    def test_reverse_flips_edges(self, paper_graph):
        rev = paper_graph.reverse()
        fwd = set(zip(*paper_graph.edge_arrays()[:2]))
        bwd = set(zip(*rev.edge_arrays()[:2]))
        assert {(v, u) for (u, v) in fwd} == bwd

    def test_reverse_is_cached_and_involutive(self, paper_graph):
        rev = paper_graph.reverse()
        assert rev.reverse() is paper_graph
        assert paper_graph.reverse() is rev

    def test_reverse_preserves_probabilities(self):
        g = build_graph(3, [(0, 1, 0.3), (1, 2, 0.7)])
        rev = g.reverse()
        pairs = {
            (u, v): p for u, v, p in zip(*rev.edge_arrays())
        }
        assert pairs[(1, 0)] == pytest.approx(0.3)
        assert pairs[(2, 1)] == pytest.approx(0.7)

    def test_reverse_of_random_graph_preserves_degree_sums(self):
        g = random_graph(30, 100, seed=3)
        rev = g.reverse()
        assert np.array_equal(np.sort(g.in_degree()), np.sort(rev.out_degree()))


class TestDerivedGraphs:
    def test_with_probabilities(self, paper_graph):
        new = paper_graph.with_probabilities(np.full(paper_graph.m, 0.5))
        assert new.m == paper_graph.m
        assert (new.probs == 0.5).all()
        assert (paper_graph.probs != 0.5).any()  # original untouched

    def test_induced_subgraph_paper_c1(self, paper_graph):
        sub = paper_graph.induced_subgraph(np.array([0, 1, 2]))
        assert sub.n == 3
        assert sub.m == 4  # the four intra-C1 edges
        pairs = set(zip(*sub.edge_arrays()[:2]))
        assert pairs == {(0, 1), (1, 0), (1, 2), (2, 0)}

    def test_induced_subgraph_relabels_in_order(self, paper_graph):
        sub = paper_graph.induced_subgraph(np.array([4, 5]))
        pairs = {(u, v): p for u, v, p in zip(*sub.edge_arrays())}
        assert pairs[(0, 1)] == pytest.approx(0.5)  # 4 -> 5
        assert pairs[(1, 0)] == pytest.approx(0.6)  # 5 -> 4

    def test_induced_subgraph_keeps_weights(self):
        g = InfluenceGraph.from_edges(
            3, np.array([0]), np.array([1]), np.array([0.5]),
            weights=np.array([3, 1, 2]),
        )
        sub = g.induced_subgraph(np.array([2, 0]))
        assert sub.weights.tolist() == [2, 3]


class TestEquality:
    def test_equal_graphs(self, paper_graph):
        t, h, p = paper_graph.edge_arrays()
        clone = InfluenceGraph.from_edges(9, t, h, p)
        assert paper_graph == clone

    def test_different_probabilities_not_equal(self, paper_graph):
        other = paper_graph.with_probabilities(np.full(paper_graph.m, 0.5))
        assert paper_graph != other

    def test_not_equal_to_other_types(self, paper_graph):
        assert paper_graph != "graph"
