"""Unit tests for GraphBuilder and parallel-edge combination."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import GraphBuilder, InfluenceGraph, combine_parallel_edges
from repro.graph.builder import _restore_input_order
from repro.graph.influence_graph import check_key_space


class TestCombineParallelEdges:
    def test_no_duplicates_is_identity(self):
        tails = np.array([0, 1], dtype=np.int64)
        heads = np.array([1, 2], dtype=np.int64)
        probs = np.array([0.3, 0.4])
        t, h, p = combine_parallel_edges(tails, heads, probs)
        assert t.tolist() == [0, 1]
        assert h.tolist() == [1, 2]
        assert p == pytest.approx([0.3, 0.4])

    def test_single_copies_keep_their_probability(self):
        # -expm1(log1p(-p)) would store 0.40400658973322034
        tails = np.array([1, 0, 0, 0], dtype=np.int64)
        heads = np.array([2, 1, 2, 1], dtype=np.int64)
        probs = np.array([0.4040065897332203, 0.3, 0.1, 0.2])
        t, h, p = combine_parallel_edges(tails, heads, probs)
        assert list(zip(t.tolist(), h.tolist())) == [(0, 1), (0, 2), (1, 2)]
        assert p[1:].tolist() == [0.1, 0.4040065897332203]
        assert p[0] == pytest.approx(1 - 0.7 * 0.8)

    def test_noisy_or_combination(self):
        tails = np.array([0, 0], dtype=np.int64)
        heads = np.array([1, 1], dtype=np.int64)
        probs = np.array([0.3, 0.2])
        _, _, p = combine_parallel_edges(tails, heads, probs)
        assert p.tolist() == pytest.approx([1 - 0.7 * 0.8])

    def test_probability_one_dominates(self):
        tails = np.array([0, 0], dtype=np.int64)
        heads = np.array([1, 1], dtype=np.int64)
        probs = np.array([1.0, 0.2])
        _, _, p = combine_parallel_edges(tails, heads, probs)
        assert p[0] == pytest.approx(1.0)

    def test_triple_duplicate_matches_brute_force(self):
        probs = np.array([0.1, 0.25, 0.5])
        _, _, p = combine_parallel_edges(
            np.zeros(3, dtype=np.int64), np.ones(3, dtype=np.int64), probs
        )
        assert p[0] == pytest.approx(1 - 0.9 * 0.75 * 0.5)

    def test_empty_input(self):
        empty = np.empty(0, dtype=np.int64)
        t, h, p = combine_parallel_edges(empty, empty, np.empty(0))
        assert t.size == h.size == p.size == 0

    def test_copies_summed_in_input_order(self):
        # ~12 shuffled copies of each key: the unstable sort must not
        # reorder a group's log terms (float addition is not associative).
        rng = np.random.default_rng(1)
        tails = rng.integers(0, 40, size=20_000)
        heads = rng.integers(0, 40, size=20_000)
        probs = rng.uniform(0.01, 0.99, size=20_000)
        t, h, p = combine_parallel_edges(tails, heads, probs)
        sums: dict[tuple[int, int], float] = {}
        for u, v, term in zip(tails.tolist(), heads.tolist(),
                              np.log1p(-probs).tolist()):
            sums[(u, v)] = sums.get((u, v), 0.0) + term
        expected = [sums[(u, v)] for u, v in zip(t.tolist(), h.tolist())]
        assert p.tobytes() == (-np.expm1(expected)).tobytes()

    def test_copy_order_key_overflow_raises(self):
        # Restoring input order packs ``position << b | index``; 2**32
        # edges need 32 bits for each, past int64.  A zero-stride view
        # stands in for the order array: the size check reads nothing.
        order = np.broadcast_to(np.int64(0), (1 << 32,))
        with pytest.raises(GraphFormatError, match="overflow"):
            _restore_input_order(order, np.zeros(1, dtype=np.int64),
                                 np.full(1, 2, dtype=np.int64))

    def test_random_against_brute_force(self):
        rng = np.random.default_rng(0)
        tails = rng.integers(0, 4, size=60)
        heads = rng.integers(0, 4, size=60)
        probs = rng.uniform(0.01, 0.99, size=60)
        t, h, p = combine_parallel_edges(tails, heads, probs)
        expected: dict[tuple[int, int], float] = {}
        for u, v, q in zip(tails, heads, probs):
            expected[(u, v)] = expected.get((u, v), 1.0) * (1.0 - q)
        for u, v, q in zip(t, h, p):
            assert q == pytest.approx(1.0 - expected[(int(u), int(v))])
        assert t.size == len(expected)


class TestGraphBuilder:
    def test_drops_self_loops(self):
        b = GraphBuilder(n=3)
        b.add_edge(0, 0, 0.5)
        b.add_edge(0, 1, 0.5)
        g = b.build()
        assert g.m == 1

    def test_infers_vertex_count(self):
        b = GraphBuilder()
        b.add_edge(0, 7, 0.5)
        assert b.build().n == 8

    def test_explicit_vertex_count_kept(self):
        b = GraphBuilder(n=20)
        b.add_edge(0, 1, 0.5)
        assert b.build().n == 20

    def test_undirected_edges_become_bidirected(self):
        b = GraphBuilder(n=2)
        b.add_undirected_edges([0], [1], [0.4])
        g = b.build()
        pairs = set(zip(*g.edge_arrays()[:2]))
        assert pairs == {(0, 1), (1, 0)}

    def test_duplicate_combination_on_build(self):
        b = GraphBuilder(n=2)
        b.add_edge(0, 1, 0.3)
        b.add_edge(0, 1, 0.2)
        g = b.build()
        assert g.m == 1
        assert g.probs[0] == pytest.approx(0.44)

    def test_rejects_invalid_probability(self):
        b = GraphBuilder(n=2)
        b.add_edge(0, 1, 2.0)
        with pytest.raises(GraphFormatError):
            b.build()

    def test_rejects_mismatched_batch(self):
        b = GraphBuilder(n=3)
        with pytest.raises(GraphFormatError):
            b.add_edges([0, 1], [2], [0.5])

    def test_empty_builder(self):
        assert GraphBuilder(n=4).build().m == 0

    def test_weights_passed_through(self):
        b = GraphBuilder(n=2)
        b.add_edge(0, 1, 0.5)
        g = b.build(weights=np.array([2, 3]))
        assert g.total_weight == 5


class TestTypedErrorsBeforePacking:
    """Each edge is packed into the int64 key ``tail * width + head``."""

    def test_negative_head(self):
        # With heads.max() == 5, (1, -1) and (0, 5) would share key 5.
        b = GraphBuilder()
        b.add_edges([1, 0], [-1, 5], [0.5, 0.5])
        with pytest.raises(GraphFormatError,
                           match="vertex ids must be non-negative"):
            b.build()
        with pytest.raises(GraphFormatError,
                           match="vertex ids must be non-negative"):
            combine_parallel_edges(np.array([1, 0]), np.array([-1, 5]),
                                   np.array([0.5, 0.5]))

    def test_head_at_least_n(self):
        b = GraphBuilder(n=3)
        b.add_edge(0, 5, 0.5)
        with pytest.raises(GraphFormatError, match="edge head out of range"):
            b.build()
        for head in (3, -1):
            with pytest.raises(GraphFormatError,
                               match="edge head out of range"):
                InfluenceGraph.from_edges(3, [0], [head], [0.5])

    def test_oversized_inferred_n(self):
        b = GraphBuilder()
        b.add_edge(0, 2**40, 0.5)
        with pytest.raises(GraphFormatError,
                           match="vertices overflow the int64 edge key"):
            b.build()
        with pytest.raises(GraphFormatError,
                           match="vertices overflow the int64 edge key"):
            InfluenceGraph.from_edges(2**32, [0], [1], [0.5])
        check_key_space(3_037_000_499)  # the largest n whose keys fit
        with pytest.raises(GraphFormatError, match="overflow"):
            check_key_space(3_037_000_500)
