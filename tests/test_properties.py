"""Property-based tests (hypothesis) for the core data structures.

Strategies generate random influence graphs and partitions; properties are
the library's structural invariants (DESIGN.md Section 5).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import coarsen, robust_scc_partition
from repro.graph import GraphBuilder, combine_parallel_edges
from repro.partition import Partition, meet_labels
from repro.scc import kosaraju_scc_labels, scc_labels, tarjan_scc_labels

from .references import meet_labels_hash


@st.composite
def influence_graphs(draw, max_n: int = 12, max_m: int = 40):
    """A random simple influence graph."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.01, 1.0, allow_nan=False),
            ),
            min_size=m,
            max_size=m,
        )
    )
    builder = GraphBuilder(n=n)
    for u, v, p in edges:
        builder.add_edge(u, v, p)
    return builder.build()


@st.composite
def label_arrays(draw, size: int | None = None, max_label: int = 6):
    n = size if size is not None else draw(st.integers(1, 30))
    return np.asarray(
        draw(st.lists(st.integers(0, max_label), min_size=n, max_size=n)),
        dtype=np.int64,
    )


class TestPartitionLattice:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_meet_implementations_agree(self, data):
        n = data.draw(st.integers(1, 25))
        a = data.draw(label_arrays(size=n))
        b = data.draw(label_arrays(size=n))
        assert np.array_equal(meet_labels(a, b), meet_labels_hash(a, b))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_meet_is_coarsest_common_refinement(self, data):
        n = data.draw(st.integers(1, 20))
        p = Partition(data.draw(label_arrays(size=n)))
        q = Partition(data.draw(label_arrays(size=n)))
        m = p.meet(q)
        assert m.is_refinement_of(p)
        assert m.is_refinement_of(q)
        # coarsest: block count equals the number of distinct (p, q) pairs
        pairs = {(int(a), int(b)) for a, b in zip(p.labels, q.labels)}
        assert m.n_blocks == len(pairs)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_meet_idempotent_and_commutative(self, data):
        n = data.draw(st.integers(1, 20))
        p = Partition(data.draw(label_arrays(size=n)))
        q = Partition(data.draw(label_arrays(size=n)))
        assert p.meet(p) == p
        assert p.meet(q) == q.meet(p)


class TestSCCProperties:
    @given(influence_graphs())
    @settings(max_examples=50, deadline=None)
    def test_tarjan_kosaraju_equivalent(self, g):
        a = Partition(tarjan_scc_labels(g.indptr, g.heads))
        b = Partition(kosaraju_scc_labels(g.indptr, g.heads))
        assert a == b == Partition(scc_labels(g.indptr, g.heads))

    @given(influence_graphs())
    @settings(max_examples=50, deadline=None)
    def test_scc_blocks_are_mutually_reachable(self, g):
        from repro.diffusion import reachable_mask

        p = Partition(tarjan_scc_labels(g.indptr, g.heads))
        for block in p.non_singleton_blocks():
            for v in block:
                mask = reachable_mask(g.indptr, g.heads, np.array([v]))
                assert mask[block].all()


class TestCoarseningProperties:
    @given(influence_graphs(), st.integers(0, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_weight_conservation_and_no_self_loops(self, g, r, seed):
        partition = robust_scc_partition(g, r, rng=seed)
        coarse, pi = coarsen(g, partition)
        assert coarse.total_weight == g.n
        tails, heads, probs = coarse.edge_arrays()
        assert (tails != heads).all()
        assert (probs > 0).all() and (probs <= 1).all()

    @given(influence_graphs(), st.integers(0, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_coarse_sizes_never_grow(self, g, r, seed):
        partition = robust_scc_partition(g, r, rng=seed)
        coarse, _ = coarsen(g, partition)
        assert coarse.n <= g.n
        assert coarse.m <= g.m

    @given(influence_graphs(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_coarse_edges_reflect_original_crossings(self, g, r, seed):
        partition = robust_scc_partition(g, r, rng=seed)
        coarse, pi = coarsen(g, partition)
        tails, heads, _ = g.edge_arrays()
        expected = {
            (int(pi[u]), int(pi[v]))
            for u, v in zip(tails, heads)
            if pi[u] != pi[v]
        }
        got = set(zip(*(arr.tolist() for arr in coarse.edge_arrays()[:2])))
        assert got == expected


class TestCombineParallelEdges:
    @given(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.floats(0.01, 0.99)),
        max_size=30,
    ))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_brute_force(self, raw):
        tails = np.asarray([e[0] for e in raw], dtype=np.int64)
        heads = np.asarray([e[1] for e in raw], dtype=np.int64)
        probs = np.asarray([e[2] for e in raw], dtype=np.float64)
        t, h, p = combine_parallel_edges(tails, heads, probs)
        expected: dict[tuple[int, int], float] = {}
        for u, v, q in raw:
            expected[(u, v)] = expected.get((u, v), 1.0) * (1.0 - q)
        assert t.size == len(expected)
        for u, v, q in zip(t.tolist(), h.tolist(), p.tolist()):
            assert abs(q - (1.0 - expected[(u, v)])) < 1e-9
