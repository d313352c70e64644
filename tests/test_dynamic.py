"""Tests for dynamic updates (Algorithm 7).

The master property: after any sequence of insertions and deletions, the
incrementally maintained coarsening equals a from-scratch recomputation over
the same live-edge samples.
"""

import numpy as np
import pytest

from repro.core import Delta, DynamicCoarsener, coarsen_addressable
from repro.errors import CoarseningError, WireFormatError
from repro.graph import InfluenceGraph

from .conftest import build_graph, random_graph


def assert_matches_reference(dyn: DynamicCoarsener) -> None:
    snap = dyn.snapshot()
    ref = dyn.reference_coarsening()
    assert snap.partition == ref.partition
    assert np.array_equal(snap.pi, ref.pi)
    assert snap.coarse == ref.coarse


class TestConstruction:
    def test_initial_state_matches_reference(self, two_cliques_graph):
        dyn = DynamicCoarsener(two_cliques_graph, r=4, rng=0)
        assert_matches_reference(dyn)

    def test_rejects_weighted_input(self):
        g = InfluenceGraph.from_edges(
            2, np.array([0]), np.array([1]), np.array([0.5]),
            weights=np.array([2, 2]),
        )
        with pytest.raises(CoarseningError):
            DynamicCoarsener(g, r=2, rng=0)

    def test_current_graph_round_trip(self, paper_graph):
        dyn = DynamicCoarsener(paper_graph, r=2, rng=0)
        assert dyn.current_graph() == paper_graph


class TestInsert:
    def test_insert_updates_graph(self, paper_graph):
        dyn = DynamicCoarsener(paper_graph, r=4, rng=0)
        dyn.insert_edge(0, 8, 0.25)
        g = dyn.current_graph()
        assert g.m == 14
        assert_matches_reference(dyn)

    def test_insert_duplicate_rejected(self, paper_graph):
        dyn = DynamicCoarsener(paper_graph, r=2, rng=0)
        with pytest.raises(CoarseningError, match="already"):
            dyn.insert_edge(0, 1, 0.5)

    def test_insert_self_loop_rejected(self, paper_graph):
        dyn = DynamicCoarsener(paper_graph, r=2, rng=0)
        with pytest.raises(CoarseningError):
            dyn.insert_edge(3, 3, 0.5)

    def test_insert_bad_probability_rejected(self, paper_graph):
        dyn = DynamicCoarsener(paper_graph, r=2, rng=0)
        with pytest.raises(CoarseningError):
            dyn.insert_edge(0, 8, 1.5)

    def test_low_probability_insert_prunes_scc_work(self, paper_graph):
        dyn = DynamicCoarsener(paper_graph, r=16, rng=0)
        before = dyn.stats.scc_recomputations
        dyn.insert_edge(0, 8, 0.01)
        # With p = 0.01, almost all 16 sample updates are coin-flip skips.
        assert dyn.stats.scc_recomputations - before <= 3
        assert_matches_reference(dyn)


class TestDelete:
    def test_delete_updates_graph(self, paper_graph):
        dyn = DynamicCoarsener(paper_graph, r=4, rng=0)
        dyn.delete_edge(0, 1)
        assert dyn.current_graph().m == 12
        assert_matches_reference(dyn)

    def test_delete_missing_rejected(self, paper_graph):
        dyn = DynamicCoarsener(paper_graph, r=2, rng=0)
        with pytest.raises(CoarseningError, match="not present"):
            dyn.delete_edge(0, 8)

    def test_insert_then_delete_roundtrip(self, paper_graph):
        dyn = DynamicCoarsener(paper_graph, r=4, rng=1)
        dyn.insert_edge(6, 0, 0.35)
        dyn.delete_edge(6, 0)
        assert dyn.current_graph() == paper_graph
        assert_matches_reference(dyn)

    def test_delete_bundled_edge_updates_q(self, two_cliques_graph):
        """Deleting one edge of a coarse bundle divides it out of q."""
        dyn = DynamicCoarsener(two_cliques_graph, r=4, rng=0)
        # insert a second bridge between the cliques, then delete the first
        dyn.insert_edge(2, 6, 0.3)
        dyn.delete_edge(1, 5)
        assert_matches_reference(dyn)

    def test_delete_probability_one_edge(self):
        g = build_graph(3, [(0, 1, 1.0), (0, 2, 0.5)])
        dyn = DynamicCoarsener(g, r=3, rng=0)
        dyn.delete_edge(0, 1)
        assert_matches_reference(dyn)


class TestRandomisedSequences:
    @pytest.mark.parametrize("seed", range(4))
    def test_long_mixed_sequence_matches_reference(self, seed):
        g = random_graph(15, 40, seed=seed, p_low=0.2, p_high=0.9)
        dyn = DynamicCoarsener(g, r=5, rng=seed)
        rng = np.random.default_rng(seed + 100)
        for step in range(25):
            existing = dyn.edge_list()
            if existing and rng.random() < 0.45:
                u, v = existing[rng.integers(len(existing))]
                dyn.delete_edge(u, v)
            else:
                u = int(rng.integers(15))
                v = int(rng.integers(15))
                if u == v or dyn.has_edge(u, v):
                    continue
                dyn.insert_edge(u, v, float(rng.uniform(0.1, 0.95)))
            if step % 5 == 4:
                assert_matches_reference(dyn)
        assert_matches_reference(dyn)
        assert dyn.stats.insertions + dyn.stats.deletions > 0

    def test_stats_accounting(self, paper_graph):
        dyn = DynamicCoarsener(paper_graph, r=8, rng=0)
        dyn.insert_edge(0, 8, 0.5)
        dyn.delete_edge(0, 8)
        s = dyn.stats
        assert s.insertions == 1
        assert s.deletions == 1
        assert s.scc_recomputations + s.scc_skipped == 2 * 8
        assert s.full_rebuilds + s.fast_updates == 2


class TestBundleRecompute:
    def test_delete_probability_one_edge_from_multi_edge_bundle(self):
        """Regression: deleting a p=1 edge whose coarse bundle has other
        members must recompute the bundle WITHOUT the deleted edge.

        Construct a reliable 2-block coarsening {0,1} and {2,3} with two
        parallel original edges 0->2 (p=1) and 1->3 (p=0.4) in the same
        coarse bundle; delete the p=1 edge and compare with a reference
        recomputation.
        """
        from repro.graph import GraphBuilder

        builder = GraphBuilder(n=4)
        builder.add_edges([0, 1, 2, 3], [1, 0, 3, 2], [1.0] * 4)  # two 2-cycles
        builder.add_edge(0, 2, 1.0)
        builder.add_edge(1, 3, 0.4)
        g = builder.build()
        dyn = DynamicCoarsener(g, r=4, rng=0)
        snap = dyn.snapshot()
        assert snap.coarse.n == 2  # the two p=1 cycles merged
        dyn.delete_edge(0, 2)
        assert_matches_reference(dyn)
        # the bundle must now carry exactly the surviving edge's probability
        q = {tuple(map(int, e[:2])): float(e[2])
             for e in zip(*dyn.snapshot().coarse.edge_arrays())}
        assert list(q.values()) == pytest.approx([0.4])

    @staticmethod
    def _two_triangles_with_bridge():
        """Two reliable 3-cycles linked by one probabilistic bridge.

        Every live-edge sample keeps all p=1 edges, so the coarsening is
        always the two triangle blocks with a single coarse bundle
        carrying the bridge — a fixed stage on which bundle arithmetic can
        be exercised in isolation (cross-block inserts never change SCCs).
        """
        return build_graph(6, [
            (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
            (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0),
            (0, 3, 0.4),
        ])

    @pytest.mark.parametrize("p", [0.7, 1.0, 0.3])
    def test_thousand_insert_delete_roundtrips_never_drift_q(self, p):
        """Regression: exact member tracking — q is recomputed from the
        bundle's member multiset, never divided out, so repeated
        insert/delete of the same edge is bit-for-bit idempotent even for
        p values (like 1.0) where division would be catastrophic."""
        g = self._two_triangles_with_bridge()
        dyn = DynamicCoarsener(g, r=4, rng=0)
        baseline = dyn.snapshot().coarse.probs.copy()
        for _ in range(1000):
            dyn.insert_edge(1, 4, p)
            dyn.delete_edge(1, 4)
        after = dyn.snapshot().coarse.probs
        assert np.array_equal(after, baseline)
        assert_matches_reference(dyn)

    def test_roundtrip_drift_free_under_addressable_coins(self):
        g = self._two_triangles_with_bridge()
        dyn = DynamicCoarsener(g, r=4, rng=0, coins="addressable")
        baseline = dyn.snapshot().coarse.digest()
        for _ in range(1000):
            dyn.insert_edge(2, 5, 0.7)
            dyn.delete_edge(2, 5)
        assert dyn.snapshot().coarse.digest() == baseline
        cold = coarsen_addressable(dyn.current_graph(), r=4, seed=0)
        assert dyn.snapshot().coarse.digest() == cold.coarse.digest()

    def test_bundle_becomes_saturated_and_recovers(self):
        """A p=1 member saturates q to exactly 1.0; removing it restores
        the exact prior value (impossible with multiply/divide tracking)."""
        g = self._two_triangles_with_bridge()
        dyn = DynamicCoarsener(g, r=4, rng=0)
        before = dyn.snapshot().coarse.probs.copy()
        dyn.insert_edge(1, 4, 1.0)
        assert dyn.snapshot().coarse.probs.max() == 1.0
        dyn.delete_edge(1, 4)
        assert np.array_equal(dyn.snapshot().coarse.probs, before)


class TestAddressableCoins:
    @pytest.mark.parametrize("seed", range(3))
    def test_initial_state_equals_cold_construction(self, seed):
        g = random_graph(20, 60, seed=seed, p_low=0.1, p_high=0.95)
        dyn = DynamicCoarsener(g, r=5, rng=seed, coins="addressable")
        cold = coarsen_addressable(g, r=5, seed=seed)
        snap = dyn.snapshot()
        assert snap.coarse.digest() == cold.coarse.digest()
        assert np.array_equal(snap.pi, cold.pi)
        assert snap.partition == cold.partition

    def test_mutations_track_cold_construction_bit_for_bit(self):
        g = random_graph(15, 40, seed=2, p_low=0.2, p_high=0.9)
        dyn = DynamicCoarsener(g, r=4, rng=7, coins="addressable")
        rng = np.random.default_rng(0)
        for _ in range(20):
            existing = dyn.edge_list()
            if existing and rng.random() < 0.45:
                u, v = existing[rng.integers(len(existing))]
                dyn.delete_edge(u, v)
            else:
                u, v = int(rng.integers(15)), int(rng.integers(15))
                if u == v or dyn.has_edge(u, v):
                    continue
                dyn.insert_edge(u, v, float(rng.uniform(0.1, 0.95)))
            cold = coarsen_addressable(dyn.current_graph(), r=4, seed=7)
            snap = dyn.snapshot()
            assert snap.coarse.digest() == cold.coarse.digest()
            assert np.array_equal(snap.pi, cold.pi)

    def test_requires_integer_seed(self, paper_graph):
        with pytest.raises(CoarseningError, match="integer seed"):
            DynamicCoarsener(paper_graph, r=2,
                             rng=np.random.default_rng(0),
                             coins="addressable")

    def test_unknown_coin_discipline_rejected(self, paper_graph):
        with pytest.raises(CoarseningError, match="coins"):
            DynamicCoarsener(paper_graph, r=2, rng=0, coins="laplace")


class TestBatchedDeltas:
    def test_batch_matches_sequential_application(self, paper_graph):
        batched = DynamicCoarsener(paper_graph, r=4, rng=3,
                                   coins="addressable")
        sequential = DynamicCoarsener(paper_graph, r=4, rng=3,
                                      coins="addressable")
        deltas = [
            Delta("insert", 0, 8, 0.6),
            Delta("delete", 0, 1),
            Delta("insert", 6, 0, 0.3),
        ]
        out = batched.apply_deltas(deltas)
        for d in deltas:
            if d.op == "insert":
                sequential.insert_edge(d.u, d.v, d.p)
            else:
                sequential.delete_edge(d.u, d.v)
        assert out["applied"] == 3
        assert batched.current_graph() == sequential.current_graph()
        assert (batched.snapshot().coarse.digest()
                == sequential.snapshot().coarse.digest())
        assert np.array_equal(batched.snapshot().pi, sequential.snapshot().pi)

    def test_batch_is_atomic_on_validation_failure(self, paper_graph):
        dyn = DynamicCoarsener(paper_graph, r=4, rng=0)
        before = dyn.current_graph()
        with pytest.raises(CoarseningError, match="already present"):
            dyn.apply_deltas([
                Delta("insert", 0, 8, 0.5),
                Delta("insert", 0, 1, 0.5),  # duplicate of an initial edge
            ])
        assert dyn.current_graph() == before
        assert dyn.stats.insertions == 0

    def test_batch_validates_against_batch_prefix(self, paper_graph):
        """A delete of an edge inserted earlier in the same batch is legal."""
        dyn = DynamicCoarsener(paper_graph, r=4, rng=0)
        dyn.apply_deltas([
            Delta("insert", 0, 8, 0.5),
            Delta("delete", 0, 8),
        ])
        assert dyn.current_graph() == paper_graph
        assert_matches_reference(dyn)

    def test_empty_batch_is_a_noop(self, paper_graph):
        dyn = DynamicCoarsener(paper_graph, r=4, rng=0)
        assert dyn.apply_deltas([]) == {"applied": 0, "fast": 0,
                                        "rebuilt": False,
                                        "coarse_changed": False}
        assert dyn.stats.insertions + dyn.stats.deletions == 0

    def test_delta_validation(self):
        with pytest.raises(CoarseningError, match="unknown delta op"):
            Delta("upsert", 0, 1, 0.5)
        with pytest.raises(CoarseningError, match="probability"):
            Delta("insert", 0, 1)
        with pytest.raises(CoarseningError, match="'u'/'v'"):
            Delta.from_json({"op": "insert", "u": "zero", "v": 1, "p": 0.5})
        d = Delta.from_json({"op": "delete", "u": 3, "v": 4})
        assert (d.op, d.u, d.v, d.p) == ("delete", 3, 4, None)

    @pytest.mark.parametrize("u, v", [
        (0, 2.5), (2.0, 1), (True, 1), (0, False), ("3", 1), (0, [2]),
        (0, None),
    ])
    def test_delta_from_json_rejects_non_integer_endpoints(self, u, v):
        # int() would truncate 2.5 to 2 (or read true as 1) and mutate an
        # edge the request never named.
        with pytest.raises(CoarseningError, match="must be an integer"):
            Delta.from_json({"op": "insert", "u": u, "v": v, "p": 0.5})

    @pytest.mark.parametrize("p", [
        True, "0.5", [0.5], {"p": 0.5}, float("nan"), float("inf"),
    ])
    def test_delta_from_json_rejects_non_number_probability(self, p):
        # float() would read true as 1.0 and "0.5" as 0.5.
        with pytest.raises(WireFormatError, match="finite number"):
            Delta.from_json({"op": "insert", "u": 0, "v": 1, "p": p})

    def test_delta_from_json_accepts_json_numbers(self):
        assert Delta.from_json({"op": "insert", "u": 0, "v": 1,
                                "p": 1}).p == 1.0
        d = Delta.from_json({"op": "insert", "u": 0, "v": 1,
                             "p": np.float32(0.5)})
        assert d.p == 0.5 and type(d.p) is float

    def test_delta_from_json_accepts_numpy_integers(self):
        d = Delta.from_json({"op": "insert", "u": np.int64(3),
                             "v": np.int32(4), "p": 0.5})
        assert (d.u, d.v) == (3, 4)
        assert type(d.u) is int and type(d.v) is int
