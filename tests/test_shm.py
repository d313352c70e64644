"""Tests for the shared-memory graph broadcast (repro.graph.shm)."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import InfluenceGraph, SharedGraph
from repro.graph.shm import (
    _ATTACHED,
    attach_shared_graph,
    detach_shared_graph,
    detach_shared_graphs,
)

from .conftest import random_graph


class TestPublishAttach:
    def test_round_trip_equality(self, two_cliques_graph):
        with SharedGraph.publish(two_cliques_graph) as shared:
            view = shared.graph()
            assert view == two_cliques_graph
            assert view.n == two_cliques_graph.n
            assert view.m == two_cliques_graph.m

    def test_views_are_zero_copy_and_read_only(self, two_cliques_graph):
        with SharedGraph.publish(two_cliques_graph) as shared:
            view = shared.graph()
            # Same physical pages, not a pickle round trip: the arrays'
            # memory comes from the segment, not from fresh allocations.
            assert view.indptr.base is not None
            assert not view.indptr.flags.writeable
            assert not view.heads.flags.writeable
            assert not view.probs.flags.writeable
            with pytest.raises(ValueError):
                view.heads[0] = 0

    def test_weighted_graph_round_trips(self):
        g = InfluenceGraph.from_edges(
            3,
            np.array([0, 1]), np.array([1, 2]), np.array([0.5, 0.5]),
            weights=np.array([3, 1, 2]),
        )
        with SharedGraph.publish(g) as shared:
            view = shared.graph()
            assert view.is_weighted
            assert view.weights.tolist() == [3, 1, 2]
            assert view == g

    def test_edgeless_graph_round_trips(self):
        g = InfluenceGraph.empty(5)
        with SharedGraph.publish(g) as shared:
            assert shared.graph() == g

    def test_spec_nbytes_matches_csr_payload(self, two_cliques_graph):
        with SharedGraph.publish(two_cliques_graph) as shared:
            g = two_cliques_graph
            expected = 8 * (g.n + 1) + 16 * g.m  # int64 indptr/heads, f64 probs
            assert shared.spec.nbytes == expected

    def test_attach_is_cached_per_process(self, two_cliques_graph):
        with SharedGraph.publish(two_cliques_graph) as shared:
            a = attach_shared_graph(shared.spec)
            b = attach_shared_graph(shared.spec)
            assert a is b
            assert a == two_cliques_graph
        detach_shared_graphs()
        assert shared.spec.name not in _ATTACHED

    def test_attached_view_survives_publisher_unlink(self, two_cliques_graph):
        # POSIX semantics: unlink removes the name; existing mappings live on.
        shared = SharedGraph.publish(two_cliques_graph)
        view = attach_shared_graph(shared.spec)
        shared.unlink()
        assert view == two_cliques_graph
        detach_shared_graphs()

    def test_explicit_detach_evicts_cache(self, two_cliques_graph):
        with SharedGraph.publish(two_cliques_graph) as shared:
            attach_shared_graph(shared.spec)
            assert shared.spec.name in _ATTACHED
            assert detach_shared_graph(shared.spec.name)
            assert shared.spec.name not in _ATTACHED
            # Idempotent: a second detach is a no-op.
            assert not detach_shared_graph(shared.spec.name)
            # Re-attach works while the segment still exists.
            assert attach_shared_graph(shared.spec) == two_cliques_graph
        assert shared.spec.name not in _ATTACHED  # unlink evicted it

    def test_segment_name_reuse_gets_fresh_mapping(self, two_cliques_graph):
        # The two-pool reuse scenario: a long-lived process attaches pool
        # A's segment, pool A is torn down, and pool B's segment happens
        # to reuse the same OS name.  Without unlink-time eviction the
        # cache would serve A's dead mapping for B's spec.
        first = SharedGraph.publish(two_cliques_graph)
        name = first.spec.name
        stale = attach_shared_graph(first.spec)
        assert stale == two_cliques_graph
        first.unlink()
        assert name not in _ATTACHED
        other = random_graph(12, 40, seed=3)
        second = SharedGraph.publish(other, name=name)
        try:
            fresh = attach_shared_graph(second.spec)
            assert fresh == other
            assert fresh != two_cliques_graph
        finally:
            second.unlink()


class TestLifecycle:
    def test_unlink_is_idempotent(self, two_cliques_graph):
        shared = SharedGraph.publish(two_cliques_graph)
        shared.unlink()
        shared.unlink()

    def test_graph_after_unlink_raises(self, two_cliques_graph):
        shared = SharedGraph.publish(two_cliques_graph)
        shared.unlink()
        with pytest.raises(GraphFormatError, match="already unlinked"):
            shared.graph()

    def test_attach_after_unlink_raises(self, two_cliques_graph):
        shared = SharedGraph.publish(two_cliques_graph)
        spec = shared.spec
        shared.unlink()
        with pytest.raises(GraphFormatError, match="does not exist"):
            attach_shared_graph(spec)

    def test_context_manager_unlinks_on_error(self, two_cliques_graph):
        with pytest.raises(RuntimeError):
            with SharedGraph.publish(two_cliques_graph) as shared:
                spec = shared.spec
                raise RuntimeError("boom")
        with pytest.raises(GraphFormatError):
            attach_shared_graph(spec)

    def test_large_graph_round_trip(self):
        g = random_graph(2_000, 10_000, seed=7, p_low=0.1, p_high=0.9)
        with SharedGraph.publish(g) as shared:
            view = attach_shared_graph(shared.spec)
            assert np.array_equal(view.indptr, g.indptr)
            assert np.array_equal(view.heads, g.heads)
            assert np.array_equal(view.probs, g.probs)
        detach_shared_graphs()
