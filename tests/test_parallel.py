"""Cross-executor determinism, broadcast accounting, and the meet tree.

The contract under test: for a fixed ``(r, workers, seed)`` the three
executors of Algorithm 6 are *byte-identical* — same partition labels, same
coarse CSR — because the per-worker RNG streams are derived before any pool
exists and the pairwise meet tree is exact (Theorem 4.11).  The process
executor additionally must broadcast the graph exactly once per pool
(asserted through the ``coarsen.parallel.broadcast_bytes`` metric, not
timing).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import GraphHandle, coarsen_influence_graph
from repro.core.parallel import coarsen_influence_graph_parallel
from repro.errors import AlgorithmError, CoarseningError, PartitionError
from repro.partition import Partition, meet_all

from .conftest import random_graph


def _run(graph, executor, r=8, workers=4, rng=3):
    return coarsen_influence_graph(
        graph, r=r, workers=workers, rng=rng, executor=executor
    )


def _assert_identical(a, b):
    assert np.array_equal(a.partition.labels, b.partition.labels)
    assert np.array_equal(a.pi, b.pi)
    assert np.array_equal(a.coarse.indptr, b.coarse.indptr)
    assert np.array_equal(a.coarse.heads, b.coarse.heads)
    assert np.array_equal(a.coarse.probs, b.coarse.probs)
    assert np.array_equal(a.coarse.weights, b.coarse.weights)


class TestCrossExecutorDeterminism:
    def test_serial_vs_thread_byte_identical(self):
        g = random_graph(60, 240, seed=2, p_low=0.2, p_high=0.9)
        _assert_identical(_run(g, "serial"), _run(g, "thread"))

    @pytest.mark.parallel
    def test_serial_vs_process_byte_identical(self):
        g = random_graph(60, 240, seed=2, p_low=0.2, p_high=0.9)
        _assert_identical(_run(g, "serial"), _run(g, "process"))

    @pytest.mark.parallel
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_all_executors_all_worker_counts(self, workers):
        g = random_graph(40, 160, seed=4, p_low=0.3, p_high=0.9)
        serial = _run(g, "serial", workers=workers)
        for executor in ("thread", "process"):
            _assert_identical(serial, _run(g, executor, workers=workers))

    def test_repeat_run_stable(self):
        g = random_graph(40, 160, seed=1, p_low=0.3, p_high=0.9)
        _assert_identical(_run(g, "thread"), _run(g, "thread"))


class TestBroadcastAccounting:
    @pytest.mark.parallel
    def test_graph_broadcast_exactly_once_per_pool(self):
        """A 10^5-edge graph crosses the process boundary once, as one segment.

        The counter sums the published segment payloads; were the graph
        pickled per submitted task (the old behaviour) or re-published per
        worker, the total would be a multiple of the CSR payload.
        """
        g = random_graph(20_000, 100_000, seed=0, p_low=0.05, p_high=0.35)
        payload = 8 * (g.n + 1) + 16 * g.m
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            res = coarsen_influence_graph(
                g, r=4, workers=4, rng=0, executor="process"
            )
        assert registry.counter("coarsen.parallel.broadcast_bytes") == payload
        assert res.stats.extras["broadcast_bytes"] == payload
        assert res.stats.stage_seconds["broadcast"] > 0.0

    def test_no_broadcast_for_in_process_executors(self, two_cliques_graph):
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            res = _run(two_cliques_graph, "thread")
        assert registry.counter("coarsen.parallel.broadcast_bytes") == 0
        assert "broadcast_bytes" not in res.stats.extras
        assert "broadcast" not in res.stats.stage_seconds

    @pytest.mark.parallel
    def test_segment_released_after_run(self, two_cliques_graph, monkeypatch):
        """The run's own segment is unlinked once the pool is done."""
        from repro.errors import GraphFormatError
        from repro.graph import shm as shm_mod

        published = []
        original = shm_mod.SharedGraph.publish.__func__

        def spying_publish(cls, graph):
            shared = original(cls, graph)
            published.append(shared.spec)
            return shared

        monkeypatch.setattr(shm_mod.SharedGraph, "publish",
                            classmethod(spying_publish))
        res = _run(two_cliques_graph, "process")
        assert res.coarse.n >= 1
        assert len(published) == 1
        with pytest.raises(GraphFormatError, match="does not exist"):
            shm_mod.attach_shared_graph(published[0])


class TestGraphHandle:
    def test_inline_handle_resolves_to_same_object(self, two_cliques_graph):
        handle = GraphHandle(graph=two_cliques_graph)
        assert handle.resolve() is two_cliques_graph

    def test_inline_handle_refuses_pickle(self, two_cliques_graph):
        handle = GraphHandle(graph=two_cliques_graph)
        with pytest.raises(AlgorithmError, match="refusing to pickle"):
            pickle.dumps(handle)

    def test_spec_handle_pickles_small(self, two_cliques_graph):
        from repro.graph import SharedGraph
        with SharedGraph.publish(two_cliques_graph) as shared:
            handle = GraphHandle(spec=shared.spec)
            blob = pickle.dumps(handle)
            # The whole point: submitting a task ships bytes-sized state,
            # not the graph (whose CSR payload alone is spec.nbytes).
            assert len(blob) < 512
            assert len(blob) < shared.spec.nbytes
            restored = pickle.loads(blob)
            assert restored.resolve() == two_cliques_graph
        from repro.graph import detach_shared_graphs
        detach_shared_graphs()

    def test_handle_requires_exactly_one_of_graph_spec(self, two_cliques_graph):
        with pytest.raises(AlgorithmError):
            GraphHandle()
        with pytest.raises(AlgorithmError):
            GraphHandle(graph=two_cliques_graph,
                        spec=object())  # type: ignore[arg-type]


def _left_fold(partitions):
    acc = partitions[0]
    for p in partitions[1:]:
        acc = acc.meet(p)
    return acc


class TestMeetTree:
    @given(
        labels=st.lists(
            st.lists(st.integers(min_value=0, max_value=5),
                     min_size=12, max_size=12),
            min_size=1, max_size=7,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_tree_reduction_equals_left_fold(self, labels):
        partitions = [Partition(np.asarray(row, dtype=np.int64))
                      for row in labels]
        tree = meet_all(partitions)
        fold = _left_fold(partitions)
        assert tree == fold
        assert np.array_equal(tree.labels, fold.labels)

    def test_single_partition_returned_unchanged(self):
        p = Partition(np.array([0, 0, 1, 1]))
        assert meet_all([p]) is p

    def test_empty_input_rejected(self):
        with pytest.raises(PartitionError):
            meet_all([])

    def test_depth_counter(self):
        registry = obs.MetricsRegistry()
        parts = [Partition(np.arange(4) % (i + 1)) for i in range(5)]
        with obs.use_metrics(registry):
            meet_all(parts)
        # ceil(log2(5)) = 3 levels
        assert registry.counter("meet.tree_depth") == 3

    def test_map_fn_is_used_per_level(self):
        calls = []

        def spy_map(fn, pairs):
            pairs = list(pairs)
            calls.append(len(pairs))
            return [fn(p) for p in pairs]

        parts = [Partition(np.arange(6) % k) for k in (1, 2, 3, 6, 2)]
        tree = meet_all(parts, map_fn=spy_map)
        assert calls == [2, 1, 1]  # 5 -> 3 -> 2 -> 1
        assert tree == _left_fold(parts)

    def test_tree_meet_inside_thread_pool_matches(self):
        import concurrent.futures

        parts = [Partition(np.random.default_rng(i).integers(0, 4, 20))
                 for i in range(6)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
            pooled = meet_all(parts, map_fn=pool.map)
        assert pooled == meet_all(parts)


class TestFacadeDispatch:
    def test_serial_matches_direct_parallel_call(self):
        g = random_graph(40, 160, seed=4)
        parallel = coarsen_influence_graph_parallel(
            g, r=4, workers=3, rng=1, executor="serial"
        )
        facade = coarsen_influence_graph(g, r=4, workers=3, rng=1,
                                         executor="serial")
        assert parallel.coarse == facade.coarse

    def test_workers_alone_selects_algorithm_6(self):
        g = random_graph(40, 160, seed=4)
        res = coarsen_influence_graph(g, r=4, workers=2, rng=0,
                                      executor="thread")
        assert res.stats.extras["executor"] == "thread"

    def test_linear_rejects_sublinear_knobs(self, tmp_path):
        g = random_graph(20, 60, seed=0)
        with pytest.raises(CoarseningError, match="sublinear"):
            coarsen_influence_graph(g, r=2, out_path=tmp_path / "x")
        with pytest.raises(CoarseningError, match="out_path"):
            coarsen_influence_graph(g, r=2, space="sublinear")
