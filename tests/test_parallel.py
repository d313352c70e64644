"""Algorithm 6's thread pool against the serial reference fold, and the
meet tree.

The contract under test: for a fixed ``(r, workers, seed)`` the thread pool
is *byte-identical* to :func:`tests.references.reference_parallel_fold` —
the same spawned per-worker seeds, one robust SCC partition per worker, a
left-fold meet — because the seeds are drawn before the pool exists and the
pairwise meet tree is exact (Theorem 4.11).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import coarsen, coarsen_influence_graph
from repro.core.parallel import coarsen_influence_graph_parallel
from repro.errors import CoarseningError, PartitionError
from repro.partition import Partition, meet_all

from .conftest import random_graph
from .references import reference_parallel_fold


def _run(graph, r=8, workers=4, rng=3):
    return coarsen_influence_graph(graph, r=r, workers=workers, rng=rng)


def _assert_matches_reference(result, graph, r, workers, rng):
    reference = reference_parallel_fold(graph, r, workers, rng=rng)
    coarse, pi = coarsen(graph, reference)
    assert np.array_equal(result.partition.labels, reference.labels)
    assert np.array_equal(result.pi, pi)
    assert np.array_equal(result.coarse.indptr, coarse.indptr)
    assert np.array_equal(result.coarse.heads, coarse.heads)
    assert np.array_equal(result.coarse.probs, coarse.probs)
    assert np.array_equal(result.coarse.weights, coarse.weights)


@pytest.mark.parallel
class TestCrossExecutorDeterminism:
    """The thread pool against the serial reference executor."""

    def test_serial_vs_thread_byte_identical(self):
        g = random_graph(60, 240, seed=2, p_low=0.2, p_high=0.9)
        _assert_matches_reference(_run(g), g, r=8, workers=4, rng=3)

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_thread_pool_equals_reference_fold(self, workers):
        g = random_graph(40, 160, seed=4, p_low=0.3, p_high=0.9)
        _assert_matches_reference(_run(g, workers=workers), g, r=8,
                                  workers=workers, rng=3)

    def test_r_below_workers_clamps_to_reference(self):
        """workers=8 with r=3 runs three one-sample workers."""
        g = random_graph(40, 160, seed=6, p_low=0.3, p_high=0.9)
        result = _run(g, r=3, workers=8, rng=7)
        assert result.stats.extras["workers"] == 3
        _assert_matches_reference(result, g, r=3, workers=3, rng=7)
        _assert_matches_reference(result, g, r=3, workers=8, rng=7)

    def test_repeat_run_stable(self):
        g = random_graph(40, 160, seed=1, p_low=0.3, p_high=0.9)
        first, second = _run(g), _run(g)
        assert np.array_equal(first.partition.labels, second.partition.labels)
        assert first.coarse == second.coarse


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
    @pytest.mark.parallel
    def test_facade_matches_direct_parallel_call(self):
        g = random_graph(40, 160, seed=4)
        parallel = coarsen_influence_graph_parallel(g, r=4, workers=3, rng=1)
        facade = coarsen_influence_graph(g, r=4, workers=3, rng=1)
        assert parallel.coarse == facade.coarse

    @pytest.mark.parallel
    def test_workers_alone_selects_algorithm_6(self):
        g = random_graph(40, 160, seed=4)
        res = coarsen_influence_graph(g, r=4, workers=2, rng=0)
        assert res.stats.extras["workers"] == 2
        assert res.stats.extras["rounds"] == [2, 2]

    def test_executor_keyword_is_gone(self, two_cliques_graph):
        for call in (coarsen_influence_graph,
                     coarsen_influence_graph_parallel):
            with pytest.raises(TypeError, match="executor"):
                call(two_cliques_graph, r=4, workers=2, executor="thread")

    def test_sublinear_refuses_workers(self, tmp_path):
        from repro.storage import TripletStore

        src = TripletStore.from_graph(random_graph(20, 60, seed=0),
                                      tmp_path / "g.trip")
        with pytest.raises(CoarseningError, match="one sample at a time"):
            coarsen_influence_graph(src, r=2, space="sublinear", workers=2,
                                    out_path=tmp_path / "h.trip")

    def test_linear_rejects_sublinear_knobs(self, tmp_path):
        g = random_graph(20, 60, seed=0)
        with pytest.raises(CoarseningError, match="sublinear"):
            coarsen_influence_graph(g, r=2, out_path=tmp_path / "x")
        with pytest.raises(CoarseningError, match="out_path"):
            coarsen_influence_graph(g, r=2, space="sublinear")
