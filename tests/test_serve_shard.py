"""Tests for sharded multi-process serving (repro.serve.shard).

The load-bearing property is the cross-executor digest: sequential,
batched, and sharded execution of the same queries must return
bit-for-bit identical values, because the indexed-stream discipline makes
sample ``i`` a pure function of ``(entropy, i)`` no matter which process
draws it.  The worker-fleet tests spawn real processes and are marked
``shard`` (CI runs them under the lock sanitizer in a dedicated job);
the shard-assembly tests drive ``_WorkerShard`` in-process and are cheap.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from repro import obs
from repro.errors import AlgorithmError
from repro.rng import derive_entropy, ensure_rng
from repro.serve import InfluenceService, ServiceConfig
from repro.serve.pool import SamplePool
from repro.serve.shard import (
    ShardError,
    ShardRuntime,
    _WorkerShard,
    _global_prefix,
)

from .conftest import random_graph


@pytest.fixture(scope="module")
def graph():
    return random_graph(300, 1_500, seed=11)


def _digest(values):
    payload = json.dumps([v.hex() for v in values]).encode()
    return hashlib.blake2b(payload, digest_size=12).hexdigest()


class TestShardAssembly:
    """In-process checks of the strided-shard arithmetic (no spawning)."""

    def test_worker_shards_reassemble_the_serial_pool(self, graph):
        pool = SamplePool(graph, rng=ensure_rng(7))
        n = 200
        pool.ensure(n)
        n_workers = 3
        shards = [
            _WorkerShard(graph, k, n_workers, pool.entropy, chunk_sets=64)
            for k in range(n_workers)
        ]
        counts = [shard.grow(n, deadline=None) for shard in shards]
        assert _global_prefix(counts, n_workers) >= n
        # Interleave the shards back into draw order: global i came from
        # worker i % T at local position i // T.
        for i in range(n):
            local = shards[i % n_workers].rr_sets[i // n_workers]
            np.testing.assert_array_equal(local, pool._rr_sets[i])

    def test_local_target_covers_exactly_the_prefix(self):
        # Worker k needs ceil((P - k) / T) samples for global prefix P.
        for n_workers in (1, 2, 3, 5):
            for prefix in range(0, 30):
                covered = 0
                for k in range(n_workers):
                    shard = _WorkerShard.__new__(_WorkerShard)
                    shard.worker_id = k
                    shard.n_workers = n_workers
                    covered += shard.local_target(prefix)
                assert covered == prefix

    def test_global_prefix_is_first_missing_index(self):
        # counts = [2, 1] over T=2: indices 0,2 and 1 -> prefix 3.
        assert _global_prefix([2, 1], 2) == 3
        # Worker 1 empty: index 1 missing immediately.
        assert _global_prefix([5, 0], 2) == 1
        assert _global_prefix([0, 0, 0], 3) == 0
        assert _global_prefix([4], 1) == 4


@pytest.mark.shard
class TestShardRuntime:
    def test_rejects_bad_worker_counts(self):
        with pytest.raises(ShardError):
            ShardRuntime(0)

    def test_grow_score_and_reuse(self, graph):
        entropy = derive_entropy(ensure_rng(3))
        pool = SamplePool(graph, rng=ensure_rng(3))
        pool.ensure(400)
        seeds = np.asarray([0, 9, 44], dtype=np.int64)
        with ShardRuntime(2) as runtime:
            shard_pool = runtime.pool_for("tok", graph, entropy)
            assert shard_pool.ensure(400) == 400
            assert shard_pool.size >= 400
            for prefix in (100, 250, 400):
                want = pool.estimator(prefix).estimate(graph, seeds)
                got = shard_pool.estimator(prefix).estimate(graph, seeds)
                assert got == want
            # Re-ensure is pure reuse: no new draws.
            registry = obs.MetricsRegistry()
            with obs.use_metrics(registry):
                assert shard_pool.ensure(300) == 300
            counters = registry.snapshot()["counters"]
            assert counters.get("serve.shard.drawn", 0) == 0

    def test_deadline_degrades_and_stays_bit_identical(self, graph):
        entropy = derive_entropy(ensure_rng(5))
        with ShardRuntime(2) as runtime:
            shard_pool = runtime.pool_for("tok", graph, entropy)
            achieved = shard_pool.ensure(
                500_000, deadline=time.monotonic() + 0.05)
            assert 0 < achieved < 500_000
            seeds = np.asarray([1, 2], dtype=np.int64)
            got = shard_pool.estimator(achieved).estimate(graph, seeds)
        pool = SamplePool(graph, rng=ensure_rng(5))
        pool.ensure(achieved)
        assert got == pool.estimator(achieved).estimate(graph, seeds)

    def test_worker_crash_is_detected_and_latches_broken(self, graph):
        entropy = derive_entropy(ensure_rng(1))
        runtime = ShardRuntime(2)
        try:
            shard_pool = runtime.pool_for("tok", graph, entropy)
            shard_pool.ensure(100)
            runtime._workers[0].process.terminate()
            runtime._workers[0].process.join()
            with pytest.raises(ShardError):
                shard_pool.ensure(10_000)
            assert runtime.broken
            with pytest.raises(ShardError):
                shard_pool.ensure(100)  # broken fleet refuses all work
        finally:
            runtime.close()

    def test_retain_detaches_stale_models(self, graph):
        small = random_graph(50, 200, seed=4)
        entropy = derive_entropy(ensure_rng(0))
        with ShardRuntime(2) as runtime:
            runtime.pool_for("keep", graph, entropy)
            runtime.pool_for("drop", small, entropy)
            assert set(runtime.stats()["models"]) == {"keep", "drop"}
            runtime.retain({"keep"})
            assert set(runtime.stats()["models"]) == {"keep"}
            # The kept model still serves.
            assert runtime.grow("keep", 50) == 50

    def test_estimator_validates_inputs(self, graph):
        entropy = derive_entropy(ensure_rng(0))
        with ShardRuntime(1) as runtime:
            shard_pool = runtime.pool_for("tok", graph, entropy)
            shard_pool.ensure(50)
            with pytest.raises(AlgorithmError):
                shard_pool.estimator(0)
            estimator = shard_pool.estimator(50)
            with pytest.raises(AlgorithmError):
                estimator.estimate(graph, np.asarray([], dtype=np.int64))
            other = random_graph(20, 60, seed=9)
            with pytest.raises(AlgorithmError):
                estimator.estimate(other, np.asarray([0], dtype=np.int64))


@pytest.mark.shard
class TestShardedService:
    """The service-level contract: sharded == batched == sequential."""

    def test_cross_executor_digest_equality(self, graph):
        seed_sets = [[i, (i * 3 + 1) % graph.n] for i in range(10)]
        config = dict(r=6, seed=2, n_samples=1_200, min_samples=64)
        with InfluenceService(ServiceConfig(**config)) as service:
            sequential = [
                np.float64(service.estimate(graph, seeds).value)
                for seeds in seed_sets
            ]
        with InfluenceService(ServiceConfig(**config)) as service:
            batched = [
                np.float64(r.value)
                for r in service.estimate_many(graph, seed_sets)
            ]
        with InfluenceService(
                ServiceConfig(**config, shard_workers=2)) as service:
            sharded = [
                np.float64(r.value)
                for r in service.estimate_many(graph, seed_sets)
            ]
            assert service.stats()["shard"]["runtime"]["workers"] == 2
        assert _digest(sequential) == _digest(batched) == _digest(sharded)

    def test_crash_falls_back_in_process_bit_for_bit(self, graph):
        seed_sets = [[0, 5], [7], [3, 9, 21]]
        config = dict(r=6, seed=2, n_samples=800, min_samples=64)
        with InfluenceService(ServiceConfig(**config)) as service:
            expected = [
                r.value for r in service.estimate_many(graph, seed_sets)
            ]
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            with InfluenceService(
                    ServiceConfig(**config, shard_workers=2)) as service:
                first = [
                    r.value for r in service.estimate_many(graph, seed_sets)
                ]
                with service._shard_lock:
                    runtime = service._shard
                for worker in runtime._workers:
                    worker.process.terminate()
                    worker.process.join()
                after = [
                    r.value for r in service.estimate_many(graph, seed_sets)
                ]
                stats = service.stats()
        assert first == expected
        assert after == expected
        assert stats["shard"]["failed"]
        assert stats["shard"]["error"]
        counters = registry.snapshot()["counters"]
        assert counters.get("serve.shard.fallback") == 1

    def test_batched_deadline_degradation_under_sharded_growth(self, graph):
        # Satellite: serve.deadline.degraded must account one increment
        # per degraded query in a batch, sharded or not, and every
        # degraded result must carry the achieved-accuracy report.
        seed_sets = [[i] for i in range(4)]
        config = dict(r=6, seed=2, n_samples=2_000_000, min_samples=32,
                      deadline_seconds=0.05, report_samples=50)
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            with InfluenceService(
                    ServiceConfig(**config, shard_workers=2)) as service:
                results = service.estimate_many(graph, seed_sets)
        assert all(r.degraded for r in results)
        assert all(r.n_samples < r.requested_samples for r in results)
        assert all(r.report is not None for r in results)
        counters = registry.snapshot()["counters"]
        assert counters.get("serve.deadline.degraded") == len(seed_sets)

    def test_maximize_uses_in_process_pool(self, graph):
        config = dict(r=6, seed=2, n_samples=600, min_samples=64)
        with InfluenceService(ServiceConfig(**config)) as service:
            expected = service.maximize(graph, k=3)
        with InfluenceService(
                ServiceConfig(**config, shard_workers=2)) as service:
            service.estimate(graph, [0])  # spin the fleet up first
            result = service.maximize(graph, k=3)
        np.testing.assert_array_equal(result.seeds, expected.seeds)
        assert result.estimated_influence == expected.estimated_influence
