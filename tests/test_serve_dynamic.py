"""Live-graph serving: epochs, pools, caches, archives, HTTP.

Covers the serving half of the dynamic story (the model-level equivalence
proof lives in ``test_dynamic_differential.py``):

* the epoch protocol — mutations advance a content-addressed epoch
  without cold rebuilds, and queries racing updates always observe
  self-consistent ``(epoch, result)`` pairs;
* :class:`~repro.serve.SamplePool` lifecycle under mutation — retained
  (same object, same prefix) when the coarse model survives a delta,
  prefix-invalidated when it does not, and rebound after cache eviction
  with bit-identical answers;
* warm archives of mutated models — reload at the right epoch, and
  stale-epoch (forged) archives degrade to a miss, never a wrong model;
* the HTTP mutation surface — ``/insert_edge`` / ``/delete_edge`` /
  ``/apply_deltas`` round trips, error mapping, and ``--readonly``.
"""

import json
import os
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.core import coarsen_addressable
from repro.errors import AlgorithmError
from repro.graph import GraphBuilder
from repro.serve import InfluenceService, ServiceConfig
from repro.serve.http import make_server

from .conftest import build_graph, random_graph

pytestmark = pytest.mark.dynamic


def _config(**overrides) -> ServiceConfig:
    base = dict(r=4, seed=5, sampler="addressable", n_samples=400,
                min_samples=64, max_workers=2)
    base.update(overrides)
    return ServiceConfig(**base)


def _ring_graph(n: int = 12, p: float = 0.6):
    """A directed ring — every chord (i, i+2) is known-absent."""
    return build_graph(n, [(i, (i + 1) % n, p) for i in range(n)])


class TestEpochProtocol:
    def test_attach_requires_addressable_sampler(self):
        g = _ring_graph()
        with InfluenceService(ServiceConfig(r=4, sampler="stream")) as svc:
            with pytest.raises(AlgorithmError, match="addressable"):
                svc.attach_dynamic(g)

    def test_addressable_sampler_requires_serial_executor(self):
        with pytest.raises(ValueError, match="serial"):
            ServiceConfig(sampler="addressable", executor="process")

    def test_mutations_never_cold_rebuild(self):
        """The acceptance-criterion path: warm mutations skip model builds."""
        g = _ring_graph()
        registry = obs.MetricsRegistry()
        with InfluenceService(_config()) as svc:
            dynamic = svc.attach_dynamic(g)
            dynamic.estimate([0])  # warm the pool
            with obs.use_metrics(registry):
                out = dynamic.insert_edge(0, 2, 0.5)
                _, result = dynamic.estimate([0])
            assert out["epoch"] == 1
            assert result.value > 0
        # The mutated-epoch query hit the model the mutation published:
        # zero cache misses means zero cold coarsenings after attach.
        assert registry.counter("serve.cache.miss") == 0
        assert registry.counter("serve.cache.hit") >= 1
        assert registry.counter("serve.dynamic.deltas") == 1

    def test_concurrent_readers_see_consistent_epoch_result_pairs(self):
        g = _ring_graph()
        config = _config(max_models=32, n_samples=256)
        epoch_graphs = {}
        observed = []
        observed_lock = threading.Lock()
        stop = threading.Event()
        with InfluenceService(config) as svc:
            dynamic = svc.attach_dynamic(g)
            epoch_graphs[0] = dynamic.graph

            def reader():
                while not stop.is_set():
                    epoch, result = dynamic.estimate([0, 1])
                    with observed_lock:
                        observed.append((epoch, result.value))

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for t in threads:
                t.start()
            # The single writer: insert then delete each chord in turn.
            for i in range(5):
                out = dynamic.insert_edge(i, (i + 2) % 12, 0.5)
                epoch_graphs[out["epoch"]] = dynamic.graph
                out = dynamic.delete_edge(i, (i + 2) % 12)
                epoch_graphs[out["epoch"]] = dynamic.graph
            stop.set()
            for t in threads:
                t.join()
        assert observed
        # Every (epoch, value) pair must be exactly the answer a fresh
        # service gives for that epoch's graph — a torn read (epoch e
        # paired with epoch e±1's model) would break this bit-for-bit.
        expected = {}
        with InfluenceService(config) as oracle:
            for epoch, value in observed:
                if epoch not in expected:
                    expected[epoch] = oracle.estimate(
                        epoch_graphs[epoch], [0, 1]).value
                assert value == expected[epoch], f"torn read at epoch {epoch}"

    def test_batched_equals_sequential_after_epoch_bump(self):
        g = _ring_graph()
        seed_sets = [[0], [1, 2], [3], [4, 5, 6]]
        with InfluenceService(_config()) as svc:
            dynamic = svc.attach_dynamic(g)
            dynamic.insert_edge(0, 2, 0.7)
            dynamic.delete_edge(0, 2)
            dynamic.insert_edge(1, 3, 0.4)
            graph = dynamic.graph
            batched = svc.estimate_many(graph, seed_sets)
            sequential = [svc.estimate(graph, s) for s in seed_sets]
        assert [r.value for r in batched] == [r.value for r in sequential]


class TestPoolLifecycle:
    def test_pool_retained_when_coarse_model_survives(self):
        # A reliable 3-cycle {0,1,2} plus a pendant vertex: inserting the
        # chord 0->2 (p=1) lands inside the block — every sample's SCCs,
        # hence H and pi, are unchanged, so the pool must be retained.
        g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
                            (0, 3, 0.5)])
        registry = obs.MetricsRegistry()
        with InfluenceService(_config()) as svc:
            dynamic = svc.attach_dynamic(g)
            model_before = dynamic.model
            _, before = dynamic.estimate([0])
            pool_before = svc._pools[dynamic.key.for_state("pool")]
            with obs.use_metrics(registry):
                out = dynamic.insert_edge(0, 2, 1.0)
            assert out["model_retained"] is True
            assert dynamic.model is model_before
            assert svc._pools[dynamic.key.for_state("pool")] is pool_before
            _, after = dynamic.estimate([0])
            assert after.value == before.value
        assert registry.counter("serve.dynamic.pool.retained") == 1
        assert registry.counter("serve.dynamic.pool.invalidated_prefix") == 0

    def test_pool_prefix_invalidated_on_structural_change(self):
        # Two reliable 2-cycles bridged both ways: one strongly-connected
        # block.  Deleting one bridge direction splits it — the coarse
        # graph changes, so the old pool's prefix must be invalidated.
        g = build_graph(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0),
                            (3, 2, 1.0), (0, 2, 1.0), (2, 0, 1.0)])
        registry = obs.MetricsRegistry()
        with InfluenceService(_config()) as svc:
            dynamic = svc.attach_dynamic(g)
            assert dynamic.model.coarse.n == 1
            dynamic.estimate([0])
            pool_size = svc._pools[dynamic.key.for_state("pool")].size
            assert pool_size > 0
            with obs.use_metrics(registry):
                out = dynamic.delete_edge(2, 0)
            assert out["model_retained"] is False
            assert dynamic.model.coarse.n == 2
            # The new epoch still answers, from a fresh lazily-built pool.
            _, result = dynamic.estimate([0])
            with InfluenceService(_config()) as oracle:
                assert result.value == oracle.estimate(dynamic.graph,
                                                       [0]).value
        assert registry.counter(
            "serve.dynamic.pool.invalidated_prefix") == pool_size
        assert registry.counter("serve.dynamic.pool.retained") == 0

    def test_eviction_rebuilds_identical_model_and_rebinds_pool(self):
        g = _ring_graph()
        registry = obs.MetricsRegistry()
        with InfluenceService(_config(max_models=2)) as svc:
            dynamic = svc.attach_dynamic(g)
            dynamic.insert_edge(0, 2, 0.6)  # epoch 1
            _, before = dynamic.estimate([0, 1])
            digest_before = dynamic.model.coarse.digest()
            # Evict the epoch-1 model by serving two unrelated graphs.
            svc.estimate(random_graph(10, 20, seed=7), [0])
            svc.estimate(random_graph(10, 20, seed=8), [0])
            assert dynamic.key not in svc.cache
            with obs.use_metrics(registry):
                _, after = dynamic.estimate([0, 1])
        # The miss proves a rebuild happened; addressable coins make it
        # bit-identical, so the rebound pool returns the same answer.
        assert registry.counter("serve.cache.miss") == 1
        assert after.value == before.value
        assert dynamic.model.coarse.digest() == digest_before


class TestReadStateLifecycle:
    """A sketch-family service that has also maximized holds two read
    states per model (the RR pool and the oracle); one epoch publish
    moves or drops both."""

    @staticmethod
    def _resident(svc, key):
        return {state: svc._pools.get(key.for_state(state))
                for state in ("pool", "sketch")}

    def test_retained_delta_moves_pool_and_oracle(self):
        # The reliable 3-cycle of test_pool_retained_when_coarse_model_
        # survives: the chord 0->2 (p=1) leaves H and pi unchanged.
        g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
                            (0, 3, 0.5)])
        registry = obs.MetricsRegistry()
        with InfluenceService(_config(estimator="sketch",
                                      sketch_k=16)) as svc:
            dynamic = svc.attach_dynamic(g)
            dynamic.estimate([0])
            dynamic.maximize(1)
            before_key = dynamic.key
            before = self._resident(svc, before_key)
            assert all(read is not None for read in before.values())
            with obs.use_metrics(registry):
                out = dynamic.insert_edge(0, 2, 1.0)
            assert out["model_retained"] is True
            assert self._resident(svc, dynamic.key) == before
            assert self._resident(svc, before_key) == {"pool": None,
                                                       "sketch": None}
        assert registry.counter("serve.dynamic.pool.retained") == 1
        assert registry.counter("serve.dynamic.sketch.retained") == 1
        assert registry.counter("serve.dynamic.pool.invalidated_prefix") == 0
        assert registry.counter("serve.dynamic.sketch.invalidated") == 0

    def test_structural_delta_drops_pool_and_oracle(self):
        # The bridged 2-cycles of test_pool_prefix_invalidated_on_
        # structural_change: deleting one bridge direction splits H.
        g = build_graph(4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0),
                            (3, 2, 1.0), (0, 2, 1.0), (2, 0, 1.0)])
        registry = obs.MetricsRegistry()
        with InfluenceService(_config(estimator="sketch",
                                      sketch_k=16)) as svc:
            dynamic = svc.attach_dynamic(g)
            dynamic.estimate([0])
            dynamic.maximize(1)
            before_key = dynamic.key
            pool_size = svc._pools[before_key.for_state("pool")].size
            assert pool_size > 0
            with obs.use_metrics(registry):
                out = dynamic.delete_edge(2, 0)
            assert out["model_retained"] is False
            empty = {"pool": None, "sketch": None}
            assert self._resident(svc, before_key) == empty
            assert self._resident(svc, dynamic.key) == empty
        assert registry.counter(
            "serve.dynamic.pool.invalidated_prefix") == pool_size
        assert registry.counter("serve.dynamic.sketch.invalidated") == 1
        assert registry.counter("serve.dynamic.pool.retained") == 0
        assert registry.counter("serve.dynamic.sketch.retained") == 0


class TestWarmArchives:
    def test_mutated_model_reloads_at_its_epoch(self, tmp_path):
        g = _ring_graph()
        config = _config(warm_dir=str(tmp_path))
        registry = obs.MetricsRegistry()
        with InfluenceService(config) as svc:
            dynamic = svc.attach_dynamic(g)
            dynamic.insert_edge(0, 2, 0.5)
            dynamic.insert_edge(1, 3, 0.3)  # epoch 2
            mutated = dynamic.graph
            path = svc.persist(mutated)
            assert path is not None and os.path.exists(path)
            _, expected = dynamic.estimate([0, 1])
        with InfluenceService(config) as fresh:
            with obs.use_metrics(registry):
                result = fresh.estimate(mutated, [0, 1])
        assert registry.counter("serve.cache.warm_hit") == 1
        assert result.value == expected.value

    def test_stale_epoch_archive_degrades_to_miss(self, tmp_path):
        config = _config(warm_dir=str(tmp_path))
        registry = obs.MetricsRegistry()
        with InfluenceService(config) as svc:
            g0 = _ring_graph()
            dynamic = svc.attach_dynamic(g0)
            path0 = svc.persist(g0)  # archive of epoch 0
            dynamic.insert_edge(0, 2, 0.5)
            g1 = dynamic.graph
            token1 = svc.key_for(g1).token()
        # Forge a stale-epoch archive: epoch 0's payload under epoch 1's
        # content address (as a corrupted sync or truncated write might).
        os.rename(path0, os.path.join(str(tmp_path), token1 + ".npz"))
        with InfluenceService(config) as fresh:
            with obs.use_metrics(registry):
                model = fresh.model_for(g1)
        # The stamped key inside the archive disagrees with the probe key,
        # so the forgery is a plain miss — and the rebuilt model is the
        # true epoch-1 model, not the stale epoch-0 one.
        assert registry.counter("serve.cache.warm_hit") == 0
        assert registry.counter("serve.cache.miss") == 1
        cold = coarsen_addressable(g1, r=config.r, seed=config.seed)
        assert model.coarse.digest() == cold.coarse.digest()


class TestHTTPDynamic:
    @pytest.fixture
    def served(self):
        g = _ring_graph()
        service = InfluenceService(_config())
        dynamic = service.attach_dynamic(g)
        server = make_server(service, g, port=0, dynamic=dynamic)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}", dynamic
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def _post(self, url, body):
        req = urllib.request.Request(
            url, data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())

    def test_mutation_round_trip(self, served):
        base, dynamic = served
        status, body = self._post(base + "/estimate", {"seeds": [0, 1]})
        assert status == 200 and body["epoch"] == 0
        status, body = self._post(base + "/insert_edge",
                                  {"u": 0, "v": 2, "p": 0.5})
        assert status == 200
        assert body["epoch"] == 1 and body["applied"] == 1
        status, body = self._post(base + "/delete_edge", {"u": 0, "v": 2})
        assert status == 200 and body["epoch"] == 2
        status, body = self._post(base + "/apply_deltas", {"deltas": [
            {"op": "insert", "u": 3, "v": 5, "p": 0.4},
            {"op": "insert", "u": 5, "v": 3, "p": 0.4},
        ]})
        assert status == 200
        assert body["epoch"] == 3 and body["applied"] == 2
        status, body = self._post(base + "/estimate", {"seeds": [0, 1]})
        assert status == 200 and body["epoch"] == 3
        with urllib.request.urlopen(base + "/stats") as resp:
            stats = json.loads(resp.read())
        assert stats["dynamic"][0]["epoch"] == 3
        assert stats["dynamic"][0]["m"] == dynamic.graph.m

    def test_bad_mutations_map_to_400(self, served):
        base, _ = served
        for payload, route in [
            ({"u": 0, "v": 1, "p": 0.5}, "/insert_edge"),   # duplicate
            ({"u": 0, "v": 0, "p": 0.5}, "/insert_edge"),   # self-loop
            ({"u": 0, "v": 2, "p": 1.5}, "/insert_edge"),   # bad p
            ({"u": 0, "v": 2}, "/delete_edge"),             # missing edge
            ({"u": 0, "v": 2}, "/insert_edge"),             # missing p
            ({"deltas": {"op": "insert"}}, "/apply_deltas"),  # not a list
            ({"deltas": [{"op": "warp", "u": 0, "v": 2}]},
             "/apply_deltas"),                              # unknown op
        ]:
            with pytest.raises(urllib.error.HTTPError) as exc:
                self._post(base + route, payload)
            assert exc.value.code == 400, (route, payload)

    def test_atomic_batch_rejection_leaves_epoch_unchanged(self, served):
        base, dynamic = served
        epoch_before = dynamic.epoch
        m_before = dynamic.graph.m
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(base + "/apply_deltas", {"deltas": [
                {"op": "insert", "u": 0, "v": 2, "p": 0.4},
                {"op": "insert", "u": 0, "v": 1, "p": 0.4},  # duplicate
            ]})
        assert exc.value.code == 400
        assert dynamic.epoch == epoch_before
        assert dynamic.graph.m == m_before

    def test_readonly_rejects_mutations_with_403(self):
        g = _ring_graph()
        service = InfluenceService(_config())
        dynamic = service.attach_dynamic(g)
        server = make_server(service, g, port=0, dynamic=dynamic,
                             readonly=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                self._post(base + "/insert_edge", {"u": 0, "v": 2, "p": 0.5})
            assert exc.value.code == 403
            status, body = self._post(base + "/estimate", {"seeds": [0]})
            assert status == 200 and body["epoch"] == 0
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_static_server_rejects_mutations_with_400(self):
        g = _ring_graph()
        service = InfluenceService(ServiceConfig(r=4, n_samples=400,
                                                 min_samples=64))
        server = make_server(service, g, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                self._post(base + "/insert_edge", {"u": 0, "v": 2, "p": 0.5})
            assert exc.value.code == 400
            status, body = self._post(base + "/estimate", {"seeds": [0]})
            assert status == 200 and "epoch" not in body
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestChainedKeys:
    """Epoch keys derive from (parent digest, deltas), not an O(m) re-hash."""

    def test_epoch_key_is_the_chained_digest(self):
        from repro.core.dynamic import Delta
        from repro.serve.dynamic import chain_digest

        g = _ring_graph()
        with InfluenceService(_config()) as svc:
            dynamic = svc.attach_dynamic(g)
            root = dynamic.key.graph_digest
            assert root == g.digest()  # anchored at true content address
            d1 = [Delta("insert", 0, 2, 0.5)]
            dynamic.apply_deltas(d1)
            expect = chain_digest(root, d1)
            assert dynamic.key.graph_digest == expect
            # A blake2b of the full CSR cannot coincide with the chain
            # value, so matching it proves the epoch graph was *stamped*,
            # not re-hashed.
            assert dynamic.graph._digest == expect
            d2 = [Delta("delete", 0, 2), Delta("insert", 1, 3, 0.4)]
            dynamic.apply_deltas(d2)
            assert dynamic.key.graph_digest == chain_digest(expect, d2)

    def test_counters_and_audit_interval(self):
        g = _ring_graph()
        registry = obs.MetricsRegistry()
        with InfluenceService(_config(digest_audit_interval=2)) as svc:
            dynamic = svc.attach_dynamic(g)
            with obs.use_metrics(registry):
                dynamic.insert_edge(0, 2, 0.5)   # epoch 1: chained
                dynamic.insert_edge(1, 3, 0.4)   # epoch 2: audit
                dynamic.delete_edge(0, 2)        # epoch 3: chained
                dynamic.insert_edge(2, 5, 0.3)   # epoch 4: audit
            # Audited epochs re-anchor to the true content address.
            mutated = dynamic.graph
            from repro.graph import InfluenceGraph
            fresh = InfluenceGraph.from_edges(mutated.n,
                                              *mutated.edge_arrays())
            assert dynamic.key.graph_digest == fresh.digest()
        assert registry.counter("serve.dynamic.key.chained") == 2
        assert registry.counter("serve.dynamic.key.audits") == 2
        assert registry.counter("serve.dynamic.key.drift") == 0

    def test_chained_epochs_skip_full_hashes(self, monkeypatch):
        from repro.graph.influence_graph import InfluenceGraph

        fresh_hashes = [0]
        real = InfluenceGraph.digest

        def counting(self):
            if self._digest is None:
                fresh_hashes[0] += 1
            return real(self)

        monkeypatch.setattr(InfluenceGraph, "digest", counting)

        def mutate(interval):
            g = _ring_graph()
            with InfluenceService(
                _config(digest_audit_interval=interval)
            ) as svc:
                dynamic = svc.attach_dynamic(g)
                before = fresh_hashes[0]
                dynamic.insert_edge(0, 2, 0.5)
                dynamic.insert_edge(1, 3, 0.4)
                dynamic.delete_edge(0, 2)
                return fresh_hashes[0] - before

        chained = mutate(interval=64)
        audited = mutate(interval=1)
        # Every audited epoch pays two full hashes (epoch graph + its cold
        # re-canonicalisation) that chained epochs skip entirely.
        assert audited >= chained + 2 * 3

    def test_audit_detects_drifted_edge_arrays(self):
        g = _ring_graph()
        registry = obs.MetricsRegistry()
        with InfluenceService(_config(digest_audit_interval=1)) as svc:
            dynamic = svc.attach_dynamic(g)
            # Corrupt the maintained CSR order: swap the two head entries
            # of vertex 0's bucket (the ring edge and a fresh chord).
            dynamic.insert_edge(0, 2, 0.5)
            coars = dynamic._coarsener
            lo, hi = coars._indptr[0], coars._indptr[1]
            assert hi - lo >= 2
            coars._heads[lo], coars._heads[lo + 1] = (
                int(coars._heads[lo + 1]), int(coars._heads[lo]))
            coars._graph_cache = None
            with obs.use_metrics(registry):
                with pytest.raises(AlgorithmError, match="digest audit"):
                    dynamic.insert_edge(3, 7, 0.4)
        assert registry.counter("serve.dynamic.key.drift") == 1

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="digest_audit_interval"):
            ServiceConfig(digest_audit_interval=0)
