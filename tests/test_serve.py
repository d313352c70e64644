"""Tests for repro.serve: cache, pool, service, and the HTTP endpoint."""

from __future__ import annotations

import http.client
import json
import pathlib
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.core import coarsen_influence_graph
from repro.errors import AlgorithmError, BudgetExceededError, ReproError
from repro.serve import (
    InfluenceService,
    ModelCache,
    ModelKey,
    SamplePool,
    ServiceConfig,
)
from repro.serve.cache import result_nbytes
from repro.serve.service import MAX_N_SAMPLES
from repro.serve.http import make_server

from .conftest import build_graph, random_graph


def make_key(tag: str = "a", r: int = 4) -> ModelKey:
    return ModelKey(graph_digest=tag, r=r, seed=0)


@pytest.fixture
def graph():
    return random_graph(120, 500, seed=3)


@pytest.fixture
def model(graph):
    return coarsen_influence_graph(graph, r=4, rng=0)


class TestModelKey:
    def test_content_addressing(self, graph):
        g2 = random_graph(120, 500, seed=3)  # same content, new object
        a = ModelKey.for_graph(graph, r=4, seed=0)
        b = ModelKey.for_graph(g2, r=4, seed=0)
        assert a == b
        assert a.token() == b.token()

    def test_any_parameter_changes_the_key(self, graph):
        base = ModelKey.for_graph(graph, r=4, seed=0)
        assert ModelKey.for_graph(graph, r=5, seed=0) != base
        assert ModelKey.for_graph(graph, r=4, seed=1) != base
        assert ModelKey.for_graph(graph, r=4, seed=0,
                                  sampler="addressable") != base
        other = random_graph(120, 500, seed=4)
        assert ModelKey.for_graph(other, r=4, seed=0) != base

    def test_for_graph_is_keyword_only(self, graph):
        with pytest.raises(TypeError):
            ModelKey.for_graph(graph, 4, 0)

    def test_keys_agree_exactly_when_models_do(self):
        """Two configs share a key iff they build the same model; the
        serving knobs stay out of the key."""
        graph = random_graph(300, 1200, seed=5)
        knobs = [dict(r=4), dict(r=4, max_workers=1, n_samples=500),
                 dict(r=5), dict(r=4, seed=1), dict(r=4, sampler="addressable")]
        keys, models = [], []
        for knob in knobs:
            with InfluenceService(ServiceConfig(**knob)) as svc:
                keys.append(svc.key_for(graph))
                model = svc.model_for(graph)
                models.append((model.coarse.digest(), model.pi.tobytes()))
        for i in range(len(knobs)):
            for j in range(len(knobs)):
                assert (keys[i] == keys[j]) == (models[i] == models[j]), (
                    knobs[i], knobs[j])
        # Non-vacuous: the serving knobs share one model and key, and each
        # model knob builds a model of its own.
        assert keys[0] == keys[1]
        assert len(set(models)) == 4

    def test_digest_is_cached_and_stable(self, graph):
        assert graph.digest() == graph.digest()
        assert graph.digest() is graph.digest()  # cached string


class TestServiceConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("executor", "thread"), ("workers", 2),
        # Theorems 4.6/6.1 are IC-only: no served answer may be LT.
        ("model", "lt"),
    ])
    def test_removed_fields_fail_at_construction(self, field, value):
        with pytest.raises(TypeError, match=field):
            ServiceConfig(**{field: value})


class TestModelCache:
    def test_lru_eviction_order(self, model):
        cache = ModelCache(max_models=2)
        k1, k2, k3 = make_key("a"), make_key("b"), make_key("c")
        cache.put(k1, model)
        cache.put(k2, model)
        assert cache.get(k1) is model  # k1 is now most recent
        cache.put(k3, model)           # k2 is LRU -> evicted
        assert cache.keys() == [k1, k3]
        assert cache.get(k2) is None

    def test_byte_budget_evicts_lru_first(self, model):
        per_model = result_nbytes(model)
        cache = ModelCache(max_models=10, max_bytes=2 * per_model)
        keys = [make_key(t) for t in "abc"]
        for key in keys:
            cache.put(key, model)
        assert len(cache) == 2
        assert cache.keys() == keys[1:]
        assert cache.nbytes() <= 2 * per_model

    def test_single_oversized_model_is_admitted(self, model):
        cache = ModelCache(max_models=4, max_bytes=1)
        cache.put(make_key("a"), model)
        assert len(cache) == 1  # never evict down to empty

    def test_counters(self, model):
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            cache = ModelCache(max_models=1)
            cache.get(make_key("a"))
            cache.put(make_key("a"), model)
            cache.get(make_key("a"))
            cache.put(make_key("b"), model)
        assert registry.counter("serve.cache.miss") == 1
        assert registry.counter("serve.cache.hit") == 1
        assert registry.counter("serve.cache.evict") == 1

    def test_warm_start_round_trip(self, tmp_path, graph, model):
        warm = tmp_path / "warm"
        a = ModelCache(max_models=2, warm_dir=warm)
        key = ModelKey.for_graph(graph, r=4, seed=0)
        path = a.store_warm(key, model)
        assert path is not None
        # A fresh cache (fresh process, conceptually) warm-loads it.
        b = ModelCache(max_models=2, warm_dir=warm)
        loaded = b.get(key)
        assert loaded is not None
        assert loaded.coarse == model.coarse
        assert np.array_equal(loaded.pi, model.pi)

    def test_warm_archive_with_wrong_key_is_ignored(self, tmp_path, graph,
                                                    model):
        warm = tmp_path / "warm"
        a = ModelCache(max_models=2, warm_dir=warm)
        key = ModelKey.for_graph(graph, r=4, seed=0)
        path = a.store_warm(key, model)
        other = make_key("forged", r=9)
        (warm / (other.token() + ".npz")).write_bytes(
            pathlib.Path(path).read_bytes()
        )
        b = ModelCache(max_models=2, warm_dir=warm)
        assert b.get(other) is None  # stamped key does not match

    def test_archive_stamped_with_round_split_key_is_a_miss(
            self, tmp_path, graph, model):
        """Archives from before ``ModelKey`` lost ``rounds`` load as a clean
        miss, even when one sits at the current token's path."""
        from repro.core import save_coarsening

        warm = tmp_path / "warm"
        warm.mkdir()
        key = ModelKey.for_graph(graph, r=4, seed=0)
        model.stats.extras["serve_model_key"] = dict(key.as_meta(),
                                                     rounds=None)
        save_coarsening(model, warm / (key.token() + ".npz"))
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            assert ModelCache(max_models=2, warm_dir=warm).get(key) is None
        assert registry.counter("serve.cache.miss") == 1
        assert registry.counter("serve.cache.warm_hit") == 0

    def test_corrupt_warm_archive_degrades_to_miss(self, tmp_path, graph):
        warm = tmp_path / "warm"
        warm.mkdir()
        key = ModelKey.for_graph(graph, r=4, seed=0)
        (warm / (key.token() + ".npz")).write_bytes(b"not an archive")
        cache = ModelCache(max_models=2, warm_dir=warm)
        assert cache.get(key) is None


class TestSamplePool:
    def test_grow_only_and_reuse(self, model):
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            pool = SamplePool(model.coarse, rng=0)
            assert pool.ensure(100) == 100
            assert pool.size == 100
            assert pool.ensure(50) == 50   # pure reuse, no growth
            assert pool.size == 100
            assert pool.ensure(150) == 150
        assert registry.counter("serve.pool.reuse") >= 150
        assert registry.counter("serve.pool.drawn") == 150

    def test_prefix_scoring_matches_pool_size(self, model):
        """The prefix estimate is identical whether or not the pool has
        grown past it — the coalescing correctness property."""
        seeds = np.array([0, 1])
        small = SamplePool(model.coarse, rng=7)
        small.ensure(400)
        v_small = small.estimator(400).estimate(model.coarse, seeds)
        big = SamplePool(model.coarse, rng=7)
        big.ensure(2_000)  # same stream, grown further
        v_prefix = big.estimator(400).estimate(model.coarse, seeds)
        assert v_small == v_prefix

    def test_deadline_already_passed_stops_growth(self, model):
        pool = SamplePool(model.coarse, rng=0, chunk_sets=8)
        pool.ensure(16)
        achieved = pool.ensure(10_000, deadline=0.0)  # monotonic() > 0
        assert achieved == 16  # kept what it had, drew nothing new

    def test_maximizer_is_deterministic(self, model):
        pool = SamplePool(model.coarse, rng=1)
        a = pool.maximizer(500).select(model.coarse, 3)
        b = pool.maximizer(500).select(model.coarse, 3)
        assert a.seeds.tolist() == b.seeds.tolist()
        assert a.estimated_influence == b.estimated_influence

    def test_maximizer_rejects_foreign_graph(self, model, graph):
        pool = SamplePool(model.coarse, rng=1)
        with pytest.raises(AlgorithmError):
            pool.maximizer(100).select(graph, 2)


class TestInfluenceService:
    def test_batched_equals_sequential_bitwise(self, graph):
        seed_sets = [[0], [1, 2], [3, 4, 5], [0], [7]]
        config = ServiceConfig(r=4, n_samples=2_000, min_samples=64)
        with InfluenceService(config) as svc:
            batched = svc.estimate_many(graph, seed_sets)
        with InfluenceService(config) as svc:
            sequential = [svc.estimate(graph, s) for s in seed_sets]
        assert [q.value for q in batched] == [q.value for q in sequential]
        assert not any(q.degraded for q in batched)

    def test_model_is_cached_across_queries(self, graph):
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            with InfluenceService(ServiceConfig(r=4, n_samples=500,
                                                min_samples=64)) as svc:
                svc.estimate(graph, [0])
                svc.estimate(graph, [1])
                svc.maximize(graph, 2)
        assert registry.counter("serve.cache.miss") == 1
        assert registry.counter("serve.cache.hit") == 2

    def test_concurrent_queries_coalesce_and_match(self, graph):
        """Many threads against one service return exactly the values a
        sequential run returns, despite sharing one pool."""
        seed_sets = [[i] for i in range(12)]
        config = ServiceConfig(r=4, n_samples=1_000, min_samples=64,
                               max_workers=4)
        with InfluenceService(config) as svc:
            expected = [svc.estimate(graph, s).value for s in seed_sets]
        with InfluenceService(config) as svc:
            values = [None] * len(seed_sets)
            errors = []

            def worker(i):
                try:
                    values[i] = svc.estimate(graph, seed_sets[i]).value
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(seed_sets))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
        assert values == expected

    def test_backpressure_rejects_past_the_queue(self, graph):
        config = ServiceConfig(r=4, n_samples=500, min_samples=64,
                               max_workers=1, max_pending=0)
        with InfluenceService(config) as svc:
            svc.model_for(graph)  # build outside the measured path
            with pytest.raises(BudgetExceededError):
                # Batch of 3 against capacity 1 -> rejected on admission.
                svc.estimate_many(graph, [[0], [1], [2]])
            # The failed batch released its slots once its one admitted
            # query drained; the service keeps working.
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    assert svc.estimate(graph, [0]).value > 0
                    break
                except BudgetExceededError:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)

    def test_deadline_degrades_with_report(self, graph):
        config = ServiceConfig(r=4, n_samples=200_000, min_samples=64,
                               chunk_samples=64, deadline_seconds=1e-9,
                               report_samples=50)
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            with InfluenceService(config) as svc:
                result = svc.estimate(graph, [0])
        assert result.degraded
        assert result.n_samples < result.requested_samples
        assert result.n_samples >= 64  # the min_samples floor always lands
        assert result.report is not None
        assert result.report.estimation_eps <= 1.0
        assert registry.counter("serve.deadline.degraded") == 1

    def test_batched_deadline_degrades_every_query(self, graph):
        # The batched path must account degradation per query: each entry
        # of the batch gets its own serve.deadline.degraded increment and
        # its own achieved-accuracy report.
        seed_sets = [[0], [1, 2], [3], [4, 5, 6]]
        config = ServiceConfig(r=4, n_samples=200_000, min_samples=64,
                               chunk_samples=64, deadline_seconds=1e-9,
                               report_samples=50)
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            with InfluenceService(config) as svc:
                results = svc.estimate_many(graph, seed_sets)
        assert len(results) == len(seed_sets)
        assert all(r.degraded for r in results)
        assert all(r.n_samples >= 64 for r in results)
        assert all(r.report is not None for r in results)
        assert registry.counter("serve.deadline.degraded") == len(seed_sets)
        # Degraded batched answers are still the deterministic prefix
        # values: re-asking with the achieved size reproduces them.
        with InfluenceService(ServiceConfig(
                r=4, n_samples=200_000, min_samples=64,
                chunk_samples=64)) as svc:
            for seeds, result in zip(seed_sets, results):
                again = svc.estimate(graph, seeds,
                                     n_samples=result.n_samples)
                assert again.value == result.value

    def test_maximize_deterministic_and_valid(self, graph):
        config = ServiceConfig(r=4, n_samples=2_000, min_samples=64)
        with InfluenceService(config) as svc:
            a = svc.maximize(graph, 3)
            b = svc.maximize(graph, 3)
        assert a.seeds.tolist() == b.seeds.tolist()
        assert len(set(a.seeds.tolist())) == 3
        assert all(0 <= s < graph.n for s in a.seeds)

    @pytest.mark.parametrize("n_samples", [MAX_N_SAMPLES + 1, 10**30])
    def test_oversized_n_samples_is_a_typed_error(self, graph, n_samples):
        # Well above IMM's 2,000,000-set default, yet a cap: an unbounded
        # request would tie up a worker growing a pool forever.
        assert MAX_N_SAMPLES >= 10 * 2_000_000
        with InfluenceService(ServiceConfig(r=4, n_samples=500,
                                            min_samples=64)) as svc:
            for call in (lambda: svc.estimate(graph, [0], n_samples),
                         lambda: svc.estimate_many(graph, [[0], [1]],
                                                   n_samples),
                         lambda: svc.maximize(graph, 2, n_samples)):
                with pytest.raises(ReproError, match=str(MAX_N_SAMPLES)):
                    call()
            assert svc.stats()["pools"] == {}  # nothing was drawn
            assert svc.estimate(graph, [0]).n_samples == 500
        with pytest.raises(ValueError, match=str(MAX_N_SAMPLES)):
            ServiceConfig(n_samples=MAX_N_SAMPLES + 1)

    def test_warm_dir_round_trip(self, tmp_path, graph):
        config = ServiceConfig(r=4, n_samples=500, min_samples=64,
                               warm_dir=str(tmp_path / "warm"))
        with InfluenceService(config) as svc:
            first = svc.estimate(graph, [0])
            assert svc.persist(graph) is not None
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            with InfluenceService(config) as svc:
                again = svc.estimate(graph, [0])
        assert registry.counter("serve.cache.warm_hit") == 1
        assert again.value == first.value

    def test_stats_shape(self, graph):
        with InfluenceService(ServiceConfig(r=4, n_samples=500,
                                            min_samples=64)) as svc:
            svc.estimate(graph, [0])
            stats = svc.stats()
        assert stats["models"] == 1
        assert stats["model_bytes"] > 0
        assert list(stats["pools"].values()) == [500]
        json.dumps(stats)  # must be JSON-able for /stats

    def test_stats_survives_pool_insert_mid_snapshot(self, graph,
                                                     monkeypatch):
        """A pool created while /stats lists the pools must not abort the
        listing; the tokens are computed outside ``_pool_lock``, or the
        nested pool creation below would deadlock."""
        other = random_graph(60, 200, seed=5)
        with InfluenceService(ServiceConfig(r=4, n_samples=500,
                                            min_samples=64)) as svc:
            svc.estimate(graph, [0])
            original = ModelKey.token
            fired = []

            def token(key):
                if not fired:
                    fired.append(True)
                    svc.estimate(other, [0])  # inserts a second pool
                return original(key)

            monkeypatch.setattr(ModelKey, "token", token)
            result = []
            worker = threading.Thread(
                target=lambda: result.append(svc.stats()), daemon=True)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive(), "stats() deadlocked"
            monkeypatch.undo()
            assert fired and len(result) == 1
            assert len(svc.stats()["pools"]) == 2


class TestHTTP:
    @pytest.fixture
    def served(self, graph):
        config = ServiceConfig(r=4, n_samples=500, min_samples=64)
        service = InfluenceService(config)
        server = make_server(service, graph, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}", service
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

    def test_round_trip(self, served, graph):
        base, service = served
        with urllib.request.urlopen(base + "/healthz") as resp:
            assert json.loads(resp.read()) == {"status": "ok"}
        status, body = self._post(base + "/estimate", {"seeds": [0, 1]})
        assert status == 200
        expected = service.estimate(graph, [0, 1])
        assert body["value"] == expected.value
        status, body = self._post(base + "/maximize", {"k": 2})
        assert status == 200
        assert len(body["seeds"]) == 2
        with urllib.request.urlopen(base + "/stats") as resp:
            assert json.loads(resp.read())["models"] == 1

    def test_error_mapping(self, served):
        base, _ = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(base + "/estimate", {"not_seeds": [0]})
        assert exc.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(base + "/estimate", {"seeds": []})
        assert exc.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as exc:
            self._post(base + "/nope", {"seeds": [0]})
        assert exc.value.code == 404

    def test_malformed_content_length_is_bad_request(self, served):
        # Regression: int() on the attacker-controlled Content-Length
        # header used to sit outside the handler's error mapping, turning
        # a malformed header into an unhandled 500.  It must be a clean
        # 400 with a JSON error body — and because the body was never
        # consumed, the desynced keep-alive connection must close instead
        # of parsing body bytes as the next request line.
        base, _ = served
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5) as conn:
            conn.settimeout(5)
            conn.sendall(
                b"POST /estimate HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: banana\r\n"
                b"\r\n"
                b'{"seeds": [0]}'
            )
            raw = b""
            while True:  # server closes the connection -> read to EOF
                chunk = conn.recv(4096)
                if not chunk:
                    break
                raw += chunk
        status_line = raw.split(b"\r\n", 1)[0]
        assert b" 400 " in status_line
        body = json.loads(raw.partition(b"\r\n\r\n")[2])
        assert "Content-Length" in body["error"]


class _CountingSocket(socket.socket):
    """An accepted connection that counts the writes handed to the kernel."""

    writes = 0

    def send(self, data, *args):
        self.writes += 1
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.writes += 1
        return super().sendall(data, *args)


class TestKeepAlive:
    """Many requests over one connection, the way real clients talk.

    ``urllib`` sends ``Connection: close``, so a per-response stall that
    only hits the second request on a connection never showed there.
    Writing a response as two small segments on a Nagle socket made every
    keep-alive request wait for the client's delayed ACK (~40 ms).
    """

    ROUTES = 20
    #: Half the ~40 ms delayed-ACK floor: a reintroduced stall cannot pass
    #: and host noise on a sub-millisecond answer cannot fail it.
    STALL_MS = 20.0

    @pytest.fixture
    def served(self):
        graph = build_graph(12, [(i, (i + 1) % 12, 0.6) for i in range(12)])
        service = InfluenceService(ServiceConfig(
            r=4, seed=5, sampler="addressable", n_samples=400,
            min_samples=64, max_workers=2,
        ))
        dynamic = service.attach_dynamic(graph)
        server = make_server(service, graph, port=0, dynamic=dynamic)
        accepted: "list[_CountingSocket]" = []
        plain_get_request = server.get_request

        def get_request():
            sock, address = plain_get_request()
            counting = _CountingSocket(fileno=sock.detach())
            accepted.append(counting)
            return counting, address

        server.get_request = get_request
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=10)
        try:
            yield conn, accepted, dynamic
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            service.close()

    @staticmethod
    def _call(conn, method, path, body=None):
        payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        assert response.getheader("Content-Type") == "application/json"
        return response.status, json.loads(data)

    def _requests(self):
        for _ in range(self.ROUTES):
            yield "GET", "/healthz", None
        for _ in range(self.ROUTES):
            yield "GET", "/stats", None
        for _ in range(self.ROUTES):
            yield "POST", "/estimate", {"seeds": [0, 3]}
        for i in range(self.ROUTES):  # toggle the chord 0 -> 2
            op = "insert" if i % 2 == 0 else "delete"
            yield "POST", "/apply_deltas", {"deltas": [
                {"op": op, "u": 0, "v": 2, "p": 0.5}]}

    def test_one_write_per_response_and_no_stall(self, served):
        conn, accepted, dynamic = served
        rounds: "dict[str, list[float]]" = {}
        for method, path, body in self._requests():
            before = accepted[0].writes if accepted else 0
            start = time.perf_counter()
            status, _ = self._call(conn, method, path, body)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            assert status == 200, (path, body)
            # Same connection throughout, one send per response.
            assert len(accepted) == 1
            assert accepted[0].writes - before == 1, path
            rounds.setdefault(path, []).append(elapsed_ms)
        assert dynamic.epoch == self.ROUTES
        for path, times in rounds.items():
            assert len(times) == self.ROUTES
            assert statistics.median(times) < self.STALL_MS, (path, times)

    @pytest.mark.parametrize("path, body", [
        ("/estimate", {"seeds": [[1, 2]]}),
        ("/estimate", {"seeds": [0.7]}),
        ("/estimate", {"seeds": [True]}),
        ("/estimate", {"seeds": ["0"]}),
        ("/estimate", {"seeds": 3}),
        ("/estimate", {"seeds": [0], "n_samples": "x"}),
        ("/estimate", {"seeds": [0], "n_samples": 100.5}),
        ("/estimate_many", {"seed_sets": [[0], [1.9]]}),
        ("/estimate_many", {"seed_sets": {"a": [0]}}),
        ("/maximize", {"k": True}),
        ("/maximize", {"k": 2.0}),
        ("/maximize", {"k": 2, "n_samples": [400]}),
        ("/apply_deltas", {"deltas": [
            {"op": "insert", "u": 0, "v": 2.5, "p": 0.5}]}),
        ("/apply_deltas", {"deltas": [
            {"op": "insert", "u": False, "v": 2, "p": 0.5}]}),
        ("/insert_edge", {"u": 0, "v": 2.0, "p": 0.5}),
        ("/delete_edge", {"u": "0", "v": 1}),
    ])
    def test_non_integer_fields_are_bad_request(self, served, path, body):
        conn, accepted, dynamic = served
        status, reply = self._call(conn, "POST", path, body)
        assert status == 400
        assert isinstance(reply["error"], str) and reply["error"]
        assert "not supported" not in reply["error"]
        assert dynamic.epoch == 0  # no mutation slipped through
        # The connection stays usable after the typed 400.
        assert self._call(conn, "GET", "/healthz") == (200, {"status": "ok"})
        assert len(accepted) == 1

    @pytest.mark.parametrize("path, body", [
        (path, dict(body, n_samples=n_samples))
        for path, body in (("/estimate", {"seeds": [0]}),
                           ("/estimate_many", {"seed_sets": [[0], [1]]}),
                           ("/maximize", {"k": 2}))
        for n_samples in (MAX_N_SAMPLES + 1, 10**30)
    ])
    def test_oversized_n_samples_is_bad_request(self, served, path, body):
        conn, accepted, dynamic = served
        status, reply = self._call(conn, "POST", path, body)
        assert status == 400
        assert str(MAX_N_SAMPLES) in reply["error"]
        assert self._call(conn, "GET", "/healthz") == (200, {"status": "ok"})
        assert len(accepted) == 1

    @pytest.mark.parametrize("path, p", [
        (path, p)
        for path in ("/insert_edge", "/apply_deltas")
        for p in (True, False, "0.5", None, [0.5], {"p": 0.5},
                  float("nan"), float("inf"), float("-inf"))
    ])
    def test_non_number_probabilities_are_bad_request(self, served, path,
                                                      p):
        # float() used to read true as p = 1.0 and "0.5" as 0.5; json
        # writes the non-finite values as NaN/Infinity literals, which
        # the server's parser accepts.
        conn, accepted, dynamic = served
        delta = {"u": 0, "v": 2, "p": p}
        body = (delta if path == "/insert_edge"
                else {"deltas": [dict(delta, op="insert")]})
        status, reply = self._call(conn, "POST", path, body)
        assert status == 400
        assert isinstance(reply["error"], str) and reply["error"]
        assert dynamic.epoch == 0
        assert self._call(conn, "GET", "/healthz") == (200, {"status": "ok"})
        assert len(accepted) == 1

    def test_integer_probability_is_accepted(self, served):
        conn, _, dynamic = served
        status, _ = self._call(conn, "POST", "/insert_edge",
                               {"u": 0, "v": 2, "p": 1})
        assert status == 200
        assert dynamic.epoch == 1

    def test_handler_time_is_observed(self, served):
        conn, _, _ = served
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            for method, path, body in [
                ("GET", "/healthz", None),
                ("POST", "/estimate", {"seeds": [0]}),
                ("POST", "/estimate", {"seeds": [0.5]}),
            ]:
                self._call(conn, method, path, body)
        timer = registry.snapshot()["timers"]["serve.http.handle_seconds"]
        assert timer["count"] == 3
        assert registry.counter("serve.http.responses") == 3

    def test_expect_100_continue_is_sent_before_the_body(self, served):
        # The interim 100 must not sit in the response buffer: a client
        # waits for it before sending the body.
        conn, _, _ = served
        body = json.dumps({"seeds": [0]}).encode()
        with socket.create_connection((conn.host, conn.port),
                                      timeout=5) as raw:
            raw.sendall(
                b"POST /estimate HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"\r\n"
            )
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += raw.recv(1)
            assert interim.startswith(b"HTTP/1.1 100 ")
            raw.sendall(body)
            reply = b""
            while b"\r\n\r\n" not in reply:
                reply += raw.recv(4096)
            assert reply.startswith(b"HTTP/1.1 200 ")
