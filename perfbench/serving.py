"""The ``serve-read`` and ``serve-churn`` workloads: ``repro serve`` over HTTP.

Both serve the twitter-2010 analogue (20k vertices, ~827k edges, TRI)
from an edge list the benchmark writes, with the default addressable
sampler.

* ``serve-read`` runs ``--estimator sketch --readonly --workers 2``: a
  closed loop over 2 keep-alive connections sends ``/estimate`` with
  1-16-vertex hub-skewed seed sets.  A warm read is HTTP, admission, cache
  lookup and oracle scoring — no sampling at query time.
* ``serve-churn`` runs the default ``ris`` estimator with
  ``--simulations 500`` over one connection.  Each cycle of a fixed
  schedule sends two ``/apply_deltas`` of 8 deltas each, one fresh
  ``/estimate`` (the first read after the writes) and 2 warm ones.

The untraced run measures a real ``repro serve`` process.  The traced run
replays the same config, graph and operation stream against an
in-process twin (``InfluenceService`` + ``make_server``) so HTTP time can
be told apart from service time.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from harness import (
    OUT,
    ROOT,
    NullTracer,
    Run,
    delta_batches,
    end_to_end,
    env_with_src,
    hub_ranked,
    input_rng,
    median,
    ms,
    pid_peak_rss_mb,
    seed_sets,
    tail,
)
from offline import MODEL_SEED, R, twitter_like

#: Operation counts.  Fixed: a run never loops for a set duration.
#: ``spawns`` servers are started and timed to ``/healthz``; the last
#: ``colds`` of them answer a cold read (the last one then serves the
#: stream), the others are stopped at once.
COUNTS = {
    "serve-read": {
        False: dict(n=20_000, spawns=3, colds=1, reads=200),
        True: dict(n=1_500, spawns=2, colds=1, reads=24),
    },
    "serve-churn": {
        False: dict(n=20_000, spawns=4, colds=4, cycles=20, writes=2,
                    warm=2),
        True: dict(n=1_500, spawns=2, colds=2, cycles=4, writes=2, warm=2),
    },
}
CONNECTIONS = 2  # serve-read; serve-churn uses one connection
DELTAS_PER_BATCH = 8
SERVE_FLAGS = {
    "serve-read": ["--estimator", "sketch", "--readonly", "--workers", "2"],
    "serve-churn": ["--simulations", "500", "--workers", "2"],
}


def service_config(workload: str):
    """The ``ServiceConfig`` ``repro serve`` builds from SERVE_FLAGS."""
    from repro.serve import ServiceConfig

    if workload == "serve-read":
        return ServiceConfig(r=R, seed=MODEL_SEED, sampler="addressable",
                             estimator="sketch", max_workers=2)
    return ServiceConfig(r=R, seed=MODEL_SEED, sampler="addressable",
                         n_samples=500, max_workers=2)


class Client:
    """One keep-alive HTTP connection; every call is one operation."""

    def __init__(self, port: int, tracer) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
        self.tracer = tracer

    def call(self, method: str, path: str, body: "dict | None" = None,
             op: int = 0) -> "tuple[int, dict, float]":
        headers = {"Content-Type": "application/json"}
        if op:
            headers["X-Bench-Op"] = str(op)
        data = None if body is None else json.dumps(body).encode("utf-8")
        with self.tracer.span("client" + path, op=op):
            start = time.perf_counter()
            self.conn.request(method, path, data, headers)
            response = self.conn.getresponse()
            raw = response.read()
            seconds = time.perf_counter() - start
        return response.status, json.loads(raw), seconds

    def close(self) -> None:
        self.conn.close()


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class ServerProcess:
    """A ``repro serve`` child process on an ephemeral port."""

    def __init__(self, edges: Path, workload: str) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(edges),
             "--port", "0", "--seed", str(MODEL_SEED),
             *SERVE_FLAGS[workload]],
            cwd=ROOT, env=env_with_src(), stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True,
            # A parent started in the background may ignore SIGINT, and the
            # child would inherit that; the server stops on SIGINT.
            preexec_fn=_default_sigint,
        )
        try:
            line = self.proc.stdout.readline()
            if "serving on http://" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            self.port = int(line.split("http://", 1)[1].split()[0]
                            .rsplit(":", 1)[1])
            probe = Client(self.port, NullTracer())
            status, _, _ = probe.call("GET", "/healthz")
            probe.close()
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (the documented shutdown), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class InProcessServer:
    """The traced run's twin: the same stack, in this process."""

    def __init__(self, graph, workload: str) -> None:
        from repro.serve import InfluenceService
        from repro.serve.http import make_server

        self.service = InfluenceService(service_config(workload))
        start = time.perf_counter()
        self.dynamic = self.service.attach_dynamic(graph)
        self.attach_s = time.perf_counter() - start
        self.server = make_server(self.service, graph, port=0,
                                  dynamic=self.dynamic,
                                  readonly=workload == "serve-read")
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05})
        self.thread.start()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.service.close()


def _read_loop(port: int, tracer, jobs, results, out: Run) -> None:
    """One closed-loop client: send each read after the previous answer."""
    client = Client(port, tracer)
    try:
        for index, seeds in jobs:
            op = tracer.new_op()
            status, body, seconds = client.call(
                "POST", "/estimate", {"seeds": seeds}, op)
            out.op(status == 200, f"/estimate answered {status}")
            results[index] = (body.get("value"), seconds, op, status)
    finally:
        client.close()


def final_graph(graph, schedule: "list[list[dict]]"):
    """The graph after every batch of the schedule, built cold."""
    from repro.graph import InfluenceGraph

    tails, heads, probs = graph.edge_arrays()
    edges = dict(zip(zip(tails.tolist(), heads.tolist()), probs.tolist()))
    for batch in schedule:
        for delta in batch:
            if delta["op"] == "insert":
                edges[delta["u"], delta["v"]] = delta["p"]
            else:
                del edges[delta["u"], delta["v"]]
    pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    return InfluenceGraph.from_edges(graph.n, pairs[:, 0], pairs[:, 1],
                                     np.asarray(list(edges.values())))


def run(workload: str, seed: int, quick: bool, tracer,
        traced: bool) -> "tuple[Run, dict]":
    from repro.graph import read_edge_list, write_edge_list

    counts = COUNTS[workload][quick]
    churn = workload == "serve-churn"
    out = Run()
    layer: dict = {}

    start = time.perf_counter()
    graph = twitter_like(counts["n"])
    layer["datasets.generate_s"] = time.perf_counter() - start
    ranked = hub_ranked(graph)
    if churn:
        schedule = delta_batches(graph, ranked, input_rng(seed, 2),
                                 counts["cycles"] * counts["writes"],
                                 DELTAS_PER_BATCH)
        reads = seed_sets(ranked, input_rng(seed, 1),
                          1 + counts["cycles"] * (1 + counts["warm"]))
    else:
        schedule = []
        reads = seed_sets(ranked, input_rng(seed, 1), 1 + counts["reads"])
    cold_seeds, stream = reads[0], reads[1:]

    OUT.mkdir(parents=True, exist_ok=True)
    edges = OUT / f"{workload}-{seed}.edges"
    write_edge_list(graph, edges)
    servers: list = []
    setups, colds = [], []
    warm: dict = {}
    fresh: dict = {}
    updates: "list[tuple[dict, float, int, int]]" = []

    def cold_read(port: int) -> None:
        client = Client(port, tracer)
        status, body, seconds = client.call(
            "POST", "/estimate", {"seeds": cold_seeds}, tracer.new_op())
        client.close()
        out.op(status == 200, f"cold /estimate answered {status}")
        colds.append((body.get("value"), seconds))

    try:
        if traced:
            from layers import instrument
            start = time.perf_counter()
            served_graph = read_edge_list(edges)
            layer["io.read_edge_list_s"] = time.perf_counter() - start
            out.check(served_graph.digest() == graph.digest(),
                      "edge-list round trip is digest-exact")
            graph = served_graph
            server = InProcessServer(graph, workload)
            servers.append(server)
            layer["dynamic.attach_s"] = server.attach_s
            sampling, oracles = instrument(tracer, service=server.service,
                                           dynamic=server.dynamic)
            cold_read(server.port)
        else:
            # Every spawn is timed to /healthz, the last ``colds`` answer
            # one cold read; all but the last are stopped again.
            for index in range(counts["spawns"]):
                if servers:
                    servers.pop().stop()
                servers.append(ServerProcess(edges, workload))
                setups.append(servers[-1].setup_s)
                if index >= counts["spawns"] - counts["colds"]:
                    cold_read(servers[-1].port)
        port = servers[-1].port

        phase_start = time.perf_counter()
        if churn:
            client = Client(port, tracer)
            cursor = 0
            for index, batch in enumerate(schedule):
                op = tracer.new_op()
                status, body, seconds = client.call(
                    "POST", "/apply_deltas", {"deltas": batch}, op)
                out.op(status == 200, f"/apply_deltas answered {status}")
                updates.append((body, seconds, op, status))
                if (index + 1) % counts["writes"]:
                    continue
                for position in range(1 + counts["warm"]):
                    op = tracer.new_op()
                    status, body, seconds = client.call(
                        "POST", "/estimate", {"seeds": stream[cursor]}, op)
                    out.op(status == 200, f"/estimate answered {status}")
                    target = fresh if position == 0 else warm
                    target[cursor] = (body.get("value"), seconds, op, status)
                    cursor += 1
            client.close()
        else:
            jobs = [[(i, s) for i, s in enumerate(stream)
                     if i % CONNECTIONS == c] for c in range(CONNECTIONS)]
            threads = [threading.Thread(target=_read_loop,
                                        args=(port, tracer, jobs[c], warm,
                                              out))
                       for c in range(CONNECTIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        phase_s = time.perf_counter() - phase_start

        client = Client(port, tracer)
        if not churn:
            # The cold seed set once more, now warm: the same answer.
            status, body, _ = client.call(
                "POST", "/estimate", {"seeds": cold_seeds}, tracer.new_op())
            out.op(status == 200, f"repeated cold /estimate answered {status}")
            colds.append((body.get("value"), None))
        status, stats, _ = client.call("GET", "/stats", op=tracer.new_op())
        client.close()
        out.op(status == 200, f"/stats answered {status}")
        lineage = stats["dynamic"][0]
        if traced:
            tracer.unwrap_all()
            live = servers[-1].dynamic
        else:
            rss = servers[-1].peak_rss_mb()
            servers.pop().stop()
        answered = {**warm, **fresh}
        _check_answers(out, workload, counts, graph, schedule,
                       cold_seeds, stream, colds, answered, updates, lineage,
                       live if traced else None)
    finally:
        for server in servers:
            server.stop()
        edges.unlink(missing_ok=True)

    cold_s = [seconds for _, seconds in colds if seconds is not None]
    end_to_end(out, setup=setups, cold=cold_s,
               warm=[seconds for _, seconds, _, _ in warm.values()],
               work=sum(cold_s) + phase_s,
               peak_rss_mb=None if traced else rss)
    out.metric("coarse_edge_ratio", lineage["coarse_m"] / lineage["m"],
               "ratio")
    phases: dict = {}
    if churn:
        update_s = [seconds for _, seconds, _, _ in updates]
        update_tail, update_pct, update_n = tail(update_s)
        phases.update({
            "update_p50_ms": ms(median(update_s)),
            "update_tail_ms": ms(update_tail),
            "update_tail": {"percentile": update_pct, "samples": update_n},
            "fresh_read_ms": ms(median(
                [seconds for _, seconds, _, _ in fresh.values()])),
        })
    else:
        phases["read_qps"] = len(warm) / phase_s
    out.notes["phases"] = phases
    out.notes["epochs"] = lineage["epoch"]
    out.notes["updates"] = lineage["updates"]

    if traced:
        from layers import layer_metrics
        rejected = sum(1 for *_, status in
                       list(answered.values()) + updates if status == 429)
        layer.update(_serve_layers(tracer, warm, updates, lineage, stats,
                                   rejected, sampling))
        layer = layer_metrics(tracer, sampling, oracles, layer)
    return out, layer


def _check_answers(out: Run, workload: str, counts: dict, graph,
                   schedule: list, cold_seeds: list, stream: list,
                   colds: list, answered: dict, updates: list,
                   lineage: dict, live) -> None:
    """Served answers == an in-process twin's, bit for bit.

    The twin is a fresh ``InfluenceService`` with the server's config.
    ``live`` is the traced run's in-process ``DynamicModel`` (None for a
    server process, whose internals are out of reach): with it the twin
    replays the whole schedule and the live model is compared with a cold
    rebuild; without it the final state is rebuilt cold from the schedule.
    """
    from repro.core.dynamic import Delta, coarsen_addressable
    from repro.serve import InfluenceService

    churn = workload == "serve-churn"
    out.check(len({value for value, _ in colds}) == 1,
              "every fresh server gives the same cold answer"
              + ("" if churn else ", and again when warm"))
    with InfluenceService(service_config(workload)) as twin:
        if not churn:
            out.check(lineage["token"] == twin.key_for(graph).token(),
                      "served model key == twin")
            if live is not None:
                for index, seeds in [(-1, cold_seeds), *enumerate(stream)]:
                    value = colds[0][0] if index < 0 else answered[index][0]
                    out.check(value == twin.estimate(graph, seeds).value,
                              "served answer == twin")
            else:
                # The twin's sketch build would cost as much as the cold
                # read again, so the server process is held to the traced
                # run's twin check through its model key, and here to
                # answering a repeated seed set the same way every time.
                seen: dict = {}
                for index, seeds in enumerate(stream):
                    key = tuple(seeds)
                    seen.setdefault(key, answered[index][0])
                    out.check(seen[key] == answered[index][0],
                              "a repeated seed set gets the same answer")
            return
        out.check(twin.estimate(graph, cold_seeds).value == colds[0][0],
                  "cold answer == twin")
        out.check(lineage["epoch"] == len(schedule),
                  "one epoch per delta batch")
        if live is not None:
            dynamic = twin.attach_dynamic(graph)
            for (body, *_), batch in zip(updates, schedule):
                expect = dynamic.apply_deltas(
                    [Delta.from_json(d) for d in batch])
                out.check(all(body.get(key) == expect[key]
                              for key in ("epoch", "token", "applied",
                                          "fast", "rebuilt",
                                          "model_retained")),
                          "update summary == twin")
            final = dynamic.graph
            cold = coarsen_addressable(live.graph, R, seed=MODEL_SEED)
            out.check(cold.coarse.digest() == live.model.coarse.digest()
                      and (cold.pi == live.model.pi).all(),
                      "live model == cold coarsen_addressable of final graph")
        else:
            final = final_graph(graph, schedule)
            cold = coarsen_addressable(final, R, seed=MODEL_SEED)
            twin.cache.put(twin.key_for(final), cold)
            out.check(cold.coarse.n == lineage["coarse_n"]
                      and cold.coarse.m == lineage["coarse_m"]
                      and final.m == lineage["m"],
                      "live model size == cold coarsen_addressable")
        per_cycle = 1 + counts["warm"]
        for index in range(len(stream) - per_cycle, len(stream)):
            out.check(answered[index][0]
                      == twin.estimate(final, stream[index]).value,
                      "served answer after churn == twin")


def _serve_layers(tracer, warm: dict, updates: list, lineage: dict,
                  stats: dict, rejected: int, sampling) -> dict:
    """Per-layer values only the serve workloads can attribute."""
    service_s = tracer.by_op("serve.estimate")
    warm_ops = [(op, seconds) for _, seconds, op, _ in warm.values()
                if op in service_s]
    layer = {
        "core.coarse_n": lineage["coarse_n"],
        "core.coarse_m": lineage["coarse_m"],
        "serve.rejected": rejected,
    }
    if warm_ops:
        layer["serve.estimate_ms"] = ms(median(
            [service_s[op] for op, _ in warm_ops]))
        layer["http.read_overhead_ms"] = ms(median(
            [seconds - service_s[op] for op, seconds in warm_ops]))
    if updates:
        model_s = tracer.by_op("dynamic.model.apply")
        coarsener_s = tracer.by_op("dynamic.coarsener.apply")
        ops = [(op, seconds) for _, seconds, op, _ in updates
               if op in model_s and op in coarsener_s]
        layer["http.write_overhead_ms"] = ms(median(
            [seconds - model_s[op] for op, seconds in ops]))
        layer["dynamic.apply_ms"] = ms(median(
            [coarsener_s[op] for op, _ in ops]))
        layer["dynamic.publish_ms"] = ms(median(
            [model_s[op] - coarsener_s[op] for op, _ in ops]))
        counts = lineage["updates"]
        mutations = counts["insertions"] + counts["deletions"]
        layer.update({
            "dynamic.fast_updates": counts["fast_updates"],
            "dynamic.full_rebuilds": counts["full_rebuilds"],
            "dynamic.scc_recomputations": counts["scc_recomputations"],
            "dynamic.skip_ratio": counts["scc_skipped"] / (R * mutations),
            "dynamic.coarse_changed_ratio": sum(
                1 for body, *_ in updates if not body.get("model_retained"))
            / len(updates),
        })
        live = sum(stats["pools"].values())
        if sampling.sets:
            layer["pool.discarded_ratio"] = (sampling.sets - live) \
                / sampling.sets
    return layer
