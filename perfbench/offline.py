"""The ``offline-audit`` workload: the paper's batch workflow, in-process.

Coarsen once (Algorithm 1, r = 16, stream coins), answer a fixed batch of
seed sets through the service's pooled-RIS batch face (Algorithm 3), then
pick k = 50 seeds (Algorithm 4).  Coarsening and RR-set sampling do almost
all the work; HTTP, dispatch, the sketch and the dynamic path are
bypassed.
"""

from __future__ import annotations

import time

import numpy as np

from harness import (
    TWITTER_PARAMS,
    Run,
    end_to_end,
    hub_ranked,
    input_rng,
    median,
    ms,
    seed_sets,
    self_peak_rss_mb,
    timed,
)

R = 16

#: Operation counts.  Fixed: a run never loops for a set duration.  Each
#: of the ``rounds`` generates the graph, coarsens it, and answers on a
#: fresh service: the cold batch, one maximization and the extra
#: coarsenings, each followed by a window of the warm estimates.  A warm
#: estimate takes ~0.15 ms and this host's speed changes from one second
#: to the next, so the warm estimates are spread over the whole run: in
#: three windows their median spread by 28% across seeds.
COUNTS = {
    False: dict(n=60_000, rounds=3, coarsens=5, batch=64, rr_sets=1_000,
                warm=12_000, k=50),
    True: dict(n=1_500, rounds=2, coarsens=3, batch=8, rr_sets=200,
               warm=48, k=5),
}


#: The graphs are fixed datasets (generator seed 0) and the coarsening
#: coins and RR sets a fixed draw (``MODEL_SEED``); the workload seed draws
#: the operation streams.  Between-seed differences in the graph or the
#: model would otherwise add to the run-to-run spread of every timing: RR
#: set sizes are heavy-tailed, and with the pool seed tied to the workload
#: seed, serve-churn's cold read spread by 26% across ten seeds.
GRAPH_SEED = 0
MODEL_SEED = 0


def twitter_like(n: int, seed: int = GRAPH_SEED):
    """The twitter-2010 analogue generator at ``n`` vertices, TRI setting.

    At ``n = 20_000`` this is exactly
    ``load_dataset("twitter-2010", "tri", seed)``.
    """
    from repro.datasets import generators
    from repro.datasets.probabilities import apply_setting
    from repro.rng import ensure_rng

    graph = generators.powerlaw_social_graph(n, rng=ensure_rng(seed),
                                             **TWITTER_PARAMS)
    return apply_setting(graph, "tri", ensure_rng(seed + 1_000_003))


def run(seed: int, quick: bool, tracer, traced: bool) -> "tuple[Run, dict]":
    from repro.core import coarsen, coarsen_influence_graph, robust_scc_partition
    from repro.serve import InfluenceService, ServiceConfig

    counts = COUNTS[quick]
    out = Run()
    layer: dict = {}

    setup: "list[float]" = []
    coarsen_times: "list[float]" = []
    cold_times: "list[float]" = []
    warm_times: "list[float]" = []
    maximize_times: "list[float]" = []
    stages: "dict[str, list[float]]" = {}
    digests, coarse, batches, picks = set(), set(), set(), set()
    warm_values: "list[float]" = []

    def coarsen_once():
        with timed(coarsen_times, tracer, "core.coarsen_influence_graph"):
            model = coarsen_influence_graph(graph, R, rng=MODEL_SEED)
        out.op()
        coarse.add((model.coarse.digest(), model.pi.tobytes()))
        for stage, seconds in model.stats.stage_seconds.items():
            stages.setdefault(stage, []).append(seconds)
        return model

    if traced:
        from layers import instrument
        sampling, oracles = instrument(tracer)
    config = ServiceConfig(r=R, seed=MODEL_SEED,
                           n_samples=counts["rr_sets"], max_workers=1,
                           max_pending=counts["batch"])
    # The phases are repeated round by round, so each median samples the
    # whole run, not one stretch of it.
    for round_ in range(counts["rounds"]):
        graph = model = None  # free the previous copies first
        with timed(setup, tracer, "datasets.generate"):
            graph = twitter_like(counts["n"])
        out.op()
        digests.add(graph.digest())
        model = coarsen_once()
        if round_ == 0:
            # The cold batch is the head of the warm stream, so the warm
            # answers can be held to the batched ones.
            stream = seed_sets(hub_ranked(graph), input_rng(seed, 1),
                               counts["warm"])
            batch = stream[:counts["batch"]]
            windows = iter(np.array_split(np.arange(len(stream)),
                                          3 * counts["rounds"]))
        if traced and round_ == 0:
            # The two halves of Algorithm 1 through their own public calls.
            start = time.perf_counter()
            partition = robust_scc_partition(graph, R, rng=MODEL_SEED)
            layer["core.robust_scc_s"] = time.perf_counter() - start
            start = time.perf_counter()
            contracted, _ = coarsen(graph, partition)
            layer["core.contract_s"] = time.perf_counter() - start
            out.check(contracted.digest() == model.coarse.digest(),
                      "robust_scc_partition + coarsen "
                      "== coarsen_influence_graph")

        with InfluenceService(config) as service:
            if traced:
                tracer.wrap(service, "estimate", "serve.estimate")
                tracer.wrap(service, "model_for", "serve.model_for")
            # The model is the one just timed: the service's own build
            # would be the same call with the same seed.
            service.cache.put(service.key_for(graph), model)

            with timed(cold_times, tracer, "serve.estimate_many"):
                answers = service.estimate_many(graph, batch)
            for answer in answers:
                out.op(not answer.degraded
                       and answer.n_samples == counts["rr_sets"],
                       "degraded estimate")
            values = [a.value for a in answers]
            batches.add(tuple(values))
            if round_ == 0:
                again = [a.value for a in service.estimate_many(graph, batch)]
                out.check(again == values,
                          "warm batch == cold batch, bit for bit")

            def warm_window():
                for index in next(windows).tolist():
                    with timed(warm_times, tracer, "serve.warm_estimate"):
                        answer = service.estimate(graph, stream[index])
                    out.op(not answer.degraded, "degraded estimate")
                    warm_values.append(answer.value)

            warm_window()
            with timed(maximize_times, tracer, "serve.maximize"):
                result = service.maximize(graph, counts["k"])
            out.op()
            seeds = np.asarray(result.seeds)
            picks.add(seeds.tobytes())
            out.check(seeds.size == counts["k"]
                      and np.unique(seeds).size == counts["k"]
                      and seeds.min() >= 0 and seeds.max() < graph.n,
                      "maximize returns k distinct in-range seeds")
            warm_window()
            if len(coarsen_times) < counts["coarsens"] - (
                    counts["rounds"] - 1 - round_):
                coarsen_once()
            warm_window()

    out.check(len(digests) == 1, "input generation is deterministic")
    out.check(len(coarse) == 1, "repeated coarsenings are identical")
    out.check(len(batches) == 1, "every fresh service answers the batch "
              "the same way")
    out.check(warm_values[:len(batch)] == list(next(iter(batches))),
              "sequential estimate == batched estimate, bit for bit")
    out.check(len(picks) == 1, "repeated maximize is identical")
    out.metric("coarse_edge_ratio", model.coarse.m / graph.m, "ratio")
    if traced:
        layer.update({
            "datasets.generate_s": median(setup),
            "core.coarse_n": model.coarse.n,
            "core.coarse_m": model.coarse.m,
            "core.stage.sample_s": median(stages["sample"]),
            "core.stage.scc_s": median(stages["scc"]),
            "core.stage.meet_s": median(stages["meet"]),
            "serve.estimate_ms": ms(median(
                tracer.durations("serve.estimate"))),
        })
        tracer.unwrap_all()
        from layers import layer_metrics
        layer = layer_metrics(tracer, sampling, oracles, layer)

    end_to_end(out, setup=setup, cold=cold_times, warm=warm_times,
               work=sum(coarsen_times + cold_times + warm_times
                        + maximize_times),
               peak_rss_mb=self_peak_rss_mb())
    out.notes["phases"] = {"coarsen_s": median(coarsen_times),
                           "maximize_s": median(maximize_times)}
    return out, layer
