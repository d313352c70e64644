"""Per-layer measurement for the traced run, from outside the library.

:func:`instrument` wraps the public entry points of each layer with the
benchmark's own spans (:class:`~harness.Tracer`); :func:`layer_metrics`
turns those spans, plus the counters the public API already returns
(``CoarsenStats``, ``DynamicStats``, ``SketchStats``, RR-sampler and pool
sizes), into the ``per_layer`` metrics of ``BENCHMARK.json``.  A layer a
workload bypasses reports 0.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from harness import median, ms, ratio

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("datasets.generate_s", "s"),
    ("io.read_edge_list_s", "s"),
    ("core.robust_scc_s", "s"),
    ("core.stage.sample_s", "s"),
    ("core.stage.scc_s", "s"),
    ("core.stage.meet_s", "s"),
    ("core.contract_s", "s"),
    ("core.coarse_n", "count"),
    ("core.coarse_m", "count"),
    ("dynamic.attach_s", "s"),
    ("pool.ensure_s", "s"),
    ("rr.sets_drawn", "count"),
    ("rr.mean_set_size", "count"),
    ("rr.examined_edges", "count"),
    ("rr.sets_per_s", "1/s"),
    ("coverage.build_s", "s"),
    ("coverage.greedy_s", "s"),
    ("frameworks.estimate_ms", "ms"),
    ("sketch.build_s", "s"),
    ("sketch.insertions", "count"),
    ("sketch.pruned_ratio", "ratio"),
    ("sketch.estimate_ms", "ms"),
    ("bounds.report_s", "s"),
    ("serve.estimate_ms", "ms"),
    ("serve.model_for_ms", "ms"),
    ("serve.rejected", "count"),
    ("http.read_overhead_ms", "ms"),
    ("http.write_overhead_ms", "ms"),
    ("dynamic.apply_ms", "ms"),
    ("dynamic.publish_ms", "ms"),
    ("dynamic.fast_updates", "count"),
    ("dynamic.full_rebuilds", "count"),
    ("dynamic.scc_recomputations", "count"),
    ("dynamic.skip_ratio", "ratio"),
    ("dynamic.coarse_changed_ratio", "ratio"),
    ("pool.discarded_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_ms", "ms"),
]


class Sampling:
    """RR sets drawn, their total size and the edges examined drawing them."""

    def __init__(self) -> None:
        self.sets = 0
        self.vertices = 0
        self.examined = 0


def instrument(tracer, service=None, dynamic=None) -> "tuple[Sampling, list]":
    """Wrap every layer's public entry points with spans.

    Returns the RR-sampling counters and the list that collects each
    :class:`~repro.sketch.InfluenceOracle` built while the wrappers are on.
    """
    from repro.core.dynamic import DynamicCoarsener
    from repro.diffusion.rr_sets import CoverageInstance, RRSampler
    from repro.serve import service as service_module
    from repro.serve.http import ServeHandler
    from repro.serve.pool import SamplePool
    from repro.sketch import InfluenceOracle

    sampling = Sampling()
    oracles: list = []
    draw = RRSampler.sample

    def counted_sample(sampler, *args, **kwargs):
        before = sampler.examined_edges
        rr_set = draw(sampler, *args, **kwargs)
        sampling.sets += 1
        sampling.vertices += int(rr_set.size)
        sampling.examined += sampler.examined_edges - before
        return rr_set

    tracer.patch(RRSampler, "sample", counted_sample)

    build = InfluenceOracle.__init__

    def kept_build(oracle, *args, **kwargs):
        build(oracle, *args, **kwargs)
        oracles.append(oracle)

    tracer.patch(InfluenceOracle, "__init__", kept_build)

    tracer.carry(ThreadPoolExecutor, "submit")
    tracer.wrap(InfluenceOracle, "__init__", "sketch.build")
    tracer.wrap(InfluenceOracle, "estimate", "sketch.estimate")
    tracer.wrap(SamplePool, "ensure", "pool.ensure")
    tracer.wrap(CoverageInstance, "__init__", "coverage.build")
    tracer.wrap(CoverageInstance, "greedy", "coverage.greedy")
    tracer.wrap(service_module, "estimate_on_coarse", "frameworks.estimate")
    tracer.wrap(service_module, "guarantee_report", "bounds.report")
    tracer.wrap(DynamicCoarsener, "apply_deltas", "dynamic.coarsener.apply")
    tracer.wrap(ServeHandler, "do_POST", "http.handle",
                op_of=lambda args, _: int(
                    args[0].headers.get("X-Bench-Op") or 0) or None)
    if service is not None:
        tracer.wrap(service, "estimate", "serve.estimate")
        tracer.wrap(service, "model_for", "serve.model_for")
    if dynamic is not None:
        tracer.wrap(dynamic, "apply_deltas", "dynamic.model.apply")
    return sampling, oracles


def layer_metrics(tracer, sampling: Sampling, oracles: list,
                  values: dict) -> dict:
    """Every per-layer metric: ``values`` (set by the workload) + spans."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    ensure_s = sum(tracer.durations("pool.ensure"))
    out.update({
        "pool.ensure_s": ensure_s,
        "rr.sets_drawn": sampling.sets,
        "rr.mean_set_size": ratio(sampling.vertices, sampling.sets),
        "rr.examined_edges": sampling.examined,
        "rr.sets_per_s": ratio(sampling.sets, ensure_s),
        "coverage.build_s": sum(tracer.durations("coverage.build")),
        "coverage.greedy_s": sum(tracer.durations("coverage.greedy")),
        "sketch.build_s": sum(tracer.durations("sketch.build")),
        "bounds.report_s": sum(tracer.durations("bounds.report")),
    })
    for metric, span in (("frameworks.estimate_ms", "frameworks.estimate"),
                         ("sketch.estimate_ms", "sketch.estimate"),
                         ("serve.model_for_ms", "serve.model_for")):
        durations = tracer.durations(span)
        if durations:
            out[metric] = ms(median(durations))
    if oracles:
        insertions = sum(o.stats.insertions for o in oracles)
        pruned = sum(o.stats.pruned for o in oracles)
        out["sketch.insertions"] = insertions
        out["sketch.pruned_ratio"] = ratio(pruned, insertions + pruned)
    out.update(values)
    out["trace.spans"] = len(tracer.spans)
    out["trace.overhead_ms"] = ms(len(tracer.spans) * tracer.span_cost_s())
    return out
