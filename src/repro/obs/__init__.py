"""Observability: tracing spans, metrics, and profiling hooks.

The package has three moving parts, all dependency-free:

* **Tracer** (:mod:`~repro.obs.trace`) — nested wall-clock spans with
  optional peak-RSS deltas, emitted as JSONL (or to an in-memory list)
  through a pluggable sink.
* **MetricsRegistry** (:mod:`~repro.obs.metrics`) — counters, gauges and
  timers; construct your own for test isolation or install one process-wide.
* **Gated helpers** (:mod:`~repro.obs.runtime`) — the module-level
  ``span``/``inc``/``observe`` functions the library's hot paths call.
  When nothing is installed they are no-ops costing one global read, so the
  instrumented pipeline stays within a <5% overhead budget while disabled.

Typical uses::

    # trace one coarsening run to JSONL
    from repro import obs
    with obs.trace_to("run.jsonl", rss=True):
        coarsen_influence_graph(graph, r=16, rng=0)

    # isolated metrics in a test
    registry = obs.MetricsRegistry()
    with obs.use_metrics(registry):
        ...
    assert registry.counter("scc.runs") == 16

Span names, stage keys and the JSONL schema are documented in
``docs/observability.md``.
"""

from .metrics import MetricsRegistry, TimerStat
from .runtime import (
    current_metrics,
    current_tracer,
    default_registry,
    disable_metrics,
    enable_metrics,
    inc,
    observe,
    set_gauge,
    set_metrics,
    set_tracer,
    span,
    timed,
    trace_to,
    use_metrics,
    use_tracer,
)
from .sinks import JsonlSink, ListSink, NullSink, Sink
from .stages import (
    STAGE_CONTRACT,
    STAGE_MEET,
    STAGE_SAMPLE,
    STAGE_SCC,
    StageTimes,
)
from .trace import TRACE_SCHEMA_VERSION, Tracer, read_trace, validate_record

__all__ = [
    # tracing
    "Tracer",
    "TRACE_SCHEMA_VERSION",
    "read_trace",
    "validate_record",
    "span",
    "current_tracer",
    "set_tracer",
    "use_tracer",
    "trace_to",
    # sinks
    "Sink",
    "NullSink",
    "ListSink",
    "JsonlSink",
    # metrics
    "MetricsRegistry",
    "TimerStat",
    "inc",
    "set_gauge",
    "observe",
    "timed",
    "current_metrics",
    "set_metrics",
    "use_metrics",
    "default_registry",
    "enable_metrics",
    "disable_metrics",
    # stages
    "StageTimes",
    "STAGE_SAMPLE",
    "STAGE_SCC",
    "STAGE_MEET",
    "STAGE_CONTRACT",
]
