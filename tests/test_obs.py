"""Tests for the observability layer (`repro.obs`) and its pipeline hooks."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from .conftest import random_graph
from repro import obs
from repro.bench import (
    COARSEN_STAGES,
    aggregate_spans,
    render_stage_table,
    run_traced,
)
from repro.core import (
    coarsen_influence_graph,
)


@pytest.fixture(autouse=True)
def _no_ambient_instrumentation():
    """Every test starts and ends with instrumentation disabled."""
    assert obs.current_tracer() is None
    assert obs.current_metrics() is None
    yield
    obs.set_tracer(None)
    obs.set_metrics(None)


def traced(fn):
    sink = obs.ListSink()
    tracer = obs.Tracer(sink)
    with obs.use_tracer(tracer):
        result = fn()
    tracer.close()
    return result, sink.records


class TestSpans:
    def test_nesting_parent_depth_and_close_order(self):
        _, records = traced(lambda: self._nested())
        spans = [r for r in records if r["type"] == "span"]
        by_name = {r["name"]: r for r in spans}
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["depth"] == 0
        assert by_name["mid"]["parent"] == by_name["outer"]["id"]
        assert by_name["mid"]["depth"] == 1
        assert by_name["leaf"]["parent"] == by_name["mid"]["id"]
        assert by_name["leaf"]["depth"] == 2
        # children are emitted (closed) before their parents
        order = [r["name"] for r in spans]
        assert order == ["leaf", "mid", "outer"]
        # a parent's duration covers its children
        assert by_name["outer"]["seconds"] >= by_name["mid"]["seconds"]

    @staticmethod
    def _nested():
        with obs.span("outer"):
            with obs.span("mid"):
                with obs.span("leaf", marker=1):
                    pass

    def test_sibling_spans_share_parent(self):
        def body():
            with obs.span("parent"):
                with obs.span("child", i=0):
                    pass
                with obs.span("child", i=1):
                    pass

        _, records = traced(body)
        children = [r for r in records
                    if r["type"] == "span" and r["name"] == "child"]
        parent = next(r for r in records
                      if r["type"] == "span" and r["name"] == "parent")
        assert [c["attrs"]["i"] for c in children] == [0, 1]
        assert all(c["parent"] == parent["id"] for c in children)
        # non-overlapping siblings in start order
        assert children[0]["t_start"] <= children[1]["t_start"]

    def test_error_status_propagates(self):
        def body():
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("x")

        _, records = traced(body)
        boom = next(r for r in records if r.get("name") == "boom")
        assert boom["status"] == "error"

    def test_noop_mode_emits_nothing_and_allocates_nothing(self):
        # no tracer installed: span() returns the shared null singleton
        a = obs.span("x", big=1)
        b = obs.span("y")
        assert a is b
        with a:
            pass  # reentrant and side-effect free

    def test_rss_delta_recorded_when_enabled(self):
        sink = obs.ListSink()
        tracer = obs.Tracer(sink, rss=True)
        with obs.use_tracer(tracer):
            with obs.span("alloc"):
                _ = np.zeros(1_000_000)
        tracer.close()
        span = next(r for r in sink.records if r.get("name") == "alloc")
        assert "rss_delta_kb" in span and span["rss_delta_kb"] >= 0

    def test_threads_get_independent_stacks(self):
        sink = obs.ListSink()
        tracer = obs.Tracer(sink)
        # keep all workers alive at once so thread idents cannot be reused
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            with tracer.span("thread_root"):
                barrier.wait()

        with obs.use_tracer(tracer):
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        tracer.close()
        roots = [r for r in sink.records if r.get("name") == "thread_root"]
        assert len(roots) == 4
        assert all(r["parent"] is None and r["depth"] == 0 for r in roots)
        assert len({r["thread"] for r in roots}) == 4


class TestJsonlSchema:
    def test_jsonl_round_trip_validates(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with obs.trace_to(path):
            with obs.span("a", k=1):
                with obs.span("b"):
                    pass
        records = obs.read_trace(path)  # validates every record
        assert records[0]["type"] == "meta"
        assert records[0]["schema"] == obs.TRACE_SCHEMA_VERSION
        names = [r["name"] for r in records if r["type"] == "span"]
        assert names == ["b", "a"]

    def test_validate_rejects_malformed_records(self):
        with pytest.raises(ValueError):
            obs.validate_record({"type": "meta", "schema": 999})
        with pytest.raises(ValueError):
            obs.validate_record({"type": "span", "name": "x"})
        with pytest.raises(ValueError):
            obs.validate_record({"type": "wat"})
        good = {
            "type": "span", "name": "x", "id": 1, "parent": None, "depth": 0,
            "thread": 1, "t_start": 0.0, "seconds": 0.1, "status": "ok",
            "attrs": {},
        }
        obs.validate_record(good)  # no raise
        bad = dict(good, status="maybe")
        with pytest.raises(ValueError):
            obs.validate_record(bad)

    def test_jsonl_lines_are_valid_json(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with obs.trace_to(path):
            with obs.span("x"):
                pass
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 2  # meta + one span
        for line in lines:
            json.loads(line)


class TestMetrics:
    def test_registry_isolation(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        with obs.use_metrics(a):
            obs.inc("hits", 2)
        with obs.use_metrics(b):
            obs.inc("hits", 5)
        assert a.counter("hits") == 2
        assert b.counter("hits") == 5

    def test_disabled_helpers_are_noops(self):
        obs.inc("ghost", 100)
        obs.set_gauge("ghost", 1.0)
        obs.observe("ghost", 0.5)
        with obs.timed("ghost"):
            pass
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            pass
        assert registry.snapshot() == {"counters": {}, "gauges": {},
                                       "timers": {}}

    def test_counters_gauges_timers(self):
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            obs.inc("c")
            obs.inc("c", 4)
            obs.set_gauge("g", 2.5)
            with obs.timed("t"):
                pass
            obs.observe("t", 0.25)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        assert snap["timers"]["t"]["count"] == 2
        assert snap["timers"]["t"]["max"] >= 0.25
        assert "c" in registry.render()

    def test_use_metrics_restores_previous(self):
        outer = obs.MetricsRegistry()
        inner = obs.MetricsRegistry()
        with obs.use_metrics(outer):
            with obs.use_metrics(inner):
                obs.inc("x")
            obs.inc("x")
            assert obs.current_metrics() is outer
        assert inner.counter("x") == 1
        assert outer.counter("x") == 1

    def test_default_registry_enable_disable(self):
        registry = obs.enable_metrics()
        try:
            assert obs.current_metrics() is registry
            assert obs.default_registry() is registry
        finally:
            obs.disable_metrics()
        assert obs.current_metrics() is None


class TestPipelineInstrumentation:
    def test_coarsen_spans_cover_all_stages(self):
        g = random_graph(120, 600, seed=3)
        result, records = traced(lambda: coarsen_influence_graph(g, r=4, rng=0))
        for record in records:
            obs.validate_record(record)
        agg = aggregate_spans(records, COARSEN_STAGES)
        assert set(agg) == set(COARSEN_STAGES)
        assert agg["sample"]["count"] == 4
        assert agg["scc"]["count"] == 4
        assert agg["meet"]["count"] == 4
        assert agg["contract"]["count"] == 1
        # stage spans nest under the top-level coarsen span
        top = next(r for r in records if r.get("name") == "coarsen_linear")
        assert top["depth"] == 0

    def test_coarsen_stats_stage_times_sum_to_total(self):
        g = random_graph(400, 2500, seed=5)
        result = coarsen_influence_graph(g, r=8, rng=0)
        stats = result.stats
        assert set(stats.stage_seconds) == set(COARSEN_STAGES)
        assert all(v >= 0 for v in stats.stage_seconds.values())
        total_staged = sum(stats.stage_seconds.values())
        # stages live inside the two timed phases, so their sum is bounded
        # above by the total and accounts for (nearly) all of it
        assert total_staged <= stats.total_seconds + 1e-6
        assert total_staged >= 0.5 * stats.total_seconds
        assert stats.stage_summary().startswith("stages: ")

    @pytest.mark.parallel
    def test_parallel_thread_executor_traces_are_valid(self):
        g = random_graph(80, 400, seed=7)
        result, records = traced(
            lambda: coarsen_influence_graph(g, r=4, workers=2, rng=0)
        )
        for record in records:
            obs.validate_record(record)
        names = {r["name"] for r in records if r["type"] == "span"}
        assert "coarsen_parallel" in names
        assert "robust_scc_partition" in names  # emitted by worker threads
        assert result.stats.stage_seconds.get("contract", 0) >= 0

    @pytest.mark.parallel
    def test_parallel_stage_seconds_cover_every_stage(self):
        # The workers' sample/scc/meet times reach Algorithm 6's stats,
        # merged from one StageTimes per worker.
        g = random_graph(400, 2500, seed=5)
        stats = coarsen_influence_graph(g, r=8, workers=2, rng=0).stats
        assert set(stats.stage_seconds) == set(COARSEN_STAGES)
        assert all(v >= 0 for v in stats.stage_seconds.values())

    def test_metrics_counters_from_coarsen(self):
        g = random_graph(60, 250, seed=1)
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            coarsen_influence_graph(g, r=3, rng=0)
        assert registry.counter("coarsen.runs") == 1
        assert registry.counter("coarsen.samples") == 3
        assert registry.counter("scc.runs") == 3
        assert registry.counter("sample.live_edge_graphs") == 3
        assert registry.counter("partition.meets") == 3

    def test_disabled_instrumentation_identical_results(self):
        g = random_graph(100, 500, seed=9)
        plain = coarsen_influence_graph(g, r=5, rng=42)
        traced_result, _ = traced(lambda: coarsen_influence_graph(g, r=5, rng=42))
        assert np.array_equal(plain.pi, traced_result.pi)
        assert plain.partition == traced_result.partition


class TestBenchConsumption:
    def test_run_traced_returns_result_and_spans(self):
        g = random_graph(50, 200, seed=2)
        result, records = run_traced(lambda: coarsen_influence_graph(g, r=2, rng=0))
        assert result.coarse.n <= g.n
        assert any(r.get("name") == "coarsen_linear" for r in records)

    def test_stage_table_renders_all_stages(self):
        g = random_graph(50, 200, seed=2)
        _, records = run_traced(lambda: coarsen_influence_graph(g, r=2, rng=0))
        agg = aggregate_spans(records, COARSEN_STAGES)
        table = render_stage_table("stage times", [("r=2", agg)])
        for stage in COARSEN_STAGES:
            assert stage in table
        assert "r=2" in table
        assert "total" in table


class TestCliObservability:
    def _write_graph(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "g.txt"
        with open(path, "w") as handle:
            for _ in range(400):
                u, v = rng.integers(0, 60, 2)
                if u != v:
                    handle.write(f"{u} {v} {rng.uniform(0.1, 0.9):.3f}\n")
        return str(path)

    def test_cli_trace_flag_writes_schema_valid_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        graph = self._write_graph(tmp_path)
        trace = str(tmp_path / "out.jsonl")
        assert main(["coarsen", graph, "-r", "4", "--trace", trace]) == 0
        records = obs.read_trace(trace)  # schema validation built in
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"sample", "scc", "meet", "contract"} <= names
        # nested: stage spans sit below the top-level pipeline span
        depths = {r["name"]: r["depth"] for r in records if r["type"] == "span"}
        assert depths["contract"] > depths["coarsen_linear"]
        assert "trace ->" in capsys.readouterr().out

    def test_cli_metrics_flag_prints_report(self, tmp_path, capsys):
        from repro.cli import main

        graph = self._write_graph(tmp_path)
        assert main(["coarsen", graph, "-r", "2", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "coarsen.runs" in out
        assert "stages: " in out  # per-stage breakdown line

    def test_cli_help_mentions_obs_flags(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["coarsen", "--help"])
        out = capsys.readouterr().out
        assert "--trace" in out
        assert "--metrics" in out
