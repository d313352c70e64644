"""Live-graph serving — sustained edge churn against a warm model.

PR 6's tentpole scenario: a served influence graph mutates in place
(Appendix C.2 / Algorithm 7) instead of being re-coarsened per edit.
This bench drives a :class:`repro.serve.DynamicModel` through a mixed
read/write workload and quantifies the three things that matter for a
live deployment:

* **update latency** — per-delta time through ``apply_deltas`` (the
  ``/apply_deltas`` endpoint's batch path) and through single-delta
  epochs (``/insert_edge`` / ``/delete_edge``), against the naive
  baseline of cold-rebuilding the coarsening after every delta;
* **sustained updates/sec** — the write throughput of the lineage while
  estimate queries keep landing between batches;
* **query latency under churn** — p50/p99 of estimates interleaved with
  the writes (each coarse-changing epoch invalidates the shared pool
  prefix, so queries pay the redraw — the honest serving cost).

Acceptance (asserted when writing artefacts): batched per-delta update
latency must beat cold-rebuild-per-delta by >= 50x, and the maintained
model must be bit-for-bit the cold :func:`repro.core.coarsen_addressable`
of the final mutated graph, and each of the mixed tier's batches applied
as one ``apply_deltas`` must reach the model (``H`` digest, ``pi``) and
the coin counts that the same deltas reach one by one (both checked in
every mode).  Results land in
``benchmarks/results/serve_dynamic.json`` and the repo-root
``BENCH_dynamic.json``.

CI runs ``python benchmarks/bench_serve_dynamic.py --quick`` as a
correctness canary: a small graph, the equivalence assertions, no timing
gates and no files written.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from repro.bench import render_table, save_json
from repro.core import coarsen_addressable
from repro.core.dynamic import Delta, DynamicCoarsener
from repro.rng import ensure_rng
from repro.serve import InfluenceService, ServiceConfig

from bench_ablation_scc import generated_graph
from conftest import results_path, run_once

R = 16
SEED = 7
N_SAMPLES = 128
GRAPH_N, GRAPH_M = 100_000, 200_000
BATCH, N_BATCHES, N_SINGLES, N_QUERIES = 8, 10, 20, 6
QUICK_N, QUICK_M = 2_000, 8_000
QUICK_BATCHES, QUICK_SINGLES, QUICK_QUERIES = 2, 5, 2

ROOT_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                         "BENCH_dynamic.json")


class _Churn:
    """A deterministic mixed insert/delete stream over a live model."""

    def __init__(self, dyn, n: int, seed: int = 11) -> None:
        self._dyn = dyn
        self._n = n
        self._rng = ensure_rng(seed)
        self._inserted: list[tuple[int, int]] = []

    def batch(self, size: int) -> list[Delta]:
        deltas: list[Delta] = []
        pending: set[tuple[int, int]] = set()
        while len(deltas) < size:
            if self._inserted and self._rng.random() < 0.4:
                u, v = self._inserted.pop()
                if (u, v) in pending:  # already touched in this batch
                    self._inserted.append((u, v))
                    continue
                deltas.append(Delta("delete", u, v))
            else:
                u = int(self._rng.integers(self._n))
                v = int(self._rng.integers(self._n))
                if (u == v or (u, v) in pending
                        or self._dyn._coarsener.has_edge(u, v)):
                    continue
                p = float(self._rng.uniform(0.05, 0.35))
                deltas.append(Delta("insert", u, v, p))
                self._inserted.append((u, v))
            pending.add((u, v))
        return deltas


def batch_equals_sequential(graph, batches: list[list[Delta]]) -> bool:
    """Each batch as one ``apply_deltas`` against the same deltas one by one.

    Graph, ``H`` digest and ``pi`` must agree, and so must every count the
    two orders share: insertions, deletions, coin-flip skips
    (``scc_skipped - scc_pruned``) and materialised hits (``scc_pruned +
    scc_recomputations``).  How the hits split into pruned and recomputed,
    and so the rebuild and fast-update counts, may differ: a batch defers
    and merges its samples' recomputations.
    """
    twins = [DynamicCoarsener(graph, r=R, rng=SEED, coins="addressable")
             for _ in range(2)]
    for deltas in batches:
        twins[0].apply_deltas(deltas)
        for delta in deltas:
            twins[1].apply_deltas([delta])

    def shared(dyn) -> tuple:
        s, snap = dyn.stats, dyn.snapshot()
        return (dyn.current_graph().digest(), snap.coarse.digest(),
                snap.pi.tobytes(), s.insertions, s.deletions,
                s.scc_skipped - s.scc_pruned,
                s.scc_pruned + s.scc_recomputations)

    return shared(twins[0]) == shared(twins[1])


def generate(quick: bool = False) -> dict:
    n, m = (QUICK_N, QUICK_M) if quick else (GRAPH_N, GRAPH_M)
    n_batches = QUICK_BATCHES if quick else N_BATCHES
    n_singles = QUICK_SINGLES if quick else N_SINGLES
    n_queries = QUICK_QUERIES if quick else N_QUERIES
    graph = generated_graph(n, m)

    # Baseline: what every delta would cost if the service re-coarsened
    # from scratch (the pre-PR-6 pipeline for a mutated graph).  Sampled
    # three times, interleaved with the dynamic tiers below, because this
    # box's effective CPU speed is bursty — medians on both sides keep
    # the speedup ratio honest when a burst lands mid-run.
    def cold_rebuild_seconds() -> float:
        t0 = time.perf_counter()
        coarsen_addressable(graph, r=R, seed=SEED)
        return time.perf_counter() - t0

    cold_samples = [cold_rebuild_seconds()]

    config = ServiceConfig(r=R, seed=SEED, sampler="addressable",
                           n_samples=N_SAMPLES,
                           min_samples=min(64, N_SAMPLES))
    with InfluenceService(config) as service:
        t0 = time.perf_counter()
        dyn = service.attach_dynamic(graph)
        attach_s = time.perf_counter() - t0
        churn = _Churn(dyn, graph.n)

        # Tier 1 — single-delta epochs (the /insert_edge | /delete_edge
        # path: one delta, one epoch, one publish).
        single_lat = []
        for _ in range(n_singles):
            (delta,) = churn.batch(1)
            t0 = time.perf_counter()
            out = dyn.apply_deltas([delta])
            single_lat.append(time.perf_counter() - t0)
            assert out["applied"] == 1 and not out["rebuilt"], out
        cold_samples.append(cold_rebuild_seconds())

        # Tier 2 — mixed read/write: delta batches (the /apply_deltas
        # path) racing estimate queries on the epochs they publish.
        batch_lat, query_lat = [], []
        batches: list[list[Delta]] = []
        mixed_start = dyn.graph
        deltas_applied = 0
        for i in range(n_batches):
            deltas = churn.batch(BATCH)
            batches.append(deltas)
            t0 = time.perf_counter()
            dyn.apply_deltas(deltas)
            batch_lat.append(time.perf_counter() - t0)
            deltas_applied += len(deltas)
            if i * n_queries // n_batches != (i + 1) * n_queries // n_batches:
                seeds = [int(s) % graph.n for s in (7 * i + 1, 13 * i + 2)]
                t0 = time.perf_counter()
                epoch, _ = dyn.estimate(seeds)
                query_lat.append(time.perf_counter() - t0)
                assert epoch == dyn.epoch
        cold_samples.append(cold_rebuild_seconds())

        # The acceptance invariant of the whole lineage: the maintained
        # model IS the cold coarsening of the mutated graph, bit for bit.
        cold_end = coarsen_addressable(dyn.graph, r=R, seed=SEED)
        equivalent = (
            dyn.model.coarse.digest() == cold_end.coarse.digest()
            and np.array_equal(dyn.model.pi, cold_end.pi)
        )
        assert equivalent, "dynamic model diverged from cold rebuild"
        stats = dyn._coarsener.stats
    batched_equals = batch_equals_sequential(mixed_start, batches)
    assert batched_equals, "a batch diverged from its deltas one by one"

    single = np.array(single_lat)
    batched = np.array(batch_lat)
    cold_s = float(np.median(cold_samples))
    # Medians, for the same bursty-box reason as the cold baseline: one
    # descheduled epoch should not decide the headline ratio.
    single_md = float(np.median(single))
    per_delta = float(np.median(batched)) / BATCH
    pruned_pct = 100 * stats.scc_skipped / max(
        stats.scc_skipped + stats.scc_recomputations, 1)
    raw = {
        "schema": "bench_serve_dynamic/v1",
        "graph": {"n": graph.n, "m": graph.m},
        "r": R,
        "updates": {"singles": n_singles,
                    "batches": n_batches, "batch_size": BATCH},
        "cold_rebuild_per_delta_ms": cold_s * 1e3,
        "cold_rebuild_samples_ms": [s * 1e3 for s in cold_samples],
        "attach_seconds": float(attach_s),
        "single_delta_ms": {"median": single_md * 1e3,
                            "mean": float(single.mean() * 1e3),
                            "p99": float(np.percentile(single, 99) * 1e3)},
        "batched_per_delta_ms": per_delta * 1e3,
        "updates_per_sec_sustained": float(deltas_applied / batched.sum()),
        "speedup_vs_cold": {"single": cold_s / single_md,
                            "batched": cold_s / per_delta},
        "query_under_churn_ms": {
            "p50": float(np.percentile(query_lat, 50) * 1e3),
            "p99": float(np.percentile(query_lat, 99) * 1e3),
        },
        "scc_pruned_pct": pruned_pct,
        "full_rebuilds": stats.full_rebuilds,
        "fast_updates": stats.fast_updates,
        "dynamic_equals_cold": equivalent,
        "batch_equals_sequential": batched_equals,
    }

    print(render_table(
        f"Live-graph serving (n={graph.n:,}, m={graph.m:,}, r={R}): "
        f"{n_singles} single + {deltas_applied} batched deltas",
        ["metric", "value"],
        [
            ["cold rebuild / delta", f"{raw['cold_rebuild_per_delta_ms']:.1f} ms"],
            ["single-delta epoch (median)",
             f"{raw['single_delta_ms']['median']:.1f} ms "
             f"({raw['speedup_vs_cold']['single']:.0f}x)"],
            ["batched per-delta (B={})".format(BATCH),
             f"{raw['batched_per_delta_ms']:.1f} ms "
             f"({raw['speedup_vs_cold']['batched']:.0f}x)"],
            ["sustained updates/sec",
             f"{raw['updates_per_sec_sustained']:.0f}"],
            ["query p99 under churn",
             f"{raw['query_under_churn_ms']['p99']:.0f} ms"],
            ["SCC recomputations pruned", f"{pruned_pct:.1f}%"],
            ["full rebuilds", str(stats.full_rebuilds)],
            ["dynamic == cold rebuild", str(equivalent)],
            ["batch == one by one", str(batched_equals)],
        ],
    ))

    if not quick:
        # The acceptance gate: applying deltas to the warm model must
        # beat cold-rebuild-per-delta by >= 50x on the batch path (the
        # single-delta path is informational — it pays the full per-epoch
        # publish overhead for one edge).
        assert raw["speedup_vs_cold"]["batched"] >= 50.0, raw["speedup_vs_cold"]
        assert raw["speedup_vs_cold"]["single"] >= 5.0, raw["speedup_vs_cold"]
        save_json(raw, results_path("serve_dynamic.json"))
        save_json(raw, ROOT_JSON)
    return raw


def bench_serve_dynamic(benchmark):
    raw = run_once(benchmark, generate)
    assert raw["schema"] == "bench_serve_dynamic/v1"
    assert raw["dynamic_equals_cold"]
    assert raw["batch_equals_sequential"]
    # Even in quick mode a maintained update beats re-coarsening: it only
    # touches the samples in which the edge materialises.
    assert raw["batched_per_delta_ms"] < raw["cold_rebuild_per_delta_ms"]


if __name__ == "__main__":
    generate(quick="--quick" in sys.argv)
