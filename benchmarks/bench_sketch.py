"""The sketch oracle — point-query throughput vs pooled RIS, accuracy vs k.

The estimator registry's ``"sketch"`` family answers influence queries from
a precomputed bottom-k oracle (:class:`repro.sketch.InfluenceOracle`)
instead of scoring an RR pool per query.  This bench quantifies the trade:

* **throughput** — point queries (single-vertex seed sets) on one coarse
  model: the pooled-RIS estimator re-scores its coverage index per query
  (O(n_samples) each), the oracle answers the whole workload as one
  gather off its precomputed estimates (:meth:`InfluenceOracle.points`).
  Target: 100-1000x QPS.
* **build cost** — the oracle's construction time on the throughput
  model (``throughput.oracle.build_seconds``), informational: no gate.
* **build memory** — the tracemalloc peak of one oracle build
  (``build_traced_peak_mb``) beside the bytes the oracle keeps
  (``oracle_mb``), on the throughput model and for every ``k`` of the
  accuracy sweep.  Each is measured in a build of its own, never in a
  timed one (tracemalloc slows the interpreter).
* **accuracy vs k** — on a small graph where complete sketches are
  affordable, every ``k`` in the sweep is compared against the *exact*
  live-edge influence (an oracle whose sketches never truncate), pinning
  the Chebyshev envelope ``sketch_eps(k, delta)`` the registry advertises.

Acceptance (asserted whenever artefacts are written): sketch-oracle QPS
>= 100x pooled-RIS QPS on point queries — reported with an honest
``asserted``/``skip_reason`` pair when the gate cannot be measured (quick
mode, or sketch timing below timer resolution).  The equality,
accuracy and memory assertions are ALWAYS on, in both modes: served
answers equal direct oracle answers bit-for-bit, the served guarantee
report's rho and eps equal a sequential ``guarantee_report`` of the same
model, each sweep point keeps at least ``1 - delta`` of vertices inside
its advertised envelope, and the throughput model's build peak stays
within ``BUILD_PEAK_MULTIPLE`` (``tests/test_sketch.py``) times the
oracle's bytes plus the union reverse CSR's.  Results land
in ``benchmarks/results/sketch.json`` and the repo-root
``BENCH_sketch.json``.

CI runs ``python benchmarks/bench_sketch.py --quick`` as a correctness
canary: a small graph, every equality/accuracy/memory assertion, no
timing gates and no files written.  The recorded artefacts carry a
``host`` block (cores, commit, Python and numpy versions).
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

import numpy as np

from repro.analysis import guarantee_report
from repro.bench import render_table, save_json
from repro.bench.memory import measure
from repro.core import coarsen_influence_graph
from repro.diffusion.reachability import reachable_mask
from repro.graph import InfluenceGraph
from repro.rng import ensure_rng
from repro.serve import InfluenceService, SamplePool, ServiceConfig
from repro.sketch import InfluenceOracle, round_masks, sketch_eps

from bench_ablation_scc import generated_graph
from conftest import results_path, run_once

R = 8
DELTA = 0.05
SKETCH_K = 64
N_SAMPLES = 4_000
POINT_QUERIES = 200
GRAPH_N, GRAPH_M = 10_000, 50_000
QUICK_N, QUICK_M = 2_000, 8_000
QUICK_QUERIES = 40
SWEEP_KS = (8, 16, 32, 64, 128)
SWEEP_N, SWEEP_M = 600, 3_000
CORE_N = 24
QPS_GATE = 100.0

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         os.pardir))
ROOT_JSON = os.path.join(REPO_ROOT, "BENCH_sketch.json")


def _host() -> dict:
    """Where the record was made: cores, commit and library versions."""
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=12"],
        cwd=REPO_ROOT, capture_output=True, text=True).stdout.strip()
    return {"cores": os.cpu_count(), "commit": commit or None,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def _build_memory(coarse, k: int) -> dict:
    """Traced peak of one oracle build and the bytes the oracle keeps.

    The union reverse CSR's bytes (``8 * (r * n + 1 + union_edges)``)
    are the other array the build must hold; the memory bound is stated
    against the two together.
    """
    run = measure(InfluenceOracle, coarse, r=R, k=k, rng=0)
    oracle = run.result
    csr_bytes = 8 * (oracle.stats.items + 1 + oracle.stats.union_edges)
    return {"build_traced_peak_mb": run.peak_mb,
            "oracle_mb": oracle.nbytes / 2**20,
            "union_csr_mb": csr_bytes / 2**20,
            "peak_multiple": run.peak_bytes / (oracle.nbytes + csr_bytes)}


def _point_vertices(n: int, count: int) -> list[int]:
    """Deterministic fine-graph vertices spread across [0, n)."""
    return [(31 * i + 7) % n for i in range(count)]


def _exact_point_values(coarse, entropy: int, targets: list[int]) -> np.ndarray:
    """``(1/r) sum_i w(R_i(v))`` per target, at the oracle's own rounds.

    This is the quantity the oracle sketches — reconstructed exactly from
    the shared keep-masks, so the accuracy assertion isolates *sketch*
    error from the coarsening's finite-r sampling error (which an
    independent RIS estimate of the true influence would fold in).
    """
    keep = round_masks(coarse, entropy, R)
    tails, heads = coarse.tails(), coarse.heads
    weights = coarse.weights.astype(np.float64)
    totals = np.zeros(len(targets))
    for i in range(R):
        t, h = tails[keep[i]], heads[keep[i]]
        order = np.argsort(t, kind="stable")
        indptr = np.zeros(coarse.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(t, minlength=coarse.n), out=indptr[1:])
        sorted_heads = h[order]
        for j, c in enumerate(targets):
            mask = reachable_mask(indptr, sorted_heads, np.asarray([c]))
            totals[j] += weights[mask].sum()
    return totals / R


def _throughput(graph, queries: int) -> dict:
    """Point-query QPS: pooled RIS vs the sketch oracle, one coarse model.

    Both paths answer the same quantity — the coarse influence of one
    coarse vertex — with all preprocessing (coarsening, pool drawing,
    sketch building) outside the timed region.
    """
    result = coarsen_influence_graph(graph, r=R, rng=0)
    coarse = result.coarse
    targets = [int(result.pi[v]) for v in _point_vertices(graph.n, queries)]

    pool = SamplePool(coarse, rng=0)
    pool.ensure(N_SAMPLES)
    estimator = pool.estimator(N_SAMPLES)
    t0 = time.perf_counter()
    ris_values = [estimator.estimate(coarse, np.asarray([c]))
                  for c in targets]
    ris_seconds = time.perf_counter() - t0

    # The oracle's batch face answers the whole point-query workload as
    # one gather; repeat it so the timed region is well above timer
    # resolution.
    t0 = time.perf_counter()
    oracle = InfluenceOracle(coarse, r=R, k=SKETCH_K, rng=0)
    build_seconds = time.perf_counter() - t0
    batch = np.asarray(targets, dtype=np.int64)
    reps = 50
    t0 = time.perf_counter()
    for _ in range(reps):
        sketch_batch = oracle.points(batch)
    sketch_seconds = (time.perf_counter() - t0) / reps
    sketch_values = [float(v) for v in sketch_batch]
    # The batch face is exactly the per-call face, vectorized.
    assert sketch_values == [oracle.point(c) for c in targets]
    memory = _build_memory(coarse, SKETCH_K)
    # Always on: the build's transient memory stays a bounded multiple of
    # what it keeps, the bound tests/test_sketch.py pins.
    assert memory["peak_multiple"] <= _peak_multiple_bound(), memory

    # Accuracy (always on): every sketch answer sits in the advertised
    # Chebyshev envelope of the exact realised-rounds influence, up to
    # the delta fraction the guarantee concedes.  (RIS is NOT the
    # reference here — it estimates the true influence, which differs
    # from the r-round empirical one by coarsening sampling error.)
    exact = _exact_point_values(coarse, oracle.entropy, targets)
    rel = np.abs(np.asarray(sketch_values) - exact) / exact
    eps = oracle.eps(DELTA)
    assert float(np.mean(rel > eps)) <= DELTA, float(np.mean(rel > eps))

    # Informational gap vs RIS over queries RIS resolved to a non-zero
    # estimate (a pool can miss a low-influence vertex entirely).
    ris_arr = np.asarray(ris_values)
    resolved = ris_arr > 0
    ris_gap = float(np.mean(
        np.abs(np.asarray(sketch_values)[resolved] - ris_arr[resolved])
        / ris_arr[resolved]))

    return {
        "queries": queries,
        "seconds": {"pooled_ris": ris_seconds, "sketch": sketch_seconds},
        "queries_per_second": {
            "pooled_ris": queries / ris_seconds if ris_seconds > 0 else None,
            "sketch": queries / sketch_seconds if sketch_seconds > 0 else None,
        },
        "oracle": {"k": SKETCH_K, "r": R, "nbytes": oracle.nbytes,
                   "eps": eps, "coarse_n": coarse.n,
                   "build_seconds": build_seconds, **memory},
        "accuracy": {
            "mean_rel_error_vs_exact": float(rel.mean()),
            "max_rel_error_vs_exact": float(rel.max()),
            "frac_outside_envelope": float(np.mean(rel > eps)),
            # Informational: folds in the finite-r coarsening error, so
            # it is not gated.
            "mean_rel_gap_vs_pooled_ris": ris_gap,
        },
    }


def _peak_multiple_bound() -> float:
    """``BUILD_PEAK_MULTIPLE`` from ``tests/test_sketch.py`` (one bound for
    the test and this canary; the repo root is put on ``sys.path``)."""
    if REPO_ROOT not in sys.path:
        sys.path.insert(0, REPO_ROOT)
    from tests.test_sketch import BUILD_PEAK_MULTIPLE

    return BUILD_PEAK_MULTIPLE


def _with_dense_core(graph):
    """``graph`` with its first ``CORE_N`` vertices wired into a dense core
    (p in [0.1, 0.25]) that the coarsening merges: its guarantee report
    then estimates a reliability strictly inside (0, 1) by Monte Carlo."""
    tails, heads, probs = graph.edge_arrays()
    outside = (tails >= CORE_N) | (heads >= CORE_N)
    core_tails, core_heads = np.nonzero(~np.eye(CORE_N, dtype=bool))
    core_probs = ensure_rng(1).uniform(0.1, 0.25, core_tails.size)
    return InfluenceGraph.from_edges(
        graph.n, np.concatenate([tails[outside], core_tails]),
        np.concatenate([heads[outside], core_heads]),
        np.concatenate([probs[outside], core_probs]))


def _serving_equality(graph) -> bool:
    """Served ``estimator='sketch'`` answers == direct oracle answers, and
    the served guarantee report (stated beside the oracle build) has the
    rho and eps of a sequential ``guarantee_report`` of the same model."""
    config = ServiceConfig(r=R, seed=0, estimator="sketch",
                           sketch_k=SKETCH_K, sketch_delta=DELTA)
    seed_sets = [[0], [1, 2], [3, 4, 5]]
    with InfluenceService(config) as svc:
        served = [svc.estimate(graph, seeds) for seeds in seed_sets]
        model = svc.model_for(graph)
    oracle = InfluenceOracle(model.coarse, r=R, k=SKETCH_K,
                             rng=ensure_rng(config.seed))
    for seeds, result in zip(seed_sets, served):
        mapped = np.unique(model.pi[np.asarray(seeds)])
        assert result.value == oracle.estimate(model.coarse, mapped), seeds
    sequential = guarantee_report(
        graph, model, estimation_eps=min(1.0, sketch_eps(SKETCH_K, DELTA)),
        n_samples=config.report_samples, rng=ensure_rng(config.seed))
    for result in served:
        assert result.report.reliability_product \
            == sequential.reliability_product
        assert result.report.estimation_eps == sequential.estimation_eps
    print(f"served report: rho = {sequential.reliability_product:.4f} over "
          f"{sequential.non_singleton_blocks} merged blocks")
    return True


def _accuracy_sweep() -> list[dict]:
    """Per-k error of every point estimate against the exact influence.

    The reference oracle's ``k`` exceeds the total item count ``r * n``,
    so its sketches are complete and its answers are the exact live-edge
    influence at the shared entropy (``rng=0`` derives the same entropy
    for every k, so all sweep points see the same realised rounds).
    """
    graph = generated_graph(SWEEP_N, SWEEP_M)
    coarse = coarsen_influence_graph(graph, r=R, rng=0).coarse
    exact = InfluenceOracle(coarse, r=R, k=R * coarse.n + 1,
                            rng=0).point_estimates
    rows = []
    for k in SWEEP_KS:
        oracle = InfluenceOracle(coarse, r=R, k=k, rng=0)
        rel = np.abs(oracle.point_estimates - exact) / exact
        eps = sketch_eps(k, DELTA)
        outside = float(np.mean(rel > eps))
        # Always on: the Chebyshev guarantee — at most a delta fraction of
        # vertices may fall outside the advertised envelope.
        assert outside <= DELTA, (k, outside)
        rows.append({
            "k": k,
            "advertised_eps": eps,
            "mean_rel_error": float(rel.mean()),
            "max_rel_error": float(rel.max()),
            "frac_outside_envelope": outside,
            "sketch_nbytes": oracle.nbytes,
            **_build_memory(coarse, k),
        })
    # More budget, less error: the sweep endpoints must order correctly.
    assert rows[-1]["mean_rel_error"] <= rows[0]["mean_rel_error"], rows
    return rows


def generate(quick: bool = False) -> dict:
    n, m = (QUICK_N, QUICK_M) if quick else (GRAPH_N, GRAPH_M)
    queries = QUICK_QUERIES if quick else POINT_QUERIES
    graph = generated_graph(n, m)

    throughput = _throughput(graph, queries)
    serving_ok = _serving_equality(_with_dense_core(graph))
    sweep = _accuracy_sweep()

    qps = throughput["queries_per_second"]
    speedup = (qps["sketch"] / qps["pooled_ris"]
               if qps["sketch"] and qps["pooled_ris"] else None)
    if quick:
        asserted, skip_reason = False, "quick mode: timing gates skipped"
    elif speedup is None:
        asserted, skip_reason = (
            False, "sketch timing below timer resolution; gate unmeasurable")
    else:
        assert speedup >= QPS_GATE, f"sketch speedup {speedup:.1f}x < gate"
        asserted, skip_reason = True, None

    raw = {
        "schema": "bench_sketch/v2",
        "host": _host(),
        "graph": {"n": graph.n, "m": graph.m},
        "r": R,
        "n_samples": N_SAMPLES,
        "throughput": throughput,
        "speedup_vs_pooled_ris": speedup,
        "gate": {"target": QPS_GATE, "measured": speedup,
                 "asserted": asserted, "skip_reason": skip_reason},
        "serving_matches_oracle": serving_ok,
        "accuracy_vs_k": sweep,
    }

    tiers = [["pooled_ris", f"{qps['pooled_ris']:.1f}" if qps["pooled_ris"]
              else "-", "1.0x"],
             ["sketch", f"{qps['sketch']:.1f}" if qps["sketch"] else "-",
              f"{speedup:.1f}x" if speedup else "-"]]
    print(render_table(
        f"Sketch oracle: {queries} point queries "
        f"(n={graph.n:,}, m={graph.m:,}, r={R}, k={SKETCH_K}, "
        f"{N_SAMPLES} RR sets)",
        ["backend", "queries/s", "speedup"], tiers))
    print(render_table(
        f"Accuracy vs k (n={SWEEP_N}, m={SWEEP_M}, delta={DELTA})",
        ["k", "advertised eps", "mean rel err", "max rel err", "outside",
         "build peak MB", "oracle MB"],
        [[str(row["k"]), f"{row['advertised_eps']:.3f}",
          f"{row['mean_rel_error']:.4f}", f"{row['max_rel_error']:.4f}",
          f"{row['frac_outside_envelope']:.3f}",
          f"{row['build_traced_peak_mb']:.2f}",
          f"{row['oracle_mb']:.2f}"] for row in sweep]))
    built = throughput["oracle"]
    print(f"oracle build (coarse n={built['coarse_n']:,}): "
          f"{built['build_seconds']:.3f} s, traced peak "
          f"{built['build_traced_peak_mb']:.1f} MB for a "
          f"{built['oracle_mb']:.1f} MB oracle "
          f"({built['peak_multiple']:.2f}x oracle + union CSR, bound "
          f"{_peak_multiple_bound()}x)")
    print(f"served == direct oracle and served report == sequential "
          f"report (bit-for-bit): {serving_ok}; "
          f"QPS gate asserted: {asserted}"
          + (f" ({skip_reason})" if skip_reason else ""))

    if not quick:
        save_json(raw, results_path("sketch.json"))
        save_json(raw, ROOT_JSON)
    return raw


def bench_sketch(benchmark):
    raw = run_once(benchmark, lambda: generate(quick=True))
    assert raw["schema"] == "bench_sketch/v2"
    assert raw["serving_matches_oracle"]
    assert all(row["frac_outside_envelope"] <= DELTA
               for row in raw["accuracy_vs_k"])


if __name__ == "__main__":
    generate(quick="--quick" in sys.argv)
