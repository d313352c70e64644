"""Ablation — the SCC kernel (vectorised fwbw) against the Tarjan and
Kosaraju references, and against the semi-external streaming algorithm.

The r-robust SCC stage runs one SCC computation per sample, so the kernel
constant dominates Algorithm 1's run time.  This bench quantifies:

* raw kernel throughput — fwbw vs the two reference implementations — on
  generated graphs of increasing size (fwbw's lead grows with the graph
  because the pure-Python loops pay per edge while numpy pays per
  frontier);
* the r-robust fold — ``robust_scc_partition`` (fwbw per sample) against
  the same fold over the same samples with Tarjan per sample;
* live-edge samples of a real-workload analogue: fwbw, the references,
  and the streaming semi-external algorithm (whose value is the O(V)
  memory contract of Algorithm 2, not speed).

Every comparison first checks the partitions are identical.  Raw numbers go
to two places: the per-bench archive under ``benchmarks/results/`` and the
machine-readable perf trajectory at the repo root, ``BENCH_scc.json``
(schema documented in ``docs/performance.md``) — regenerate the latter
with::

    python benchmarks/bench_ablation_scc.py

CI runs ``python benchmarks/bench_ablation_scc.py --quick`` as a
correctness canary: small graphs, fwbw == tarjan == semi-external on
live-edge samples, and the fwbw fold equal to a Tarjan-reference fold bit
for bit.  No timing assertions and no files written.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

import numpy as np

from repro.bench import render_table, save_json
from repro.core import robust_scc_partition
from repro.datasets import load_dataset
from repro.diffusion import sample_live_edge_csr
from repro.graph import InfluenceGraph
from repro.partition import Partition
from repro.rng import ensure_rng
from repro.scc import (
    kosaraju_scc_labels,
    scc_labels,
    semi_external_scc_labels,
    tarjan_scc_labels,
)
from repro.storage import PairStore

from conftest import results_path, run_once

DATASET = "twitter-2010"
SAMPLES = 4
#: The library kernel first, then the references it is checked against.
KERNELS = {
    "fwbw": scc_labels,
    "tarjan": tarjan_scc_labels,
    "kosaraju": kosaraju_scc_labels,
}

#: (name, n, m) for the generated size sweep; the largest is the graph the
#: kernel acceptance gate reads (``generated[-1]`` in ``BENCH_scc.json``).
GENERATED_SIZES = (
    ("gen-20k-100k", 20_000, 100_000),
    ("gen-60k-300k", 60_000, 300_000),
    ("gen-120k-600k", 120_000, 600_000),
)
R_VALUES = (4, 16)
ROOT_JSON = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_scc.json")


def generated_graph(n: int, m: int, seed: int = 0) -> InfluenceGraph:
    """A synthetic SCC workload: skewed out-degrees (a dense core emerges,
    like the paper's social graphs) plus a 15% reciprocal-edge slab (the
    many small 2-cycles that make pure FW-BW decompose deeply).

    Probabilities sit in the realistic IC range [0.05, 0.35], where the
    r-robust meet fragments towards singletons as ``r`` grows — the regime
    the paper reports for real networks (99.9% singleton r-robust SCCs).
    The kernel throughput rows run on the full topology.
    """
    rng = ensure_rng(seed)
    tails = (n * rng.random(m) ** 2).astype(np.int64)
    heads = rng.integers(0, n, m, dtype=np.int64)
    k = int(m * 0.15) // 2
    tails = np.concatenate([tails, heads[:k]])
    heads = np.concatenate([heads, tails[:k]])
    keep = tails != heads
    tails, heads = tails[keep], heads[keep]
    uniq = np.unique(tails * n + heads)
    tails, heads = uniq // n, uniq % n
    probs = rng.uniform(0.05, 0.35, tails.size)
    return InfluenceGraph.from_edges(n, tails, heads, probs)


def tarjan_fold(graph: InfluenceGraph, r: int, rng=None) -> Partition:
    """The r-robust fold with Tarjan per sample, over the samples
    ``robust_scc_partition(graph, r, rng=rng)`` draws."""
    rng = ensure_rng(rng)
    partition = Partition.trivial(graph.n)
    for _ in range(r):
        indptr, heads = sample_live_edge_csr(graph, rng)
        partition = partition.meet(Partition(tarjan_scc_labels(indptr, heads)))
    return partition


def _time_best(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _rate(edges: int, seconds: float) -> float:
    return edges / seconds if seconds else float("inf")


def _kernel_sweep(graph: InfluenceGraph) -> dict:
    """Per-kernel throughput on the graph's own CSR (pure SCC, no fold)."""
    indptr, heads = graph.indptr, graph.heads
    reference = Partition(tarjan_scc_labels(indptr, heads))
    out: dict = {}
    for name, kernel in KERNELS.items():
        assert Partition(kernel(indptr, heads)) == reference, name
        seconds = _time_best(lambda k=kernel: k(indptr, heads))
        out[name] = {"wall_seconds": seconds,
                     "edges_per_sec": _rate(graph.m, seconds)}
    return out


def _folds(graph: InfluenceGraph, r: int) -> dict:
    """The r-robust fold: fwbw per sample vs Tarjan per sample.

    ``edges_per_sec`` is the aggregate fold throughput, ``r * m``
    edge-rounds over the whole fold.
    """
    out: dict = {}
    for mode, fold in (("fwbw", robust_scc_partition), ("tarjan", tarjan_fold)):
        t0 = time.perf_counter()
        partition = fold(graph, r, rng=0)
        seconds = time.perf_counter() - t0
        out[mode] = {"wall_seconds": seconds,
                     "edges_per_sec": _rate(r * graph.m, seconds),
                     "blocks": partition.n_blocks}
    assert out["fwbw"]["blocks"] == out["tarjan"]["blocks"]
    return out


def generate() -> dict:
    raw: dict = {
        "schema": "bench_scc/v3",
        "generated": [],
        "dataset": {"name": DATASET, "samples": SAMPLES, "backends": {}},
    }

    # ---- generated size sweep: kernel throughput + r-robust fold --------
    kernel_rows, fold_rows = [], []
    for name, n, m in GENERATED_SIZES:
        graph = generated_graph(n, m)
        entry = {
            "name": name,
            "n": graph.n,
            "m": graph.m,
            "kernel": _kernel_sweep(graph),
            "fold": {str(r): _folds(graph, r) for r in R_VALUES},
        }
        raw["generated"].append(entry)
        base = entry["kernel"]["tarjan"]["edges_per_sec"]
        for kernel, stats in entry["kernel"].items():
            kernel_rows.append([
                name, kernel, f"{stats['wall_seconds'] * 1e3:.1f} ms",
                f"{stats['edges_per_sec'] / 1e6:.2f} Me/s",
                f"{stats['edges_per_sec'] / base:.2f}x",
            ])
        for r in R_VALUES:
            folds = entry["fold"][str(r)]
            fold_rows.append([
                name, str(r),
                f"{folds['fwbw']['wall_seconds']:.3f} s",
                f"{folds['tarjan']['wall_seconds']:.3f} s",
                f"{folds['tarjan']['wall_seconds'] / folds['fwbw']['wall_seconds']:.2f}x",
                str(folds["fwbw"]["blocks"]),
            ])
    print(render_table(
        "Ablation: SCC kernel throughput on generated graphs "
        "(identical partitions verified; speedup vs tarjan)",
        ["graph", "kernel", "wall", "throughput", "speedup"],
        kernel_rows,
    ))
    print(render_table(
        "Ablation: r-robust fold — fwbw vs tarjan per sample, same samples "
        "(identical partitions verified)",
        ["graph", "r", "fwbw fold", "tarjan fold", "speedup", "blocks"],
        fold_rows,
    ))

    # ---- live-edge samples of a real-workload analogue ------------------
    graph = load_dataset(DATASET, "exp", seed=0)
    samples = [sample_live_edge_csr(graph, rng=i) for i in range(SAMPLES)]
    sampled_edges = sum(int(h.size) for _, h in samples)
    reference = [Partition(tarjan_scc_labels(indptr, heads))
                 for indptr, heads in samples]
    rows = []
    for name, kernel in KERNELS.items():
        t0 = time.perf_counter()
        partitions = [Partition(kernel(indptr, heads))
                      for indptr, heads in samples]
        seconds = time.perf_counter() - t0
        assert partitions == reference, name
        raw["dataset"]["backends"][name] = {
            "wall_seconds": seconds,
            "edges_per_sec": sampled_edges / seconds,
        }
        rows.append([name, f"{seconds:.3f} s"])

    with tempfile.TemporaryDirectory() as workdir:
        t0 = time.perf_counter()
        for i, (indptr, heads) in enumerate(samples):
            store = PairStore.create(os.path.join(workdir, f"{i}.pairs"),
                                     graph.n)
            tails = np.repeat(np.arange(graph.n), np.diff(indptr))
            store.append(tails, heads)
            labels = semi_external_scc_labels(store)
            assert Partition(labels) == reference[i]
        seconds = time.perf_counter() - t0
    raw["dataset"]["backends"]["semi-external"] = {
        "wall_seconds": seconds,
        "edges_per_sec": sampled_edges / seconds,
    }
    rows.append(["semi-external FB", f"{seconds:.3f} s"])

    print(render_table(
        f"Ablation: SCC routines on {SAMPLES} live-edge samples of {DATASET} "
        f"(n={graph.n:,}, m={graph.m:,}); identical partitions verified",
        ["routine", "total time"],
        rows,
    ))
    save_json(raw, results_path("ablation_scc.json"))
    save_json(raw, os.path.abspath(ROOT_JSON))
    return raw


def quick_canary() -> None:
    """CI correctness canary: fwbw must produce the same canonical
    partitions as tarjan and the semi-external algorithm on a small
    generated graph's live-edge samples, and its r-robust fold must equal
    the Tarjan-reference fold bit for bit.  No timing, no files."""
    graph = generated_graph(2_000, 10_000, seed=1)
    rng = ensure_rng(0)
    with tempfile.TemporaryDirectory() as workdir:
        for i in range(6):
            indptr, heads = sample_live_edge_csr(graph, rng)
            a = Partition(scc_labels(indptr, heads))
            assert a == Partition(tarjan_scc_labels(indptr, heads)), (
                "fwbw/tarjan partition mismatch")
            store = PairStore.create(os.path.join(workdir, f"{i}.pairs"),
                                     graph.n)
            store.append(np.repeat(np.arange(graph.n), np.diff(indptr)), heads)
            assert a == Partition(semi_external_scc_labels(store)), (
                "fwbw/semi-external partition mismatch")
    for r in (1, 8, 16):
        fold = robust_scc_partition(graph, r, rng=0)
        reference = tarjan_fold(graph, r, rng=0)
        assert np.array_equal(fold.labels, reference.labels), (
            f"fwbw fold != tarjan-reference fold at r={r}")
    print("quick canary ok: fwbw == tarjan == semi-external on samples, and "
          "the fwbw fold == the tarjan-reference fold bit for bit")


def bench_ablation_scc(benchmark):
    raw = run_once(benchmark, generate)
    backends = raw["dataset"]["backends"]
    # The streaming algorithm trades time for O(V) memory; it must still
    # land within a sane constant of the in-memory kernel.
    assert (backends["semi-external"]["wall_seconds"]
            < 60 * backends["fwbw"]["wall_seconds"])
    # The vectorised kernel must beat the interpreter loop decisively on
    # the largest generated graph.
    largest = raw["generated"][-1]
    assert (largest["kernel"]["fwbw"]["edges_per_sec"]
            >= 5 * largest["kernel"]["tarjan"]["edges_per_sec"])


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        quick_canary()
    else:
        generate()
