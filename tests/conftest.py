"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.graph import GraphBuilder, InfluenceGraph


def build_graph(n: int, edges: list[tuple[int, int, float]]) -> InfluenceGraph:
    """Build a graph from an explicit edge list (test convenience)."""
    builder = GraphBuilder(n=n)
    for u, v, p in edges:
        builder.add_edge(u, v, p)
    return builder.build()


def random_graph(
    n: int, m: int, seed: int, p_low: float = 0.05, p_high: float = 0.9
) -> InfluenceGraph:
    """A random simple digraph with uniform random probabilities."""
    rng = np.random.default_rng(seed)
    tails = rng.integers(0, n, size=3 * m)
    heads = rng.integers(0, n, size=3 * m)
    probs = rng.uniform(p_low, p_high, size=3 * m)
    builder = GraphBuilder(n=n, combine_duplicates=True)
    builder.add_edges(tails, heads, probs)
    graph = builder.build()
    if graph.m > m:  # trim deterministically to ~m edges
        keep = np.zeros(graph.m, dtype=bool)
        keep[rng.choice(graph.m, size=m, replace=False)] = True
        t, h, p = graph.edge_arrays()
        graph = InfluenceGraph.from_edges(n, t[keep], h[keep], p[keep])
    return graph


@pytest.fixture
def paper_graph() -> InfluenceGraph:
    """The 9-vertex influence graph of Figure 1.

    Vertices are 0-indexed (paper's v1..v9 -> 0..8).  Probabilities follow
    the paper's worked example where the text states them: the two C1 -> v4
    edges have p = 0.3 and 0.2, so ``q(c1, c2) = 0.44`` (Example 4.2).  The
    remaining labels are not given in the text, so C1's internal edges carry
    0.6/0.7/0.8/0.9 — for which ``Rel(G[C1]) = 0.432`` exactly (asserted as
    a regression anchor in test_theorems).
    """
    edges = [
        (0, 1, 0.6), (1, 0, 0.7), (1, 2, 0.8), (2, 0, 0.9),
        (1, 3, 0.3), (2, 3, 0.2),
        (3, 4, 0.4), (4, 5, 0.5), (5, 4, 0.6),
        (5, 6, 0.3), (6, 7, 0.2), (7, 8, 0.4), (8, 7, 0.5),
    ]
    return build_graph(9, edges)


@pytest.fixture
def paper_partition_blocks() -> list[list[int]]:
    """The coarsened partition of Example 4.2: {C1..C5}."""
    return [[0, 1, 2], [3], [4, 5], [6], [7, 8]]


@pytest.fixture(autouse=True)
def _lock_sanitizer(request):
    """Run every threaded suite under the runtime lock sanitizer.

    Tests marked ``parallel``, ``dynamic``, ``shard`` or ``sketch``
    exercise the serving layer concurrently; the sanitizer
    (:mod:`repro.sanitize`) records their actual lock-acquisition orders
    and fails the test on an inversion, self-deadlock, or
    publish-while-holding-pool/cache-lock.  (Shard workers additionally
    install their own sanitizer when the parent has one — see
    :mod:`repro.serve.shard`.)  ``REPRO_SANITIZE=1`` sanitizes every
    selected test, marked or not; ``REPRO_SANITIZE=0`` opts out (e.g.
    while bisecting an unrelated failure).  The sanitizer's own
    self-tests (marked ``sanitizer``) manage their own instance.
    """
    setting = os.environ.get("REPRO_SANITIZE")
    threaded = setting == "1" or any(
        request.node.get_closest_marker(mark) is not None
        for mark in ("parallel", "dynamic", "shard", "sketch"))
    selftest = request.node.get_closest_marker("sanitizer") is not None
    if not threaded or setting == "0" or selftest:
        yield
        return
    from repro.sanitize import (
        current_sanitizer,
        install_sanitizer,
        uninstall_sanitizer,
    )
    if current_sanitizer() is not None:  # a self-test already installed one
        yield
        return
    sanitizer = install_sanitizer()
    try:
        yield
        sanitizer.assert_clean()
    finally:
        uninstall_sanitizer(sanitizer)


@pytest.fixture
def two_cliques_graph() -> InfluenceGraph:
    """Two high-probability 4-cliques joined by one weak bridge.

    Both cliques coarsen to single vertices at moderate r; the bridge
    survives as a coarse edge.
    """
    builder = GraphBuilder(n=8)
    for base in (0, 4):
        for i in range(4):
            for j in range(4):
                if i != j:
                    builder.add_edge(base + i, base + j, 0.98)
    builder.add_edge(1, 5, 0.2)
    return builder.build()
