"""Tests for strongly connected reliability (Eq. 13/14) and Figure 8's
max-SCC-rate distribution."""

import numpy as np
import pytest

import repro.analysis.reliability as reliability_module
from repro import obs
from repro.analysis import (
    estimate_reliability,
    exact_reliability,
    max_scc_rate_samples,
    reliability_product,
)
from repro.diffusion.live_edge import sample_live_edge_csr
from repro.errors import AlgorithmError
from repro.partition import Partition
from repro.scc import scc_labels

from .conftest import build_graph


class TestExactReliability:
    def test_single_vertex_is_one(self):
        assert exact_reliability(build_graph(1, [])) == 1.0

    def test_two_cycle(self):
        g = build_graph(2, [(0, 1, 0.5), (1, 0, 0.4)])
        assert exact_reliability(g) == pytest.approx(0.2)

    def test_disconnected_is_zero(self):
        g = build_graph(3, [(0, 1, 0.9), (1, 0, 0.9)])
        assert exact_reliability(g) == 0.0

    def test_deterministic_cycle_is_one(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        assert exact_reliability(g) == pytest.approx(1.0)

    def test_triangle_by_hand(self):
        # cycle with probs a, b, c plus no redundancy: Rel = a*b*c
        g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.6), (2, 0, 0.7)])
        assert exact_reliability(g) == pytest.approx(0.5 * 0.6 * 0.7)

    def test_edge_limit_enforced(self):
        edges = [(i, (i + 1) % 24, 0.5) for i in range(24)]
        with pytest.raises(AlgorithmError):
            exact_reliability(build_graph(24, edges))


class TestEstimateReliability:
    def test_close_to_exact(self):
        g = build_graph(3, [(0, 1, 0.8), (1, 2, 0.8), (2, 0, 0.8),
                            (1, 0, 0.5), (2, 1, 0.5), (0, 2, 0.5)])
        exact = exact_reliability(g)
        est = estimate_reliability(g, n_samples=20_000, rng=0)
        assert est == pytest.approx(exact, abs=0.015)

    def test_single_vertex(self):
        assert estimate_reliability(build_graph(1, []), rng=0) == 1.0


class TestMaxSccRate:
    def test_rates_in_unit_interval(self, paper_graph):
        rates = max_scc_rate_samples(paper_graph, n_samples=200, rng=0)
        assert rates.size == 200
        assert (rates >= 1.0 / 9).all()
        assert (rates <= 1.0).all()

    def test_deterministic_cycle_always_one(self):
        g = build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
        rates = max_scc_rate_samples(g, n_samples=50, rng=0)
        assert (rates == 1.0).all()

    def test_high_probability_clique_mostly_connected(self, two_cliques_graph):
        sub = two_cliques_graph.induced_subgraph(np.arange(4))
        rates = max_scc_rate_samples(sub, n_samples=300, rng=0)
        # the 0.98 clique is strongly connected in nearly every sample
        assert np.mean(rates == 1.0) > 0.9


class TestReliabilityProduct:
    def test_all_singletons_is_one(self, paper_graph):
        assert reliability_product(paper_graph, Partition.singletons(9)) == 1.0

    def test_matches_exact_for_small_blocks(self, paper_graph):
        partition = Partition.from_blocks(
            [[0, 1, 2], [3], [4, 5], [6], [7, 8]], 9
        )
        got = reliability_product(paper_graph, partition, rng=0)
        expected = 1.0
        for block in ([0, 1, 2], [4, 5], [7, 8]):
            expected *= exact_reliability(
                paper_graph.induced_subgraph(np.array(block))
            )
        assert got == pytest.approx(expected)

    def test_monte_carlo_path(self, two_cliques_graph):
        partition = Partition.from_blocks(
            [[0, 1, 2, 3], [4, 5, 6, 7]], 8
        )
        # each 0.98 clique has 12 edges; force the MC path with a low limit
        got = reliability_product(
            two_cliques_graph, partition, n_samples=3_000, rng=0,
            exact_edge_limit=4,
        )
        assert 0.8 < got <= 1.0


def reference_estimate_reliability(graph, n_samples, rng):
    """The estimator without the degree prefilter: CSR + SCC per sample."""
    if graph.n <= 1:
        return 1.0
    hits = 0
    for _ in range(n_samples):
        indptr, heads = sample_live_edge_csr(graph, rng)
        if scc_labels(indptr, heads).max(initial=0) == 0:
            hits += 1
    return hits / n_samples


def reference_reliability_product(graph, partition, n_samples, rng):
    product = 1.0
    for block in partition.non_singleton_blocks():
        product *= reference_estimate_reliability(
            graph.induced_subgraph(block), n_samples, rng)
    return product


#: Four blocks: dense ones that are sometimes strongly connected, one
#: whose vertex 11 is a sink inside it and one whose vertex 15 is a
#: source inside it.
BLOCKS = [list(range(0, 5)), list(range(5, 11)), list(range(11, 15)),
          list(range(15, 20))]


def blocky_graph(seed: int):
    rng = np.random.default_rng(seed)
    edges = {}
    for block in BLOCKS:
        for u in block:
            for v in block:
                if u != v and rng.random() < 0.8:
                    edges[(u, v)] = float(rng.uniform(0.6, 0.99))
    for _ in range(12):
        u, v = (int(x) for x in rng.integers(0, 20, size=2))
        if u != v:
            edges[(u, v)] = 0.5
    edges = {(u, v): p for (u, v), p in edges.items()
             if not (u == 11 and v in BLOCKS[2])
             and not (v == 15 and u in BLOCKS[3])}
    return build_graph(20, [(u, v, p) for (u, v), p in edges.items()])


class TestReliabilityPrefilter:
    """The degree prefilter changes the work, never the draws or rho."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_loop_and_stream(self, seed):
        graph = blocky_graph(seed)
        partition = Partition.from_blocks(BLOCKS, 20)
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = reliability_product(graph, partition, n_samples=300,
                                  rng=fast_rng, exact_edge_limit=-1)
        want = reference_reliability_product(graph, partition, 300,
                                             ref_rng)
        assert got == want
        # Every block consumed the same draws, source/sink blocks too.
        assert fast_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("seed", range(6))
    def test_each_block_matches_reference(self, seed):
        graph = blocky_graph(seed)
        for block in BLOCKS:
            sub = graph.induced_subgraph(np.asarray(block))
            fast_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            got = estimate_reliability(sub, n_samples=200, rng=fast_rng)
            assert got == reference_estimate_reliability(sub, 200, ref_rng)
            assert fast_rng.random() == ref_rng.random()

    def test_dense_block_is_sometimes_strongly_connected(self):
        # The comparison above must cover samples that reach the SCC pass
        # and pass it, not only rejected ones.
        sub = blocky_graph(0).induced_subgraph(np.asarray(BLOCKS[0]))
        assert 0.0 < estimate_reliability(sub, n_samples=300, rng=0) < 1.0

    def test_prefilter_skips_scc_passes(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return scc_labels(*args, **kwargs)

        monkeypatch.setattr(reliability_module, "scc_labels", counting)
        graph = blocky_graph(1)
        sink_block = graph.induced_subgraph(np.asarray(BLOCKS[2]))
        assert estimate_reliability(sink_block, n_samples=100, rng=0) == 0.0
        assert calls == []
        ring = build_graph(30, [(i, (i + 1) % 30, 0.9) for i in range(30)]
                           + [((i + 1) % 30, i, 0.9) for i in range(30)])
        estimate_reliability(ring, n_samples=200, rng=0)
        assert 0 < len(calls) < 200

    def test_zero_edge_block_consumes_nothing(self):
        rng = np.random.default_rng(3)
        assert estimate_reliability(build_graph(3, []), n_samples=50,
                                    rng=rng) == 0.0
        assert rng.random() == np.random.default_rng(3).random()

    def test_advance_equals_drawing_doubles(self):
        # The skip rests on this: for PCG64, advance(j) lands where drawing
        # j doubles does, and _skip_doubles keeps a buffered 32-bit half.
        for j in (0, 1, 5, 4_097, 1_000_003):
            drawn = np.random.default_rng(11)
            drawn.integers(0, 10, dtype=np.uint32)  # buffers a uint32
            skipped = np.random.default_rng(11)
            skipped.integers(0, 10, dtype=np.uint32)
            assert skipped.bit_generator.state["has_uint32"] == 1
            drawn.random(j)
            reliability_module._skip_doubles(skipped, j, np.empty(8))
            assert skipped.bit_generator.state == drawn.bit_generator.state


def chunked_block(seed: int, sink: bool = False):
    """A 300-vertex block of ~18k edges (several draw chunks) where three
    vertices, early, midway and late in CSR order, keep a live out-edge
    with probability 1/2: most samples die in the middle of their coins,
    some reach the SCC pass.  ``sink`` drops the last vertex's out-edges."""
    rng = np.random.default_rng(seed)
    n = 300
    edges = []
    for u in range(n - 1 if sink else n):
        weak = u in (40, 150, 260)
        targets = rng.choice(n - 1, size=1 if weak else 60, replace=False)
        targets[targets >= u] += 1
        for v in targets.tolist():
            edges.append((u, v, 0.5 if weak else float(rng.uniform(0.5, 0.99))))
    return build_graph(n, edges)


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    """Equal bit generator states, MT19937's key array included."""
    left, right = a.bit_generator.state, b.bit_generator.state
    if left["bit_generator"] == "MT19937":
        return (right["bit_generator"] == "MT19937"
                and np.array_equal(left["state"]["key"],
                                   right["state"]["key"])
                and left["state"]["pos"] == right["state"]["pos"])
    return left == right


class TestChunkedDraws:
    """Coins drawn a chunk at a time, the rest of a rejected sample
    skipped: rho and the generator's whole end state are unchanged."""

    def _generators(self, kind: str, seed: int):
        def make():
            if kind == "mt19937":
                return np.random.Generator(np.random.MT19937(seed))
            rng = np.random.default_rng(seed)
            if kind == "pcg64-buffered":
                rng.integers(0, 10, dtype=np.uint32)
            return rng
        return make(), make()

    @pytest.mark.parametrize("kind", ["pcg64", "pcg64-buffered", "mt19937"])
    @pytest.mark.parametrize("seed", range(3))
    def test_mid_stream_rejection_matches_reference(self, kind, seed):
        block = chunked_block(seed)
        assert block.m > 4 * reliability_module._MIN_CHUNK
        fast_rng, ref_rng = self._generators(kind, seed)
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            got = estimate_reliability(block, n_samples=60, rng=fast_rng)
        assert got == reference_estimate_reliability(block, 60, ref_rng)
        assert _same_state(fast_rng, ref_rng)
        if kind == "pcg64-buffered":
            assert fast_rng.bit_generator.state["has_uint32"] == 1
        assert fast_rng.integers(0, 2**32, dtype=np.uint32) == \
            ref_rng.integers(0, 2**32, dtype=np.uint32)
        # Samples were rejected before their last coin, and some were not.
        skipped = registry.counter("reliability.coins_skipped")
        assert 0 < skipped < 60 * block.m

    def test_some_samples_reach_the_scc_pass(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return scc_labels(*args, **kwargs)

        monkeypatch.setattr(reliability_module, "scc_labels", counting)
        estimate_reliability(chunked_block(0), n_samples=60, rng=0)
        assert calls

    @pytest.mark.parametrize("kind", ["pcg64", "pcg64-buffered", "mt19937"])
    def test_sink_block_skips_every_coin(self, kind):
        block = chunked_block(1, sink=True)
        fast_rng, ref_rng = self._generators(kind, 1)
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            assert estimate_reliability(block, n_samples=40,
                                        rng=fast_rng) == 0.0
        assert reference_estimate_reliability(block, 40, ref_rng) == 0.0
        assert _same_state(fast_rng, ref_rng)
        assert registry.counter("reliability.coins_skipped") == 40 * block.m
