"""Bit-identity pins for pooled RIS, the BFS frontier loops and coarsening.

The pooled-RIS and frontier digests were recorded at commit fe55c07 and must
hold exactly: a
``SamplePool``'s first 300 sets and its ``examined_edges``, the greedy seeds
on that pool, ``reachable_mask``, ``simulate_ic``, ``simulate_lt_once`` and
SPINE's cascades.  Each BFS frontier's order fixes the order of coin flips
in its random stream, so any change to frontier order, not just to frontier
contents, breaks a pin.  The coverage index is checked against a reference
built with a stable argsort, and both maximizer paths (the pool's own index
and a prefix index) must pick the same seeds.

The coarsening digests (:class:`TestCoarseningPins`) were recorded at commit
3bce825, while the r-robust fold still passed the running partition to the
SCC kernel as a block restriction.  They pin the partition labels, ``pi``
and the coarse graph's digest of Algorithm 1, Algorithm 6 (thread and
process executors), Algorithm 2, the addressable cold rebuild, a
:class:`DynamicCoarsener` after a mixed insert/delete batch, and the
refinement chain.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import coarsen_influence_graph
from repro.baselines.spine import generate_cascades
from repro.core import robust_scc_refinement_sequence
from repro.core.dynamic import Delta, DynamicCoarsener, coarsen_addressable
from repro.datasets.generators import powerlaw_social_graph
from repro.datasets.probabilities import (
    assign_trivalency,
    assign_weighted_cascade,
)
from repro.diffusion import (
    CoverageInstance,
    reachable_mask,
    simulate_ic,
    simulate_lt_once,
)
from repro.diffusion.reachability import sorted_distinct
from repro.diffusion.rr_sets import _inverted_set_ids
from repro.errors import AlgorithmError
from repro.graph import InfluenceGraph
from repro.serve.pool import PoolMaximizer, SamplePool
from repro.storage import TripletStore

from .conftest import random_graph


def _digest(arrays, extra=()) -> str:
    h = hashlib.blake2b(digest_size=16)
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(np.int64(array.size).tobytes())
        h.update(array.tobytes())
    for value in extra:
        h.update(np.int64(value).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def tri_graph():
    """A generated TRI graph whose RR sets range from 1 to ~3.3k vertices."""
    return assign_trivalency(powerlaw_social_graph(5000, out_degree=30,
                                                   rng=7), rng=8)


@pytest.fixture(scope="module")
def tri_pool(tri_graph):
    pool = SamplePool(tri_graph, rng=9)
    pool.ensure(300)
    return pool


class TestSortedDistinct:
    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.integers(-5, 2**40), max_size=60))
    def test_matches_np_unique(self, values):
        array = np.asarray(values, dtype=np.int64)
        out = sorted_distinct(array.copy())
        assert out.dtype == np.int64
        assert np.array_equal(out, np.unique(array))


class TestParentPins:
    def test_pool_first_300_sets_and_examined_edges(self, tri_pool):
        sets = [tri_pool._rr_sets[i] for i in range(300)]
        assert tri_pool.examined_edges == 14730377
        assert _digest(sets, extra=[tri_pool.examined_edges]) == (
            "60375fed432c049a3a5a7d355c54111f")

    def test_pool_greedy_seeds(self, tri_pool, tri_graph):
        result = tri_pool.maximizer(300).select(tri_graph, 20)
        assert result.extras["covered"] == 143
        assert _digest([result.seeds]) == (
            "1e1aaa6e08206076cbd3dae367f56038")

    def test_reachable_mask(self):
        g = random_graph(2000, 2600, seed=3)
        rng = np.random.default_rng(4)
        masks = [reachable_mask(g.indptr, g.heads,
                                rng.integers(0, g.n, size=size))
                 for size in (1, 1, 2, 5, 40)]
        assert [int(m.sum()) for m in masks] == [16, 1, 3, 888, 945]
        assert _digest(masks) == "d7c30bfe9da7c872ac1a8c6ada1488dc"

    def test_simulate_ic(self, tri_graph):
        spreads = simulate_ic(tri_graph, np.array([0, 17, 4321]), 200,
                              rng=5)
        assert _digest([spreads]) == "e5339503e5863fe14b9fa1ca9ed6b1d4"

    def test_simulate_lt(self):
        g = assign_weighted_cascade(powerlaw_social_graph(3000, out_degree=6,
                                                          rng=2))
        rng = np.random.default_rng(6)
        masks = [simulate_lt_once(g, np.array([1, 2, 3, 2]), rng)
                 for _ in range(50)]
        assert _digest(masks) == "bd3352cee88f5004b43de99e366606ca"

    def test_spine_cascades(self):
        g = random_graph(400, 2400, seed=8, p_high=0.4)
        cascades = generate_cascades(g, 30, rng=9)
        assert _digest([c.steps for c in cascades]) == (
            "3f5a9aa2d55871e5f5856f8385576d99")


def _reference_index(rr_sets, n):
    """The inverted index built the obvious way: a stable argsort."""
    flat = np.concatenate(rr_sets) if rr_sets else np.empty(0, np.int64)
    sizes = [s.size for s in rr_sets]
    set_ids = np.repeat(np.arange(len(rr_sets), dtype=np.int64), sizes)
    order = np.argsort(flat, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, flat + 1, 1)
    set_indptr = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    return flat, set_indptr, set_ids[order], np.cumsum(indptr)


class TestCoverageIndex:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 300), st.integers(65_000, 65_536),
                    st.integers(65_537, 200_000)),
        n_sets=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_arrays_equal_stable_argsort_build(self, n, n_sets, seed):
        rng = np.random.default_rng(seed)
        rr_sets = [np.unique(rng.integers(0, n, size=rng.integers(1, 300)))
                   for _ in range(n_sets)]
        if n_sets and rng.random() < 0.5:
            rr_sets[0] = np.array([n - 1], dtype=np.int64)  # top id
        cov = CoverageInstance(rr_sets, n)
        flat, set_indptr, inv_sets, inv_indptr = _reference_index(rr_sets, n)
        assert np.array_equal(cov._flat, flat)
        assert np.array_equal(cov._set_indptr, set_indptr)
        assert np.array_equal(cov._inv_sets, inv_sets)
        assert np.array_equal(cov._inv_indptr, inv_indptr)
        assert cov._inv_sets.dtype == inv_sets.dtype
        assert cov._inv_indptr.dtype == inv_indptr.dtype

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_narrow_ids_match(self, dtype):
        rng = np.random.default_rng(3)
        rr_sets = [np.unique(rng.integers(0, 5000, size=rng.integers(1, 90)))
                   .astype(dtype) for _ in range(700)]
        flat = np.concatenate(rr_sets)
        sizes = np.array([s.size for s in rr_sets], dtype=np.int64)
        _, _, expected, _ = _reference_index(rr_sets, 5000)
        got = _inverted_set_ids(flat, sizes, 5000)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_key_overflow_raises(self):
        # 700 sets need 10 low bits, so vertex ids must stay below 2**52.
        sizes = np.ones(700, dtype=np.int64)
        flat = np.arange(700, dtype=np.int64)
        assert _inverted_set_ids(flat, sizes, 1 << 52).size == 700
        with pytest.raises(AlgorithmError, match="overflows"):
            _inverted_set_ids(flat, sizes, (1 << 52) + 1)


class TestPoolMaximizerReuse:
    @pytest.mark.parametrize("k", [1, 7, 25])
    def test_reuse_and_prefix_paths_agree(self, tri_graph, k):
        # Pool A holds exactly 300 sets, so its maximizer greedies on the
        # pool's own coverage; pool B (same entropy) holds 400, so a
        # 300-set maximizer must build its own prefix index.
        reuse = SamplePool(tri_graph, rng=9)
        reuse.ensure(300)
        reuse.coverage()
        prefix = SamplePool(tri_graph, rng=9)
        prefix.ensure(400)
        a = reuse.maximizer(300).select(tri_graph, k)
        b = prefix.maximizer(300).select(tri_graph, k)
        c = PoolMaximizer(reuse, 300).select(tri_graph, k)
        direct_seeds, direct_covered = CoverageInstance(
            reuse._rr_sets[:300], tri_graph.n).greedy(k)
        assert np.array_equal(a.seeds, b.seeds)
        assert np.array_equal(a.seeds, c.seeds)
        assert np.array_equal(a.seeds, direct_seeds)
        assert a.extras["covered"] == b.extras["covered"] == direct_covered
        assert a.estimated_influence == b.estimated_influence


def _mixed_graph(n: int, m: int, seed: int) -> InfluenceGraph:
    """Skewed out-degrees plus a reciprocal slab; half the edges are near
    certain (p in [0.8, 1)) and half weak (p in [0.05, 0.35]).

    The strong half keeps robust blocks alive through every round, so the
    fold never reaches the all-singletons partition early; the weak half
    splits blocks round by round.
    """
    rng = np.random.default_rng(seed)
    tails = (n * rng.random(m) ** 2).astype(np.int64)
    heads = rng.integers(0, n, m)
    k = m // 10
    tails = np.concatenate([tails, heads[:k]])
    heads = np.concatenate([heads, tails[:k]])
    key = np.unique(tails * n + heads)
    tails, heads = key // n, key % n
    keep = tails != heads
    tails, heads = tails[keep], heads[keep]
    probs = np.where(rng.random(tails.size) < 0.5,
                     rng.uniform(0.8, 1.0, tails.size),
                     rng.uniform(0.05, 0.35, tails.size))
    return InfluenceGraph.from_edges(n, tails, heads, probs)


@pytest.fixture(scope="module")
def mixed_graph():
    graph = _mixed_graph(3000, 9000, seed=2)
    assert graph.digest() == "e8751d6e4519ca40dac60dbed3be5568"
    return graph


def _mixed_batch(graph) -> "list[Delta]":
    """40 deletions of present edges interleaved with 40 fresh inserts."""
    rng = np.random.default_rng(3)
    tails, heads, _ = graph.edge_arrays()
    deletes = [Delta("delete", int(tails[i]), int(heads[i]))
               for i in rng.choice(graph.m, 40, replace=False)]
    present = set(zip(tails.tolist(), heads.tolist()))
    inserts: "list[Delta]" = []
    while len(inserts) < 40:
        u, v = (int(x) for x in rng.integers(0, graph.n, 2))
        if u != v and (u, v) not in present:
            present.add((u, v))
            inserts.append(Delta("insert", u, v, float(rng.uniform(0.2, 0.9))))
    return [d for pair in zip(deletes, inserts) for d in pair]


def _coarsening_digests(result) -> "tuple[int, str, str, str]":
    return (result.partition.n_blocks, _digest([result.partition.labels]),
            _digest([result.pi]), result.coarse.digest())


class TestCoarseningPins:
    def test_algorithm_1(self, mixed_graph):
        result = coarsen_influence_graph(mixed_graph, 12, rng=5)
        assert _coarsening_digests(result) == (
            2579, "afe660d1283bcfa3df8bbf07b889548a",
            "afe660d1283bcfa3df8bbf07b889548a",
            "0d7d15370619e281aa02bd66788fa338")

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_algorithm_6(self, mixed_graph, executor):
        result = coarsen_influence_graph(mixed_graph, 12, rng=5,
                                         executor=executor, workers=3)
        assert _coarsening_digests(result) == (
            2570, "3a3e846fb709346e5de22b1c5d752c8c",
            "3a3e846fb709346e5de22b1c5d752c8c",
            "ac8bd4c3f196649c2490c8d660d44872")

    def test_algorithm_2(self, mixed_graph, tmp_path):
        source = TripletStore.from_graph(mixed_graph,
                                         os.fspath(tmp_path / "g.trip"))
        result = coarsen_influence_graph(
            source, 12, rng=5, space="sublinear",
            out_path=os.fspath(tmp_path / "h.trip")).load()
        assert _coarsening_digests(result) == (
            2579, "afe660d1283bcfa3df8bbf07b889548a",
            "afe660d1283bcfa3df8bbf07b889548a",
            "3606e14ffd3dfb7474659bd2b3190516")

    def test_coarsen_addressable(self, mixed_graph):
        result = coarsen_addressable(mixed_graph, 12, seed=5)
        assert _coarsening_digests(result) == (
            2586, "987a67b4f4c6ffc27e6244ee74d692d9",
            "987a67b4f4c6ffc27e6244ee74d692d9",
            "6842347800e0e97b11addef3ce544602")

    @pytest.mark.parametrize("coins, expected", [
        ("stream", (2581, "acdd6fe60d03de0f230a0b0343f66928",
                    "acdd6fe60d03de0f230a0b0343f66928",
                    "66df455e1670b27b6ee2578988c920b2")),
        ("addressable", (2579, "f11ff4ba91fbc6e79fa22ce6336e4ff6",
                         "f11ff4ba91fbc6e79fa22ce6336e4ff6",
                         "b5eb371b22e66adab54a21f74bb43f78")),
    ])
    def test_dynamic_after_mixed_batch(self, mixed_graph, coins, expected):
        dyn = DynamicCoarsener(mixed_graph, r=12, rng=5, coins=coins)
        dyn.apply_deltas(_mixed_batch(mixed_graph))
        assert _coarsening_digests(dyn.snapshot()) == expected

    def test_refinement_sequence(self, mixed_graph):
        chain = robust_scc_refinement_sequence(mixed_graph, 8, rng=5)
        assert [p.n_blocks for p in chain] == [
            1622, 1972, 2130, 2238, 2330, 2403, 2443, 2471]
        assert _digest([p.labels for p in chain]) == (
            "2f1668e40c7a27788fac594c4f172c5f")
