"""Bit-identity pins for pooled RIS and the BFS frontier loops.

The digests were recorded at commit fe55c07 and must hold exactly: a
``SamplePool``'s first 300 sets and its ``examined_edges``, the greedy seeds
on that pool, ``reachable_mask``, ``simulate_ic``, ``simulate_lt_once`` and
SPINE's cascades.  Each BFS frontier's order fixes the order of coin flips
in its random stream, so any change to frontier order, not just to frontier
contents, breaks a pin.  The coverage index is checked against a reference
built with a stable argsort, and both maximizer paths (the pool's own index
and a prefix index) must pick the same seeds.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.spine import generate_cascades
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
from repro.serve.pool import PoolMaximizer, SamplePool

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
