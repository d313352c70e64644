"""Tests for the SCC kernel and its references, including cross-validation."""

import numpy as np
import pytest

from repro.partition import Partition
from repro.scc import (
    kosaraju_scc_labels,
    scc_labels,
    semi_external_scc_labels,
    tarjan_scc_labels,
)
from repro.storage import PairStore

from .conftest import random_graph
from .references import REFERENCE_SCC


def csr(n, edges):
    tails = np.array([e[0] for e in edges], dtype=np.int64)
    heads = np.array([e[1] for e in edges], dtype=np.int64)
    order = np.lexsort((heads, tails))
    tails, heads = tails[order], heads[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, tails + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, heads


#: The library kernel first, then every reference, by name.
BACKENDS = {"fwbw": scc_labels, **REFERENCE_SCC}


@pytest.mark.parametrize("backend", list(BACKENDS))
class TestKnownGraphs:
    def test_single_cycle(self, backend):
        indptr, heads = csr(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        labels = BACKENDS[backend](indptr, heads)
        assert len(set(labels.tolist())) == 1

    def test_chain_is_all_singletons(self, backend):
        indptr, heads = csr(4, [(0, 1), (1, 2), (2, 3)])
        labels = BACKENDS[backend](indptr, heads)
        assert len(set(labels.tolist())) == 4

    def test_two_cycles_with_bridge(self, backend):
        edges = [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]
        indptr, heads = csr(4, edges)
        labels = BACKENDS[backend](indptr, heads)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_empty_graph(self, backend):
        indptr, heads = csr(5, [])
        labels = BACKENDS[backend](indptr, heads)
        assert len(set(labels.tolist())) == 5

    def test_no_vertices(self, backend):
        indptr, heads = csr(0, [])
        labels = BACKENDS[backend](indptr, heads)
        assert labels.size == 0

    def test_figure3_style_nested_components(self, backend):
        # triangle {0,1,2} reaching a 2-cycle {3,4}, plus isolated 5
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)]
        indptr, heads = csr(6, edges)
        p = Partition(BACKENDS[backend](indptr, heads))
        sizes = sorted(p.block_sizes().tolist())
        assert sizes == [1, 2, 3]


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_backends_agree_on_random_graphs(self, seed):
        g = random_graph(40, 120, seed=seed)
        parts = [Partition(fn(g.indptr, g.heads)) for fn in BACKENDS.values()]
        assert all(p == parts[0] for p in parts[1:])

    def test_deep_chain_no_recursion_error(self):
        # A 50k-vertex path would blow recursive implementations.
        n = 50_000
        edges = [(i, i + 1) for i in range(n - 1)]
        indptr, heads = csr(n, edges)
        labels = tarjan_scc_labels(indptr, heads)
        assert len(set(labels.tolist())) == n

    def test_long_cycle_single_component(self):
        n = 20_000
        edges = [(i, (i + 1) % n) for i in range(n)]
        indptr, heads = csr(n, edges)
        assert set(kosaraju_scc_labels(indptr, heads).tolist()) == {0}


class TestSemiExternal:
    def _store(self, tmp_path, n, edges):
        store = PairStore.create(tmp_path / "g.pairs", n=n)
        if edges:
            store.append(
                np.array([e[0] for e in edges]), np.array([e[1] for e in edges])
            )
        return store

    def test_cycle(self, tmp_path):
        store = self._store(tmp_path, 3, [(0, 1), (1, 2), (2, 0)])
        labels = semi_external_scc_labels(store)
        assert len(set(labels.tolist())) == 1

    def test_empty(self, tmp_path):
        store = self._store(tmp_path, 4, [])
        labels = semi_external_scc_labels(store)
        assert len(set(labels.tolist())) == 4

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_tarjan_on_random_graphs(self, tmp_path, seed):
        g = random_graph(35, 110, seed=100 + seed)
        tails, heads, _ = g.edge_arrays()
        store = self._store(tmp_path, g.n, list(zip(tails.tolist(), heads.tolist())))
        semi = Partition(semi_external_scc_labels(store, chunk_edges=16))
        ref = Partition(tarjan_scc_labels(g.indptr, g.heads))
        assert semi == ref

    def test_stats_reported(self, tmp_path):
        store = self._store(tmp_path, 5, [(0, 1), (1, 0), (2, 3)])
        labels, stats = semi_external_scc_labels(store, return_stats=True)
        assert stats.rounds >= 1
        assert stats.stream_passes >= stats.rounds
        assert stats.bytes_read > 0
        assert len(set(labels.tolist())) == 4

    def test_tiny_chunks_give_same_answer(self, tmp_path):
        g = random_graph(25, 80, seed=77)
        tails, heads, _ = g.edge_arrays()
        store = self._store(tmp_path, g.n, list(zip(tails.tolist(), heads.tolist())))
        a = Partition(semi_external_scc_labels(store, chunk_edges=1))
        b = Partition(semi_external_scc_labels(store, chunk_edges=1 << 16))
        assert a == b
