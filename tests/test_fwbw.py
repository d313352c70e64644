"""Tests for the vectorised FW-BW SCC kernel (`scc/fwbw.py`).

Two layers of evidence:

* differential — fwbw must produce the identical canonical partition as the
  reference implementations on fixed-seed random graphs, including shapes
  chosen to force every internal path (trim cascades, deep decomposition,
  the coloring phase, domain compaction, the int32 index domain);
* property-based — on arbitrary small digraphs, the fwbw labels must be
  exactly the mutual-reachability equivalence classes (checked against an
  independently computed boolean transitive closure, not another SCC
  implementation).

The r-robust fold is checked against a reference fold in
``test_robust_scc.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diffusion import sample_live_edge_csr
from repro.partition import Partition
from repro.scc import scc_labels, tarjan_scc_labels
from repro.scc.fwbw import FwbwStats, fwbw_scc_labels

from .conftest import random_graph
from .references import REFERENCE_SCC, meet_labels_hash, scipy_scc_labels


def csr(n, tails, heads):
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    order = np.lexsort((heads, tails))
    tails, heads = tails[order], heads[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return indptr, heads


def reachability(n, tails, heads):
    """Boolean transitive closure by repeated squaring (small n only)."""
    adj = np.eye(n, dtype=bool)
    adj[tails, heads] = True
    while True:
        nxt = adj @ adj
        if (nxt == adj).all():
            return adj
        adj = nxt


class TestDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_references_on_random_graphs(self, seed):
        g = random_graph(60, 200, seed=seed)
        ours = Partition(scc_labels(g.indptr, g.heads))
        for name, reference in REFERENCE_SCC.items():
            assert ours == Partition(reference(g.indptr, g.heads)), name

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_on_live_edge_samples(self, seed):
        g = random_graph(300, 1500, seed=40 + seed)
        indptr, heads = sample_live_edge_csr(g, rng=seed)
        ours = Partition(scc_labels(indptr, heads))
        ref = Partition(tarjan_scc_labels(indptr, heads))
        assert ours == ref

    @pytest.mark.parametrize("seed", range(6))
    def test_coloring_path_many_two_cycles(self, seed):
        # Dense reciprocal structure fragments FW-BW into many parts, which
        # is exactly what triggers the multistep coloring phase.
        rng = np.random.default_rng(seed)
        n = 400
        t = rng.integers(0, n, 900)
        h = rng.integers(0, n, 900)
        keep = t != h
        t, h = t[keep], h[keep]
        tails = np.concatenate([t, h])
        heads = np.concatenate([h, t])
        uniq = np.unique(tails * n + heads)
        indptr, heads = csr(n, uniq // n, uniq % n)
        ours = Partition(scc_labels(indptr, heads))
        ref = Partition(tarjan_scc_labels(indptr, heads))
        assert ours == ref

    def test_deep_chain_forces_trim_cascade(self):
        n = 30_000
        tails = np.arange(n - 1)
        heads = np.arange(1, n)
        indptr, heads = csr(n, tails, heads)
        labels = scc_labels(indptr, heads)
        assert len(set(labels.tolist())) == n

    def test_long_cycle_single_component(self):
        n = 20_000
        tails = np.arange(n)
        heads = (np.arange(n) + 1) % n
        indptr, heads = csr(n, tails, heads)
        assert set(scc_labels(indptr, heads).tolist()) == {0}

    def test_large_graph_int32_domain(self):
        # Past the size gate the kernel runs on int32 indices; same answer.
        g = random_graph(40_000, 240_000, seed=7)
        ours = Partition(scc_labels(g.indptr, g.heads))
        ref = Partition(scipy_scc_labels(g.indptr, g.heads))
        assert ours == ref

    def test_stats_shape(self):
        g = random_graph(100, 400, seed=3)
        labels, stats = fwbw_scc_labels(g.indptr, g.heads, return_stats=True)
        assert isinstance(stats, FwbwStats)
        assert stats.rounds >= 1
        assert stats.processed_edges > 0
        assert labels.size == g.n


class TestProperty:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_labels_are_mutual_reachability_classes(self, data):
        n = data.draw(st.integers(1, 24), label="n")
        m = data.draw(st.integers(0, 80), label="m")
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=m, max_size=m,
            ),
            label="edges",
        )
        pairs = sorted({(u, v) for u, v in pairs if u != v})
        tails = [u for u, _ in pairs]
        heads = [v for _, v in pairs]
        indptr, h = csr(n, tails, heads)
        labels = fwbw_scc_labels(indptr, h)
        reach = reachability(n, np.asarray(tails, dtype=np.int64),
                             np.asarray(heads, dtype=np.int64))
        mutual = reach & reach.T
        same = labels[:, None] == labels[None, :]
        assert (same == mutual).all()

    def test_empty_graph(self):
        indptr = np.zeros(1, dtype=np.int64)
        labels = fwbw_scc_labels(indptr, np.empty(0, dtype=np.int64))
        assert labels.size == 0

    def test_edgeless_graph(self):
        indptr = np.zeros(6, dtype=np.int64)
        labels = fwbw_scc_labels(indptr, np.empty(0, dtype=np.int64))
        assert len(set(labels.tolist())) == 5


class TestMeetFastPaths:
    def test_trivial_meet_returns_other(self):
        q = Partition(np.array([0, 1, 0, 2], dtype=np.int64))
        assert Partition.trivial(4).meet(q) is q
        assert q.meet(Partition.trivial(4)) is q

    def test_singletons_meet_returns_singletons(self):
        d = Partition.singletons(4)
        q = Partition(np.array([0, 1, 0, 2], dtype=np.int64))
        assert d.meet(q) is d
        assert q.meet(d) is d

    def test_fast_paths_match_hash_meet(self):
        # The short-circuits must agree with the reference hash meet.
        rng = np.random.default_rng(0)
        q = Partition(rng.integers(0, 5, 30).astype(np.int64))
        for special in (Partition.trivial(30), Partition.singletons(30)):
            reference = meet_labels_hash(q.labels, special.labels)
            assert special.meet(q) == Partition(reference)

    def test_mismatched_sizes_still_raise(self):
        from repro.errors import PartitionError
        with pytest.raises(PartitionError):
            Partition.trivial(3).meet(Partition.trivial(4))
