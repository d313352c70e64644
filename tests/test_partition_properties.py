"""Property-based sweep for the partition lattice (`partition/partition.py`).

Complements ``test_properties.py`` with the algebraic laws the r-robust SCC
construction leans on (Theorem 4.11 builds ``P_r`` as a fold of meets, so
associativity/commutativity are correctness-critical, not cosmetic) and with
the degenerate shapes the strategies there never hit: empty carriers,
single-block partitions, and all-singleton partitions.

"Up to relabeling" is exact equality here: :class:`Partition` canonicalises
labels by first occurrence, so equal block structures compare equal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import Partition, meet_labels

from .references import meet_labels_hash


@st.composite
def label_arrays(draw, size: "int | None" = None, max_label: int = 8):
    """Random (non-canonical) label arrays, empty allowed."""
    n = size if size is not None else draw(st.integers(0, 40))
    return np.asarray(
        draw(st.lists(st.integers(0, max_label), min_size=n, max_size=n)),
        dtype=np.int64,
    )


@st.composite
def partition_triples(draw, max_n: int = 30):
    """Three partitions over one shared carrier (empty carriers allowed)."""
    n = draw(st.integers(0, max_n))
    return tuple(Partition(draw(label_arrays(size=n))) for _ in range(3))


class TestMeetLaws:
    @given(partition_triples())
    @settings(max_examples=80, deadline=None)
    def test_idempotent(self, parts):
        p, _, _ = parts
        assert p.meet(p) == p

    @given(partition_triples())
    @settings(max_examples=80, deadline=None)
    def test_commutative(self, parts):
        p, q, _ = parts
        assert p.meet(q) == q.meet(p)

    @given(partition_triples())
    @settings(max_examples=80, deadline=None)
    def test_associative(self, parts):
        p, q, s = parts
        assert p.meet(q).meet(s) == p.meet(q.meet(s))

    @given(partition_triples())
    @settings(max_examples=80, deadline=None)
    def test_refines_both_arguments(self, parts):
        p, q, _ = parts
        m = p.meet(q)
        assert m.is_refinement_of(p)
        assert m.is_refinement_of(q)

    @given(partition_triples())
    @settings(max_examples=60, deadline=None)
    def test_identity_and_absorbing_elements(self, parts):
        p, _, _ = parts
        trivial = Partition.trivial(p.n)
        singletons = Partition.singletons(p.n)
        assert p.meet(trivial) == p  # {V} is the meet identity
        assert p.meet(singletons) == singletons  # singletons absorb


class TestMeetImplementationsAgree:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_numpy_equals_hash_on_random_labels(self, data):
        n = data.draw(st.integers(0, 40))
        a = data.draw(label_arrays(size=n))
        b = data.draw(label_arrays(size=n))
        assert np.array_equal(meet_labels(a, b), meet_labels_hash(a, b))

    def test_empty(self):
        empty = np.asarray([], dtype=np.int64)
        assert meet_labels(empty, empty).size == 0
        assert meet_labels_hash(empty, empty).size == 0
        assert Partition(empty).meet(Partition(empty)).n_blocks == 0

    @given(st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_single_block(self, n):
        one = np.zeros(n, dtype=np.int64)
        assert np.array_equal(meet_labels(one, one), meet_labels_hash(one, one))
        assert Partition(one).meet(Partition(one)).n_blocks == 1

    @given(st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_all_singletons(self, n):
        fine = np.arange(n, dtype=np.int64)
        one = np.zeros(n, dtype=np.int64)
        assert np.array_equal(meet_labels(fine, one), meet_labels_hash(fine, one))
        assert Partition(fine).meet(Partition(one)) == Partition(fine)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_agreement_survives_relabeling(self, data):
        """Permuting input label ids never changes the canonical meet."""
        n = data.draw(st.integers(1, 30))
        a = data.draw(label_arrays(size=n))
        b = data.draw(label_arrays(size=n))
        # shift + reverse label ids: same blocks, different names
        a_relabeled = (a.max() - a) + data.draw(st.integers(0, 5))
        expected = Partition(meet_labels(a, b))
        assert Partition(meet_labels(a_relabeled, b)) == expected
        assert Partition(meet_labels_hash(a_relabeled, b)) == expected

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_partition_meet_methods_agree(self, data):
        n = data.draw(st.integers(0, 30))
        p = Partition(data.draw(label_arrays(size=n)))
        q = Partition(data.draw(label_arrays(size=n)))
        assert p.meet(q) == Partition(meet_labels_hash(p.labels, q.labels))
