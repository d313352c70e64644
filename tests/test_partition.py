"""Tests for partitions and the meet operation (Appendix B)."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.partition import Partition, meet_labels

from .references import meet_labels_hash


class TestConstruction:
    def test_canonicalises_labels(self):
        p = Partition(np.array([5, 5, 2, 2, 9]))
        assert p.labels.tolist() == [0, 0, 1, 1, 2]

    def test_trivial_and_singletons(self):
        assert Partition.trivial(4).n_blocks == 1
        assert Partition.singletons(4).n_blocks == 4

    def test_from_blocks(self):
        p = Partition.from_blocks([[0, 2], [1], [3, 4]], 5)
        assert p.n_blocks == 3
        assert p.labels[0] == p.labels[2]

    def test_from_blocks_rejects_overlap(self):
        with pytest.raises(PartitionError, match="overlap"):
            Partition.from_blocks([[0, 1], [1, 2]], 3)

    def test_from_blocks_rejects_gap(self):
        with pytest.raises(PartitionError, match="cover"):
            Partition.from_blocks([[0], [2]], 3)

    def test_rejects_negative_labels(self):
        with pytest.raises(PartitionError):
            Partition(np.array([0, -1]))

    def test_rejects_2d(self):
        with pytest.raises(PartitionError):
            Partition(np.zeros((2, 2), dtype=np.int64))

    def test_empty_partition(self):
        p = Partition(np.empty(0, dtype=np.int64))
        assert p.n == 0
        assert p.n_blocks == 0


class TestQueries:
    def test_block_sizes_and_members(self):
        p = Partition(np.array([0, 0, 1, 0, 2]))
        assert p.block_sizes().tolist() == [3, 1, 1]
        assert p.members_of(0).tolist() == [0, 1, 3]

    def test_blocks_cover_everything(self):
        p = Partition(np.array([1, 0, 1, 2, 0]))
        blocks = p.blocks()
        assert sorted(np.concatenate(blocks).tolist()) == [0, 1, 2, 3, 4]
        for b in blocks:
            assert len(set(p.labels[b].tolist())) == 1

    def test_non_singleton_blocks(self):
        p = Partition(np.array([0, 0, 1, 2, 2, 2]))
        blocks = p.non_singleton_blocks()
        assert sorted(len(b) for b in blocks) == [2, 3]


class TestMeet:
    def test_meet_basic(self):
        p = Partition(np.array([0, 0, 0, 1, 1]))
        q = Partition(np.array([0, 1, 1, 1, 1]))
        m = p.meet(q)
        assert m.n_blocks == 3
        assert m.labels[1] == m.labels[2]
        assert m.labels[3] == m.labels[4]
        assert m.labels[0] not in (m.labels[1], m.labels[3])

    def test_hash_and_numpy_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.integers(0, 6, size=50)
            b = rng.integers(0, 6, size=50)
            assert np.array_equal(meet_labels(a, b), meet_labels_hash(a, b))

    def test_meet_with_trivial_is_identity(self):
        p = Partition(np.array([0, 1, 0, 2]))
        assert p.meet(Partition.trivial(4)) == p

    def test_meet_with_singletons_is_singletons(self):
        p = Partition(np.array([0, 1, 0, 2]))
        assert p.meet(Partition.singletons(4)) == Partition.singletons(4)

    def test_meet_idempotent(self):
        p = Partition(np.array([0, 1, 0, 2, 1]))
        assert p.meet(p) == p

    def test_meet_commutative(self):
        rng = np.random.default_rng(6)
        a = Partition(rng.integers(0, 4, size=30))
        b = Partition(rng.integers(0, 4, size=30))
        assert a.meet(b) == b.meet(a)

    def test_meet_associative(self):
        rng = np.random.default_rng(7)
        a = Partition(rng.integers(0, 4, size=30))
        b = Partition(rng.integers(0, 4, size=30))
        c = Partition(rng.integers(0, 4, size=30))
        assert a.meet(b).meet(c) == a.meet(b.meet(c))

    def test_meet_is_finer_than_both(self):
        rng = np.random.default_rng(8)
        a = Partition(rng.integers(0, 5, size=40))
        b = Partition(rng.integers(0, 5, size=40))
        m = a.meet(b)
        assert m.is_refinement_of(a)
        assert m.is_refinement_of(b)

    def test_meet_shape_mismatch(self):
        with pytest.raises(PartitionError):
            Partition.trivial(3).meet(Partition.trivial(4))

    def test_hash_method_through_partition(self):
        a = Partition(np.array([0, 0, 1, 1]))
        b = Partition(np.array([0, 1, 0, 1]))
        assert a.meet(b) == Partition(meet_labels_hash(a.labels, b.labels))


class TestRefinement:
    def test_refinement_relation(self):
        fine = Partition(np.array([0, 1, 2, 3]))
        coarse = Partition(np.array([0, 0, 1, 1]))
        assert fine.is_refinement_of(coarse)
        assert not coarse.is_refinement_of(fine)

    def test_every_partition_refines_trivial(self):
        rng = np.random.default_rng(9)
        p = Partition(rng.integers(0, 7, size=25))
        assert p.is_refinement_of(Partition.trivial(25))

    def test_self_refinement(self):
        p = Partition(np.array([0, 1, 1]))
        assert p.is_refinement_of(p)


class TestEquality:
    def test_same_blocks_different_label_names_are_equal(self):
        assert Partition(np.array([3, 3, 7])) == Partition(np.array([0, 0, 5]))

    def test_hashable(self):
        a = Partition(np.array([0, 0, 1]))
        b = Partition(np.array([2, 2, 4]))
        assert len({a, b}) == 1

    def test_repr(self):
        assert "blocks=2" in repr(Partition(np.array([0, 1, 1])))
