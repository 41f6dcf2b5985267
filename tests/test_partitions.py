import pytest

from submodzeta.partitions import Partition

from linalg_helpers import partitions_of


def test_constructor_sorts_and_validates():
    assert Partition([1, 3, 2]).parts == (3, 2, 1)
    assert Partition([]).parts == ()
    assert Partition((5,)).parts == (5,)
    with pytest.raises(ValueError):
        Partition([2, 0])
    with pytest.raises(ValueError):
        Partition([-1])
    with pytest.raises(ValueError):
        Partition([True, 1])
    with pytest.raises(ValueError):
        Partition([2.0])


def test_basic_accessors():
    lam = Partition([3, 2, 2])
    assert lam.size == 7
    assert lam.length == 3
    assert lam.last_part == 2
    assert lam.parts == (3, 2, 2)
    assert Partition([]).size == Partition([]).length == 0


def test_dual_examples():
    assert Partition([3, 1]).dual().parts == (2, 1, 1)
    assert Partition([1, 1, 1, 1]).dual().parts == (4,)
    assert Partition([2, 2, 1]).dual().parts == (3, 2)
    assert Partition([]).dual().parts == ()


def test_dual_is_involution_exhaustive():
    for n in range(13):
        for lam in partitions_of(n):
            assert lam.dual().dual() == lam


def test_dual_preserves_size_and_swaps_shape():
    for n in range(1, 13):
        for lam in partitions_of(n):
            mu = lam.dual()
            assert mu.size == lam.size
            assert mu.length == lam.parts[0]
            assert mu.parts[0] == lam.length


def test_ind_examples():
    lam = Partition([2, 1])
    assert lam.ind(1) == 1
    assert lam.ind(2) == 1
    assert lam.ind(3) == 2
    for j in range(1, 8):
        assert Partition([7]).ind(j) == 1
    with pytest.raises(ValueError):
        lam.ind(0)
    with pytest.raises(ValueError):
        lam.ind(4)


def test_ind_sigma_sandwich():
    for n in range(1, 11):
        for lam in partitions_of(n):
            for j in range(1, n + 1):
                i = lam.ind(j)
                # the first i - 1 rows end before cell j, the first i rows reach it
                assert sum(lam.parts[:i - 1]) < j <= sum(lam.parts[:i])


def test_index_weight_identities():
    # sum of row indices over all cells, two independent computations
    for n in range(1, 11):
        for lam in partitions_of(n):
            total = sum(lam.ind(j) for j in range(1, n + 1))
            by_rows = sum(i * part for i, part in enumerate(lam.parts, start=1))
            assert total == by_rows
            by_columns = sum(c * (c + 1) // 2 for c in lam.dual().parts)
            assert total == by_columns


def test_json_round_trip_and_leniency():
    lam = Partition([4, 2, 1])
    assert lam.to_json() == [4, 2, 1]
    assert Partition.from_json([1, 4, 2]) == lam
    assert Partition.from_json([]) == Partition([])


def test_equality_and_hash():
    assert Partition([2, 1]) == Partition([1, 2])
    assert Partition([2, 1]) != Partition([3])
    assert len({Partition([2, 1]), Partition([1, 2]), Partition([3])}) == 2


def test_partitions_of_counts():
    # 1, 1, 2, 3, 5, 7, 11, 15, 22, 30
    counts = [sum(1 for _ in partitions_of(n)) for n in range(10)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert all(lam.size == 6 for lam in partitions_of(6))
    parts = list(partitions_of(4, max_part=2))
    assert parts == [Partition([2, 2]), Partition([2, 1, 1]), Partition([1, 1, 1, 1])]
