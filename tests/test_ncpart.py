"""Unit tests for the non-crossing partition lattice."""

import pytest

from freeunitary import (
    NCPartition,
    SizeError,
    StructureError,
    catalan,
    enumerate_nc,
    kreweras,
    moebius_from_zero,
    moebius_to_one,
)
from freeunitary.ncpart import MAX_GROUND_SIZE
from oracles import is_noncrossing, join, leq, restrict

CATALANS = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)


def test_catalan_values():
    for k, want in enumerate(CATALANS):
        assert catalan(k) == want


def test_constructor_validates():
    with pytest.raises(StructureError):
        NCPartition(4, [[1, 3], [2, 4]])
    with pytest.raises(StructureError):
        NCPartition(3, [[1, 2]])
    with pytest.raises(StructureError):
        NCPartition(3, [[1, 2], [2, 3]])
    with pytest.raises(SizeError):
        NCPartition(MAX_GROUND_SIZE + 1, [[i] for i in range(1, MAX_GROUND_SIZE + 2)])


def test_is_noncrossing():
    assert is_noncrossing([[1, 4, 5], [2, 3], [6]])
    assert not is_noncrossing([[1, 3], [2, 4]])


def test_str_format():
    p = NCPartition(6, [[1, 4, 5], [2, 3], [6]])
    assert str(p) == "[[1,4,5],[2,3],[6]]"
    assert p.to_lists() == [[1, 4, 5], [2, 3], [6]]


def test_block_containing():
    p = NCPartition(6, [[1, 4, 5], [2, 3], [6]])
    assert p.block_containing(4) == (1, 4, 5)
    assert p.block_containing(6) == (6,)


@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_count_is_catalan(n):
    assert sum(1 for _ in enumerate_nc(n)) == catalan(n)


def test_enumeration_is_duplicate_free():
    seen = set(enumerate_nc(6))
    assert len(seen) == catalan(6)


def test_kreweras_small_example():
    p = NCPartition(4, [[1, 4], [2, 3]])
    assert kreweras(p).to_lists() == [[1, 3], [2], [4]]


def test_kreweras_endpoints():
    for n in range(1, 7):
        assert kreweras(NCPartition.zero(n)) == NCPartition.one(n)
        assert kreweras(NCPartition.one(n)) == NCPartition.zero(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_kreweras_block_count_complement(n):
    for p in enumerate_nc(n):
        assert p.num_blocks + kreweras(p).num_blocks == n + 1


@pytest.mark.parametrize("n", range(1, 8))
def test_kreweras_is_a_bijection(n):
    images = {kreweras(p) for p in enumerate_nc(n)}
    assert len(images) == catalan(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_kreweras_reverses_order(n):
    lattice = list(enumerate_nc(n))
    for p in lattice:
        kp = kreweras(p)
        for r in lattice:
            if leq(p, r):
                assert leq(kreweras(r), kp)


@pytest.mark.parametrize("n", range(1, 8))
def test_kreweras_squared_rotates_backwards(n):
    def rotate_back(p):
        blocks = [
            tuple(sorted((e - 2) % n + 1 for e in blk)) for blk in p.blocks
        ]
        return NCPartition(n, blocks)

    for p in enumerate_nc(n):
        assert kreweras(kreweras(p)) == rotate_back(p)


@pytest.mark.parametrize("n", range(1, 6))
def test_join_is_least_upper_bound(n):
    lattice = list(enumerate_nc(n))
    for p in lattice:
        for r in lattice:
            j = join(p, r)
            assert leq(p, j) and leq(r, j)
            for s in lattice:
                if leq(p, s) and leq(r, s):
                    assert leq(j, s)


def test_join_merges_interleaved_blocks():
    p = NCPartition(4, [[1, 3], [2], [4]])
    r = NCPartition(4, [[1], [2, 4], [3]])
    assert join(p, r) == NCPartition(4, [[1, 2, 3, 4]])


def test_moebius_endpoint_values():
    for n in range(1, 9):
        want = (-1) ** (n - 1) * catalan(n - 1)
        assert moebius_to_one(NCPartition.zero(n)) == want
        assert moebius_from_zero(NCPartition.one(n)) == want
        assert moebius_from_zero(NCPartition.zero(n)) == 1
        assert moebius_to_one(NCPartition.one(n)) == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_moebius_inverts_zeta_from_below(n):
    lattice = list(enumerate_nc(n))
    for p in lattice:
        total = sum(moebius_from_zero(s) for s in lattice if leq(s, p))
        assert total == (1 if p == NCPartition.zero(n) else 0)


@pytest.mark.parametrize("n", range(1, 6))
def test_moebius_inverts_zeta_from_above(n):
    lattice = list(enumerate_nc(n))
    for p in lattice:
        total = sum(moebius_to_one(s) for s in lattice if leq(p, s))
        assert total == (1 if p == NCPartition.one(n) else 0)


def test_restrict_relabels_by_rank():
    p = NCPartition(6, [[1, 4, 5], [2, 3], [6]])
    assert restrict(p, {2, 3, 6}).to_lists() == [[1, 2], [3]]
    assert restrict(p, {1, 4, 5}).to_lists() == [[1, 2, 3]]
    with pytest.raises(SizeError):
        restrict(p, set())
    with pytest.raises(SizeError):
        restrict(p, {0, 1})


def test_leq_requires_same_ground():
    with pytest.raises(StructureError):
        leq(NCPartition.zero(3), NCPartition.zero(4))
