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
from freeunitary.ncpart import MAX_GROUND_SIZE, _kreweras_blocks, _parts
from oracles import is_noncrossing, join, kreweras_blocks, leq, nc_brute, restrict, set_partitions

CATALANS = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796)
BELLS = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147)


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


@pytest.mark.parametrize("n", range(1, 10))
def test_constructor_accepts_exactly_the_noncrossing_set_partitions(n):
    # the Kreweras count of the constructor against the pairwise oracle, on
    # every set partition of {1, ..., n}: 26,442 of them for n <= 9
    partitions = set_partitions(n)
    assert len(partitions) == BELLS[n]
    for blocks in partitions:
        if is_noncrossing(blocks):
            assert NCPartition(n, blocks).blocks == blocks
        else:
            with pytest.raises(StructureError, match="^crossing blocks: "):
                NCPartition(n, blocks)


def test_str_format():
    p = NCPartition(6, [[1, 4, 5], [2, 3], [6]])
    assert str(p) == "[[1,4,5],[2,3],[6]]"
    assert p.to_lists() == [[1, 4, 5], [2, 3], [6]]


@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_count_is_catalan(n):
    assert sum(1 for _ in enumerate_nc(n)) == catalan(n)


def test_enumeration_is_duplicate_free():
    seen = set(enumerate_nc(6))
    assert len(seen) == catalan(6)


@pytest.mark.parametrize("m", range(1, 10))
def test_enumeration_is_the_noncrossing_filter_of_all_set_partitions(m):
    stream = [p.blocks for p in enumerate_nc(m)]
    assert len(stream) == len(set(stream))
    assert set(stream) == set(nc_brute(m))


@pytest.mark.parametrize("m", range(1, 11))
def test_pure_parts_is_the_purity_filter_of_enumerate_nc(m):
    # A partition is pure under exactly the colourings that are constant on
    # each of its blocks, so filtering NC(m) once per colouring is the same
    # as sending each partition to those 2^blocks colourings, in stream order.
    # Colouring c gives element i the colour bit i - 1 of c.
    expected = [[] for _ in range(2 ** m)]
    for p in enumerate_nc(m):
        colourings = [0]
        for blk in p.blocks:
            mask = sum(1 << (e - 1) for e in blk)
            colourings += [c | mask for c in colourings]
        for c in colourings:
            expected[c].append(p.blocks)
    for c in range(2 ** m):
        assert list(_parts([c >> i & 1 for i in range(m)])) == expected[c]


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


@pytest.mark.parametrize("n", range(1, 11))
def test_kreweras_permutation_matches_pair_linkage(n):
    for blocks in _parts((0,) * n):
        assert _kreweras_blocks(blocks, n) == kreweras_blocks(blocks, n)


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
