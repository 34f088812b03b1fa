"""Non-crossing set partitions of {1, ..., n}.

Provides one enumeration, a lazy first-block recursion over the
partitions whose blocks are each of one colour under a colouring of the
ground set (the whole lattice is the one-colour case), the Kreweras
complement, and Moebius function values between a partition and the
bottom / top elements of the lattice, and block_sum, the one weighted
sum of block products over partitions. All values are exact.  The
lattice order, join and restriction, which only the tests use, live in
tests/oracles.py, with a brute-force enumeration that shares no code
with the recursion, nor with the validation of NCPartition.

A partition of {1, ..., n} is non-crossing exactly when it and its
Kreweras complement have n + 1 blocks between them (the genus identity of
Biane, Some properties of crossings and partitions, 1997: the blocks
number n + 1 - 2g, with g the genus).  NCPartition decides by that count,
through the same complement that kreweras returns; the brute-force
enumeration of the tests decides by a pairwise interleaving test of its
own.

Ground sizes up to MAX_GROUND_SIZE are accepted; streaming enumeration is
exercised up to n = 14 (2 674 440 partitions) by the test suite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from .errors import Frozen, StructureError, check_at_least, check_at_most

MAX_GROUND_SIZE = 16

Blocks = tuple[tuple[int, ...], ...]


def catalan(k: int) -> int:
    """Return the k-th Catalan number, C_0 = 1."""
    check_at_least("catalan index", k, 0)
    return math.comb(2 * k, k) // (k + 1)


def check_ground_size(n: int) -> None:
    """Refuse a ground size outside 1..MAX_GROUND_SIZE."""
    check_at_least("ground size", n, 1)
    check_at_most("ground size", n, "MAX_GROUND_SIZE", MAX_GROUND_SIZE)


def _normalize_blocks(blocks: Iterable[Iterable[int]]) -> Blocks:
    out = []
    for blk in blocks:
        b = tuple(sorted(blk))
        if not b:
            raise StructureError("empty block")
        out.append(b)
    out.sort(key=lambda b: b[0])
    return tuple(out)


def _check_partition(n: int, blocks: Blocks) -> None:
    seen = [False] * (n + 1)
    count = 0
    for blk in blocks:
        for e in blk:
            if not isinstance(e, int) or not 1 <= e <= n:
                raise StructureError(f"element {e!r} outside 1..{n}")
            if seen[e]:
                raise StructureError(f"element {e} appears twice")
            seen[e] = True
            count += 1
    if count != n:
        raise StructureError(f"blocks cover {count} of {n} elements")


class NCPartition(Frozen):
    """A non-crossing partition of {1, ..., n}.

    Blocks are sorted tuples of ints, listed in order of their minima.
    Instances are immutable and hashable.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        check_ground_size(n)
        norm = _normalize_blocks(blocks)
        _check_partition(n, norm)
        if len(norm) + len(_kreweras_blocks(norm, n)) != n + 1:
            raise StructureError(f"crossing blocks: {norm}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", norm)

    @classmethod
    def _trusted(cls, n: int, blocks: Blocks) -> "NCPartition":
        """Build without validation; callers guarantee the invariants."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)
        return self

    @classmethod
    def zero(cls, n: int) -> "NCPartition":
        """The all-singletons partition 0_n."""
        check_ground_size(n)
        return cls._trusted(n, tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def one(cls, n: int) -> "NCPartition":
        """The single-block partition 1_n."""
        check_ground_size(n)
        return cls._trusted(n, (tuple(range(1, n + 1)),))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def to_lists(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __str__(self):
        return "[" + ",".join("[" + ",".join(map(str, b)) + "]" for b in self.blocks) + "]"

    def __repr__(self):
        return f"NCPartition({self.n}, {self.blocks})"


# ---------------------------------------------------------------------------
# enumeration
#
# Partitions are produced by recursing on the block that contains the least
# element a: each later element c of that block closes off the gap
# {a+1, ..., c-1}, whose blocks cannot meet anything outside it. The whole
# lattice is the one-colour case.


def _parts(colour: Sequence) -> Iterator[Blocks]:
    """Blocks of every partition in NC(m), m = len(colour), whose blocks
    are each of one colour; element i has colour[i - 1].

    The later elements of each head block are restricted to the colour of
    its least element, so the stream keeps first-block order and never
    builds a mixed block.
    """
    col = (None,) + tuple(colour)

    def parts(lo: int, hi: int) -> Iterator[Blocks]:
        if lo >= hi:
            yield ()
            return
        for head, rest in headed(lo, hi):
            yield (head,) + rest

    def headed(a: int, hi: int) -> Iterator[tuple[tuple[int, ...], Blocks]]:
        """Pairs (block containing a, remaining blocks) over the ground range(a, hi)."""
        for rest in parts(a + 1, hi):
            yield (a,), rest
        for c in range(a + 1, hi):
            if col[c] == col[a]:
                for gap in parts(a + 1, c):
                    for tail, rest in headed(c, hi):
                        yield (a,) + tail, gap + rest

    return parts(1, len(col))


def enumerate_nc(n: int) -> Iterator[NCPartition]:
    """Lazily stream every partition in NC(n), in first-block order."""
    check_ground_size(n)
    make = NCPartition._trusted
    return (make(n, blocks) for blocks in _parts((0,) * n))


# ---------------------------------------------------------------------------
# Kreweras complement and Moebius values


def _kreweras_blocks(blocks: Blocks, n: int) -> Blocks:
    # K(pi) is the permutation pi^-1 gamma, gamma = (1 2 ... n), with each
    # block of pi read as the cycle through its elements in increasing order
    # (Nica and Speicher, Lectures on the Combinatorics of Free Probability).
    # For non-crossing pi each cycle of K(pi) climbs from its least element,
    # and the cycles are met in order of their minima.  For crossing pi the
    # cycles are still those of pi^-1 gamma, which NCPartition counts.
    prev = [0] * (n + 1)  # pi^-1
    for blk in blocks:
        prev[blk[0]] = blk[-1]
        for a, b in zip(blk, blk[1:]):
            prev[b] = a
    seen = [False] * (n + 1)
    out = []
    for first in range(1, n + 1):
        cycle = []
        i = first
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = prev[i % n + 1]
        if cycle:
            out.append(tuple(cycle))
    return tuple(out)


def kreweras(p: NCPartition) -> NCPartition:
    """Kreweras complement of p (on the same ground set)."""
    return NCPartition._trusted(p.n, _kreweras_blocks(p.blocks, p.n))


def moebius_from_zero(p: NCPartition) -> int:
    """Moebius function of the interval [0_n, p] in NC(n)."""
    return _moebius_from_zero_blocks(p.blocks)


def _moebius_from_zero_blocks(blocks: Blocks) -> int:
    out = 1
    for blk in blocks:
        m = len(blk) - 1
        out *= (-1) ** m * catalan(m)
    return out


def moebius_to_one(p: NCPartition) -> int:
    """Moebius function of the interval [p, 1_n] in NC(n)."""
    return _moebius_from_zero_blocks(_kreweras_blocks(p.blocks, p.n))


@lru_cache(maxsize=None)
def _weight_table(n: int) -> tuple[tuple[Blocks, int], ...]:
    """All of NC(n) paired with Moebius-to-top weights; shared plumbing."""
    check_ground_size(n)
    out = []
    for blocks in _parts((0,) * n):
        kr = _kreweras_blocks(blocks, n)
        out.append((blocks, _moebius_from_zero_blocks(kr)))
    return tuple(out)


def block_sum(weighted: Iterable[tuple[Blocks, int]], key: Callable, value: Callable):
    """Sum over the (blocks, weight) pairs of weight * prod value(key(B)), B in blocks.

    A falsy key stands for the factor 1 and is never passed to value.  The
    integer weights are summed per sorted multiset of block keys first,
    and those sums per multiset of its truthy keys; one product is formed
    per multiset of nonzero weight, and value is read once per key.
    """
    grouped: dict[tuple, int] = {}
    for blocks, weight in weighted:
        keys = tuple(sorted(map(key, blocks)))
        grouped[keys] = grouped.get(keys, 0) + weight
    collapsed: dict[tuple, int] = {}
    for keys, weight in grouped.items():
        keys = tuple(filter(None, keys))
        collapsed[keys] = collapsed.get(keys, 0) + weight
    values: dict = {}
    total = 0
    for keys, weight in collapsed.items():
        if weight:
            for k in keys:
                if k not in values:
                    values[k] = value(k)
            total = total + prod((values[k] for k in keys), start=weight)
    return total
