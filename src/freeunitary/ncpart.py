"""Non-crossing set partitions of {1, ..., n}.

Provides enumeration (lazy, in a deterministic first-block order), the
Kreweras complement, and Moebius function values between a partition and
the bottom / top elements of the lattice. All values are exact.  The
lattice order, join and restriction, which only the tests use, live in
tests/oracles.py.

Ground sizes up to MAX_GROUND_SIZE are accepted; streaming enumeration is
exercised up to n = 14 (2 674 440 partitions) by the test suite.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import SizeError, StructureError

MAX_GROUND_SIZE = 16

Blocks = tuple[tuple[int, ...], ...]


def catalan(k: int) -> int:
    """Return the k-th Catalan number, C_0 = 1."""
    if k < 0:
        raise SizeError(f"catalan index must be >= 0, got {k}")
    return math.comb(2 * k, k) // (k + 1)


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


def _noncrossing_blocks(blocks: Blocks, n: int) -> bool:
    # single left-to-right pass with a stack of open blocks
    block_id = [0] * (n + 1)
    for idx, blk in enumerate(blocks):
        for e in blk:
            block_id[e] = idx
    first = {idx: blk[0] for idx, blk in enumerate(blocks)}
    last = {idx: blk[-1] for idx, blk in enumerate(blocks)}
    stack: list[int] = []
    for i in range(1, n + 1):
        b = block_id[i]
        if first[b] == i:
            stack.append(b)
        if stack[-1] != b:
            return False
        if last[b] == i:
            stack.pop()
    return True


class NCPartition:
    """A non-crossing partition of {1, ..., n}.

    Blocks are sorted tuples of ints, listed in order of their minima.
    Instances are immutable and hashable.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        if not 1 <= n <= MAX_GROUND_SIZE:
            raise SizeError(f"ground size must be in 1..{MAX_GROUND_SIZE}, got {n}")
        norm = _normalize_blocks(blocks)
        _check_partition(n, norm)
        if not _noncrossing_blocks(norm, n):
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
        if not 1 <= n <= MAX_GROUND_SIZE:
            raise SizeError(f"ground size must be in 1..{MAX_GROUND_SIZE}, got {n}")
        return cls._trusted(n, tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def one(cls, n: int) -> "NCPartition":
        """The single-block partition 1_n."""
        if not 1 <= n <= MAX_GROUND_SIZE:
            raise SizeError(f"ground size must be in 1..{MAX_GROUND_SIZE}, got {n}")
        return cls._trusted(n, (tuple(range(1, n + 1)),))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_containing(self, i: int) -> tuple[int, ...]:
        for blk in self.blocks:
            if i in blk:
                return blk
        raise SizeError(f"element {i} outside 1..{self.n}")

    def to_lists(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __setattr__(self, name, value):
        raise AttributeError("NCPartition is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, NCPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __str__(self):
        return "[" + ",".join("[" + ",".join(map(str, b)) + "]" for b in self.blocks) + "]"

    def __repr__(self):
        return f"NCPartition({self.n}, {self.blocks})"


class GroundMap:
    """Order isomorphism between {1, ..., m} and an m-element label set."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[int]):
        labs = tuple(sorted(labels))
        if not labs:
            raise SizeError("empty label set")
        if len(set(labs)) != len(labs):
            raise StructureError(f"repeated labels: {labs}")
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "_index", {e: i + 1 for i, e in enumerate(labs)})

    def __len__(self):
        return len(self.labels)

    def index_of(self, label: int) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise StructureError(f"label {label} not in ground map") from None

    def label_of(self, i: int) -> int:
        if not 1 <= i <= len(self.labels):
            raise SizeError(f"index {i} outside 1..{len(self.labels)}")
        return self.labels[i - 1]

    def __setattr__(self, name, value):
        raise AttributeError("GroundMap is immutable")


# ---------------------------------------------------------------------------
# enumeration
#
# Partitions are produced by recursing on the block that contains the least
# element: every later element of that block splits off an independent gap
# interval. Small intervals are materialized once and shifted, which keeps
# the stream fast enough to walk NC(14) in well under a minute.

_CACHE_MAX = 9


@lru_cache(maxsize=None)
def _interval_parts(m: int) -> tuple[Blocks, ...]:
    return tuple(_gen_parts(0, m))


def _parts(lo: int, hi: int) -> Iterator[Blocks]:
    m = hi - lo
    if m <= _CACHE_MAX:
        base = _interval_parts(m)
        if lo == 0:
            yield from base
        else:
            for blocks in base:
                yield tuple(tuple(e + lo for e in blk) for blk in blocks)
        return
    yield from _gen_parts(lo, hi)


def _gen_parts(lo: int, hi: int) -> Iterator[Blocks]:
    if lo >= hi:
        yield ()
        return
    for head, rest in _headed(lo, hi):
        yield (head,) + rest


def _headed(a: int, hi: int) -> Iterator[tuple[tuple[int, ...], Blocks]]:
    """Pairs (block containing a, remaining blocks) over the ground range(a, hi)."""
    for rest in _parts(a + 1, hi):
        yield (a,), rest
    for c in range(a + 1, hi):
        for gap in _parts(a + 1, c):
            for tail, rest in _headed(c, hi):
                yield (a,) + tail, gap + rest


def enumerate_nc(n: int) -> Iterator[NCPartition]:
    """Lazily stream every partition in NC(n), in first-block order."""
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise SizeError(f"ground size must be in 1..{MAX_GROUND_SIZE}, got {n}")
    make = NCPartition._trusted
    return (make(n, blocks) for blocks in _parts(1, n + 1))


# ---------------------------------------------------------------------------
# Kreweras complement and Moebius values


def _pair_linked(blocks: Blocks, i: int, j: int) -> bool:
    # i < j may share a Kreweras block iff no block of the partition meets
    # both {i+1, ..., j} and its complement in {1, ..., n}
    for blk in blocks:
        a = bisect_left(blk, i + 1)
        if a == len(blk) or blk[a] > j:
            continue
        if blk[0] <= i or blk[-1] > j:
            return False
    return True


def _kreweras_blocks(blocks: Blocks, n: int) -> Blocks:
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if find(i) != find(j) and _pair_linked(blocks, i, j):
                parent[find(j)] = find(i)

    groups: dict[int, list[int]] = {}
    for e in range(1, n + 1):
        groups.setdefault(find(e), []).append(e)
    return tuple(sorted((tuple(g) for g in groups.values()), key=lambda b: b[0]))


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
    if not 1 <= n <= MAX_GROUND_SIZE:
        raise SizeError(f"ground size must be in 1..{MAX_GROUND_SIZE}, got {n}")
    out = []
    for blocks in _parts(1, n + 1):
        kr = _kreweras_blocks(blocks, n)
        out.append((blocks, _moebius_from_zero_blocks(kr)))
    return tuple(out)

