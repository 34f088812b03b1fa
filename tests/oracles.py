"""Lattice helpers on non-crossing partitions that only the tests use.

The order, join and restriction of NC(n) cross-check the Kreweras
complement and the Moebius values of freeunitary.ncpart; nothing in the
package needs them.
"""

from __future__ import annotations

from typing import Iterable

from freeunitary.errors import SizeError, StructureError
from freeunitary.ncpart import (
    GroundMap,
    NCPartition,
    _check_partition,
    _noncrossing_blocks,
    _normalize_blocks,
)


def is_noncrossing(blocks: Iterable[Iterable[int]]) -> bool:
    """Whether the given partition of {1, ..., n} is non-crossing.

    The blocks must form a partition of {1, ..., n} where n is the total
    number of elements; anything else raises StructureError.
    """
    norm = _normalize_blocks(blocks)
    n = sum(len(b) for b in norm)
    _check_partition(n, norm)
    return _noncrossing_blocks(norm, n)


def _require_same_n(p: NCPartition, r: NCPartition) -> int:
    if p.n != r.n:
        raise StructureError(f"mismatched ground sizes {p.n} and {r.n}")
    return p.n


def leq(p: NCPartition, r: NCPartition) -> bool:
    """Reverse refinement order: p <= r iff every block of p sits inside a block of r."""
    n = _require_same_n(p, r)
    rid = [0] * (n + 1)
    for idx, blk in enumerate(r.blocks):
        for e in blk:
            rid[e] = idx
    for blk in p.blocks:
        target = rid[blk[0]]
        for e in blk[1:]:
            if rid[e] != target:
                return False
    return True


def _interleaved(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    # two disjoint sorted tuples cross iff their merge switches origin >= 3 times
    i = j = switches = 0
    last = -1
    while i < len(a) or j < len(b):
        if j >= len(b) or (i < len(a) and a[i] < b[j]):
            cur = 0
            i += 1
        else:
            cur = 1
            j += 1
        if cur != last:
            if last != -1:
                switches += 1
                if switches >= 3:
                    return True
            last = cur
    return False


def join(p: NCPartition, r: NCPartition) -> NCPartition:
    """Least upper bound of p and r in NC(n).

    Computed as the set-partition join (overlap closure) followed by
    repeated merging of interleaved blocks until none cross.
    """
    n = _require_same_n(p, r)
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for source in (p.blocks, r.blocks):
        for blk in source:
            root = find(blk[0])
            for e in blk[1:]:
                parent[find(e)] = root

    groups: dict[int, list[int]] = {}
    for e in range(1, n + 1):
        groups.setdefault(find(e), []).append(e)
    blocks = sorted((tuple(g) for g in groups.values()), key=lambda b: b[0])

    while True:
        merged = False
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                if _interleaved(blocks[i], blocks[j]):
                    fused = tuple(sorted(blocks[i] + blocks[j]))
                    blocks = blocks[:i] + [fused] + blocks[i + 1 : j] + blocks[j + 1 :]
                    blocks.sort(key=lambda b: b[0])
                    merged = True
                    break
            if merged:
                break
        if not merged:
            break
    return NCPartition._trusted(n, tuple(blocks))


def restrict(p: NCPartition, subset: Iterable[int]) -> NCPartition:
    """Induced partition on a subset, relabeled to 1..|subset| by rank."""
    labs = tuple(sorted(set(subset)))
    if not labs:
        raise SizeError("cannot restrict to an empty subset")
    if labs[0] < 1 or labs[-1] > p.n:
        raise SizeError(f"subset {labs} not within 1..{p.n}")
    gm = GroundMap(labs)
    members = set(labs)
    blocks = []
    for blk in p.blocks:
        inter = tuple(gm.index_of(e) for e in blk if e in members)
        if inter:
            blocks.append(inter)
    blocks.sort(key=lambda b: b[0])
    return NCPartition._trusted(len(labs), tuple(blocks))
