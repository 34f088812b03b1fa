"""Determining sequences of R-diagonal elements.

An R-diagonal element pairs a Haar unitary with a free self-adjoint q;
its joint *-cumulants are supported on alternating words and collapse to
two scalar sequences.  The determining sequence alpha_k and the
infinitesimal determining sequence beta_k (the first-order coefficient
of the approach to stationarity) both arise as Moebius sums over NC(k)
whose block factors are cumulants with q- or q^2-entries; one sum
serves both, with the block holding k taking a plain q for beta_k.
Each block cumulant is a Moebius sum over NC(block size) of moments of
q, so neither sequence enumerates more than NC(k).  These sums and the
expansion below are each one ncpart.block_sum over a key of the block.
beta_k also has an independent expansion: a signed-Catalan weighted sum
over the partitions of {1,...,2n} cut out by five structural conditions.
That support set is built here twice, by filtering the block-pure part
of NC(2n) (blocks wholly in the u- or wholly in the q-positions, which is
the first condition; the lattice enumeration generates it directly from
the u/q colouring) and by a structured generator running over Kreweras
pairs of a smaller lattice, and the two constructions are cross-checked.
The filter over all of NC(2n) is kept as a test oracle.  k_max is
capped at MOBIUS_K_LIMIT = MAX_GROUND_SIZE // 2 = 8, and support sets at
words of length BRUTE_LIMIT = 7, which lie on NC(14).  fractions is
imported by the functions that form a Fraction, so a support set (the ncw
request) loads none.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from random import Random
from typing import Iterable, Optional, Sequence, Union

from .errors import Frozen, InsufficientDataError, SizeError, StructureError
from .errors import check_at_least, check_at_most
from .moments import Word, _signed_catalan, as_word
from .ncpart import (
    MAX_GROUND_SIZE,
    NCPartition,
    _parts,
    _weight_table,
    block_sum,
    enumerate_nc,
    kreweras,
)

Rat = Union[int, "Fraction"]

BRUTE_LIMIT = 7  # letters of a word whose support set nc_omega filters out of NC(2n)
MOBIUS_K_LIMIT = MAX_GROUND_SIZE // 2  # alpha_k, beta_k sum over NC(k); k = 8 takes 0.05 s
STRUCTURED_LIMIT = (MAX_GROUND_SIZE + 2) // 4  # the support set of 1(*1)^(k-1) lies on 4k - 2 points


class Distribution(Frozen):
    """Cumulant data kappa_1..kappa_N of one self-adjoint element q.

    Queries beyond the supplied order raise instead of defaulting to
    zero; silence there would corrupt every Moebius sum built on top.
    """

    __slots__ = ("cumulants",)

    def __init__(self, cumulants: Iterable[Rat]):
        from fractions import Fraction

        vals = tuple(Fraction(c) for c in cumulants)
        if not vals:
            raise SizeError("a Distribution needs at least kappa_1")
        object.__setattr__(self, "cumulants", vals)

    @classmethod
    def point_mass_one(cls, max_order: int) -> "Distribution":
        """q = 1: kappa_1 = 1 and nothing else."""
        check_at_least("max_order", max_order, 1)
        return cls((1,) + (0,) * (max_order - 1))

    @classmethod
    def random_small(cls, rng: Random, max_order: int) -> "Distribution":
        """Random rationals with numerator in [-6, 6], denominator in [1, 6]."""
        from fractions import Fraction

        check_at_least("max_order", max_order, 1)
        return cls(
            Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            for _ in range(max_order)
        )

    @property
    def max_order(self) -> int:
        return len(self.cumulants)

    def kappa(self, n: int) -> Fraction:
        if n < 1:
            raise SizeError(f"kappa_{n} is undefined")
        if n > len(self.cumulants):
            raise InsufficientDataError(
                f"kappa_{n} requested but only {len(self.cumulants)} cumulants supplied"
            )
        return self.cumulants[n - 1]

    def __repr__(self):
        return f"Distribution({[str(c) for c in self.cumulants]})"


def u_indices(w: Union[Word, str]) -> frozenset:
    """Positions of {1..2n} fed by the unitary letters.

    Letter i occupies 2i-1 when plain and 2i when starred; the
    complement collects the q-positions.
    """
    word = as_word(w)
    return frozenset(
        2 * i - 1 if letter == 1 else 2 * i
        for i, letter in enumerate(word.letters, start=1)
    )


def mixed_q_cumulant(d: Distribution, pattern: Sequence[int]) -> Fraction:
    """Cumulant whose entries are powers of q, by the moment-cumulant sum.

    pattern lists the power w_i of q in each of its r slots (1 or 2).
    The value sums, over pi in NC(r), the Moebius weight mu(pi, 1_r)
    times the moments m_{sum of w_i over V} of q over the blocks V of pi.
    """
    widths = tuple(pattern)
    if not widths:
        raise SizeError("pattern must be non-empty")
    if any(width not in (1, 2) for width in widths):
        raise StructureError(f"pattern entries must be 1 or 2, got {widths}")
    return _mixed_cached(widths, d.cumulants)


@lru_cache(maxsize=None)
def _mixed_cached(widths: tuple, kappas: tuple) -> Fraction:
    from fractions import Fraction

    n = sum(widths)
    if n > len(kappas):
        raise InsufficientDataError(
            f"pattern needs kappa_{n} but only {len(kappas)} cumulants supplied"
        )
    # moments m_0..m_n of q: m_j = sum_s kappa_s [z^(j-s)] M(z)^s, M = sum_i m_i z^i, and
    # powers[s][d] = [z^d] M^s needs only m_0..m_d: fill the antidiagonals s + d = j in turn
    moments, powers = [Fraction(1)], [[Fraction(1)] + [0] * n]
    for j in range(1, n + 1):
        powers.append([])
        for s in range(1, j + 1):
            prev, d = powers[s - 1], j - s
            powers[s].append(sum(prev[a] * moments[d - a] for a in range(d + 1)))
        moments.append(sum(kappas[s - 1] * powers[s][j - s] for s in range(1, j + 1)))
    return block_sum(
        _weight_table(len(widths)),
        lambda block: sum(widths[i - 1] for i in block),
        moments.__getitem__,
    )


def check_cumulants(d: Distribution, k_max: int, marked: bool) -> None:
    """Refuse data too short for alpha_1..alpha_k_max, or for beta_1..beta_k_max
    when marked, before any sum runs: alpha_k reads kappa_1..kappa_2k and
    beta_k reads kappa_1..kappa_(2k-1)."""
    order = 2 * k_max - marked
    if order > d.max_order:
        raise InsufficientDataError(
            f"{'beta' if marked else 'alpha'}_{k_max} needs kappa_1..kappa_{order}, "
            f"but only {d.max_order} cumulants were supplied"
        )


def _determining(d: Distribution, k_max: int, marked: bool) -> list:
    """Moebius sums over NC(k), k = 1..k_max, whose blocks contribute
    all-squares cumulants; when marked, the block holding k takes a plain
    q in its last slot."""
    check_at_least("k_max", k_max, 1)
    check_at_most("k_max", k_max, "MOBIUS_K_LIMIT", MOBIUS_K_LIMIT)
    check_cumulants(d, k_max, marked)

    def factor(key):  # (block size, whether the block holds k)
        return mixed_q_cumulant(d, (2,) * (key[0] - 1) + (1 if key[1] else 2,))

    return [
        block_sum(_weight_table(k), lambda block: (len(block), marked and block[-1] == k), factor)
        for k in range(1, k_max + 1)
    ]


def alpha_sequence(d: Distribution, k_max: int) -> list:
    """Determining sequence alpha_1..alpha_{k_max}.

    alpha_k is the Moebius sum over NC(k) with every block contributing
    the all-squares cumulant of its size.
    """
    return _determining(d, k_max, marked=False)


def beta_mobius(d: Distribution, k_max: int) -> list:
    """Infinitesimal determining sequence beta_1..beta_{k_max}.

    The entry tuple carries squares in slots 1..k-1 and a plain q in
    slot k, so the block holding k picks up the single plain entry.
    """
    return _determining(d, k_max, marked=True)


def _connects(elements: Iterable[int], groups: Iterable[Iterable[int]]) -> bool:
    """Whether the groups, read as relations, link all the elements."""
    parent = {e: e for e in elements}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in groups:
        it = iter(g)
        first = find(next(it))
        for e in it:
            root = find(e)
            if root != first:
                parent[root] = first
    head = find(next(iter(parent)))
    return all(find(e) == head for e in parent)


def _alternates_linearly(bits: Sequence[int]) -> bool:
    return all(bits[i] != bits[i + 1] for i in range(len(bits) - 1))


def _alternates_cyclically(bits: Sequence[int]) -> bool:
    """Whether some rotation alternates: at most one cyclically adjacent pair is equal."""
    return sum(a == b for a, b in zip(bits, bits[1:] + bits[:1])) <= 1


def _omega_failure(n: int, blocks, u_set) -> Optional[str]:
    """None when all five support conditions hold, else a short reason.

    Ordered cheapest first: block purity, parity alternation (cyclic for
    the single odd unitary block, straight for even ones), odd-block
    uniqueness, then connectivity with the consecutive pairing.
    """
    odd_u = 0
    for block in blocks:
        in_u = block[0] in u_set
        for b in block[1:]:
            if (b in u_set) != in_u:
                return f"block {list(block)} mixes unitary and q positions"
        if in_u:
            bits = [b & 1 for b in block]
            if len(block) % 2:
                odd_u += 1
                if odd_u > 1:
                    return "more than one odd unitary block"
                if not _alternates_cyclically(bits):
                    return f"odd block {list(block)} parities do not alternate"
            elif not _alternates_linearly(bits):
                return f"even block {list(block)} parities do not alternate"
    if odd_u != 1:
        return f"expected exactly one odd unitary block, found {odd_u}"
    pairs = [(2 * i - 1, 2 * i) for i in range(1, n + 1)]
    if not _connects(range(1, 2 * n + 1), list(blocks) + pairs):
        return "does not join with the consecutive pairing to the full set"
    return None


class OmegaNC(Frozen):
    """A word together with the partitions supporting its derivative at
    the stationary limit.

    The constructor re-checks the five conditions for every member and
    sorts them canonically, so any generator feeding it a bad partition
    fails loudly and set comparisons are order-free.  nc_omega, whose
    filter has just checked every member, builds through _trusted, which
    only sorts.
    """

    __slots__ = ("word", "partitions")

    def __init__(self, word: Union[Word, str], partitions: Iterable[NCPartition]):
        w = as_word(word)
        u_set = u_indices(w)
        parts = []
        for p in partitions:
            if p.n != 2 * w.n:
                raise StructureError(
                    f"partition of {p.n} points cannot support a word of length {w.n}"
                )
            reason = _omega_failure(w.n, p.blocks, u_set)
            if reason is not None:
                raise StructureError(f"{p}: {reason}")
            parts.append(p)
        parts.sort(key=lambda p: p.blocks)
        object.__setattr__(self, "word", w)
        object.__setattr__(self, "partitions", tuple(parts))

    @classmethod
    def _trusted(cls, word: Word, partitions: Iterable[NCPartition]) -> "OmegaNC":
        """Build without re-checking; callers guarantee every member passed _omega_failure."""
        self = object.__new__(cls)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "partitions", tuple(sorted(partitions, key=lambda p: p.blocks)))
        return self

    def __len__(self):
        return len(self.partitions)

    def __iter__(self):
        return iter(self.partitions)

    def __repr__(self):
        return f"OmegaNC(word={self.word}, count={len(self.partitions)})"


@lru_cache(maxsize=None)
def _nc_omega_cached(letters: tuple) -> OmegaNC:
    n = len(letters)
    check_at_most("word length", n, "BRUTE_LIMIT", BRUTE_LIMIT)
    word = Word(letters)
    u_set = u_indices(word)
    colour = [i in u_set for i in range(1, 2 * n + 1)]
    kept = (blocks for blocks in _parts(colour) if _omega_failure(n, blocks, u_set) is None)
    return OmegaNC._trusted(word, (NCPartition._trusted(2 * n, blocks) for blocks in kept))


def nc_omega(w: Union[Word, str]) -> OmegaNC:
    """All supporting partitions of a word of length at most 7, by
    filtering the partitions of NC(2n) whose blocks lie wholly in the u-
    or wholly in the q-positions, the only ones enumerated.  The set is
    built once per word and cached, and the filter checks each candidate
    once: its survivors are not checked again."""
    return _nc_omega_cached(as_word(w).letters)


def beta_enumeration(
    d: Distribution,
    w: Union[Word, str],
    partitions: Optional[OmegaNC] = None,
) -> Fraction:
    """Derivative at the stationary limit as a sum over the support set.

    Each supporting partition contributes its signed-Catalan unitary
    weight times the product of q-cumulants over its q-blocks.  The
    optional partitions argument lets callers reuse a precomputed or
    structurally generated set; it must belong to the same word.
    """
    from fractions import Fraction

    word = as_word(w)
    if partitions is None:
        onc = nc_omega(word)
    else:
        if partitions.word != word:
            raise StructureError("partitions were built for a different word")
        onc = partitions
    u_set = u_indices(word)

    def factor(key):
        unitary, size = key
        return _signed_catalan((size + 1) // 2) if unitary else d.kappa(size)

    weighted = ((p.blocks, 1) for p in onc.partitions)
    return Fraction(block_sum(weighted, lambda block: (block[0] in u_set, len(block)), factor))


def _fat_odd_block(block: Sequence[int]) -> tuple:
    """Inflate a block on {1..k} to unitary positions: 1 -> {1},
    i -> {4i-4, 4i-3} otherwise."""
    out = []
    for i in block:
        if i == 1:
            out.append(1)
        else:
            out.extend((4 * i - 4, 4 * i - 3))
    return tuple(out)


def _fat_even_elements(block: Sequence[int], k: int) -> tuple:
    """Inflate a block on {1..k} to q-positions: i -> {4i-2, 4i-1} for
    i < k and k -> {4k-2}; a sorted block gives sorted positions."""
    out = []
    for j in block:
        if j == k:
            out.append(4 * k - 2)
        else:
            out.extend((4 * j - 2, 4 * j - 1))
    return tuple(out)


def _fat_even_pairing(block: Sequence[int], k: int) -> list:
    """Wrap-around pairing inside one inflated q-block.

    For block {j_1 < ... < j_p}: adjacent pairs {4 j_a - 1, 4 j_{a+1} - 2}
    always; when j_p < k the wrap {4 j_1 - 2, 4 j_p - 1} closes the
    cycle, and when j_p = k the leftover {4 j_1 - 2} stays a singleton.
    """
    members = sorted(block)
    pairing = [
        (4 * members[a] - 1, 4 * members[a + 1] - 2)
        for a in range(len(members) - 1)
    ]
    if members[-1] == k:
        pairing.append((4 * members[0] - 2,))
    else:
        pairing.append((4 * members[0] - 2, 4 * members[-1] - 1))
    return pairing


def check_structured_size(k: int) -> None:
    """Refuse a support set of 1(*1)^(k-1) past the structured generator's cap."""
    check_at_most("k", k, "STRUCTURED_LIMIT", STRUCTURED_LIMIT)


def nc_omega_structured(k: int) -> OmegaNC:
    """Support set of the odd alternating word 1(*1)^{k-1}, generated
    structurally instead of filtered.

    Partitions come as pairs: a partition pi inflated onto the unitary
    positions, and a refinement sigma of the inflated Kreweras
    complement of pi whose join with the wrap-around pairing restores
    each inflated block.  Nothing enumerates NC(4k-2); the constructor
    re-checks every candidate, and brute-force cross-checks at small k
    guard the construction.
    """
    check_at_least("k", k, 1)
    check_structured_size(k)
    word = as_word("1" + "*1" * (k - 1))
    size = 4 * k - 2
    results = []
    for pi in enumerate_nc(k):
        fat_odd = [_fat_odd_block(b) for b in pi.blocks]
        rho = kreweras(pi)
        per_block = []
        for rb in rho.blocks:
            fat = _fat_even_elements(rb, k)
            pairing = _fat_even_pairing(rb, k)
            choices = []
            for sub in enumerate_nc(len(fat)):  # point i of sub is fat[i - 1]
                global_blocks = [tuple(fat[i - 1] for i in b) for b in sub.blocks]
                if _connects(fat, global_blocks + pairing):
                    choices.append(global_blocks)
            per_block.append(choices)
        for combo in itertools.product(*per_block):
            blocks = list(fat_odd)
            for group in combo:
                blocks.extend(group)
            results.append(NCPartition(size, blocks))
    return OmegaNC(word, results)
