"""Determining sequences of R-diagonal elements and limits at large time.

An R-diagonal element pairs a Haar unitary with a free self-adjoint q;
its joint *-cumulants are supported on alternating words and collapse to
two scalar sequences.  The determining sequence alpha_k and the
infinitesimal determining sequence beta_k (the first-order coefficient
of the approach to stationarity) both arise as Moebius sums over NC(k)
whose block factors are cumulants with q- or q^2-entries.  beta_k also
has an independent expansion: a signed-Catalan weighted sum over the
partitions of {1,...,2n} cut out by five structural conditions.  That
support set is built here twice, by brute-force filtering of NC(2n) and
by a structured generator running over Kreweras pairs of a smaller
lattice, and the two constructions are cross-checked.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Iterable, Optional, Sequence, Union

from .cumulants import switch_number, z_mobius
from .errors import InsufficientDataError, SizeError, StructureError
from .moments import Word, as_word
from .ncpart import GroundMap, NCPartition, _weight_table, catalan, enumerate_nc, kreweras

Rat = Union[int, Fraction]

BRUTE_LIMIT = 14
STRUCTURED_LIMIT = 4  # k = 5 needs a ground set of 18 > MAX_GROUND_SIZE


class Distribution:
    """Cumulant data kappa_1..kappa_N of one self-adjoint element q.

    Queries beyond the supplied order raise instead of defaulting to
    zero; silence there would corrupt every Moebius sum built on top.
    """

    __slots__ = ("cumulants",)

    def __init__(self, cumulants: Iterable[Rat]):
        vals = tuple(Fraction(c) for c in cumulants)
        if not vals:
            raise SizeError("a Distribution needs at least kappa_1")
        object.__setattr__(self, "cumulants", vals)

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "Distribution":
        """Parse 'p/q' strings, index n-1 holding kappa_n."""
        return cls(Fraction(s) for s in items)

    @classmethod
    def point_mass_one(cls, max_order: int) -> "Distribution":
        """q = 1: kappa_1 = 1 and nothing else."""
        if max_order < 1:
            raise SizeError(f"max_order must be >= 1, got {max_order}")
        return cls((1,) + (0,) * (max_order - 1))

    @classmethod
    def random_small(cls, rng: Random, max_order: int) -> "Distribution":
        """Random rationals with numerator in [-6, 6], denominator in [1, 6]."""
        if max_order < 1:
            raise SizeError(f"max_order must be >= 1, got {max_order}")
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

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.cumulants == other.cumulants

    def __hash__(self):
        return hash(self.cumulants)

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    def __repr__(self):
        return f"Distribution({[str(c) for c in self.cumulants]})"


def is_alternating(w: Union[Word, str]) -> bool:
    """Even length: letters alternate strictly around the circle; odd
    length: some rotation of the one-extra-letter pattern or its swap.

    Both cases reduce to the cyclic switch count: n for even words,
    n - 1 for odd ones.
    """
    word = as_word(w)
    s = switch_number(word)
    return s == word.n if word.n % 2 == 0 else s == word.n - 1


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


def q_indices(w: Union[Word, str]) -> frozenset:
    word = as_word(w)
    return frozenset(range(1, 2 * word.n + 1)) - u_indices(word)


def haar_limit(w: Union[Word, str]) -> Fraction:
    """Value of the cumulant at the stationary limit of the unitary.

    Read off as the grade-0 constant of the Moebius-route polynomial;
    the closed signed-Catalan form is kept separate as a cross-check.
    """
    p = z_mobius(w).grade(0)
    if p.degree > 0:
        raise StructureError("grade-0 part must be a constant")
    return p.leading()


def haar_derivative(w: Union[Word, str]) -> Fraction:
    """First-order coefficient of the approach to the stationary limit.

    Read off as the grade-1 part of the Moebius-route polynomial, which
    must be a constant; a nonconstant grade-1 part is a hard failure,
    not data.
    """
    p = z_mobius(w).grade(1)
    if p.degree > 0:
        raise StructureError("grade-1 part must be a constant")
    return p.leading()


def mixed_q_cumulant(d: Distribution, pattern: Sequence[int]) -> Fraction:
    """Cumulant whose entries are powers of q, via the product formula.

    pattern lists the power of q in each slot (1 or 2).  Flattening each
    square into two adjacent letters yields an interval grouping sigma;
    the value sums, over partitions whose join with sigma is the full
    set, the products of plain q-cumulants over blocks.
    """
    widths = tuple(pattern)
    if not widths:
        raise SizeError("pattern must be non-empty")
    if any(width not in (1, 2) for width in widths):
        raise StructureError(f"pattern entries must be 1 or 2, got {widths}")
    return _mixed_cached(widths, d.cumulants)


@lru_cache(maxsize=None)
def _mixed_cached(widths: tuple, kappas: tuple) -> Fraction:
    n = sum(widths)
    if n > len(kappas):
        raise InsufficientDataError(
            f"pattern needs kappa_{n} but only {len(kappas)} cumulants supplied"
        )
    groups = []
    pos = 1
    for width in widths:
        groups.append(tuple(range(pos, pos + width)))
        pos += width
    total = Fraction(0)
    for p in enumerate_nc(n):
        if not _connects(range(1, n + 1), list(p.blocks) + groups):
            continue
        term = Fraction(1)
        for block in p.blocks:
            term *= kappas[len(block) - 1]
        total += term
    return total


def alpha_sequence(d: Distribution, k_max: int) -> list:
    """Determining sequence alpha_1..alpha_{k_max}.

    alpha_k is the Moebius sum over NC(k) with every block contributing
    the all-squares cumulant of its size.
    """
    if k_max < 1:
        raise SizeError(f"k_max must be >= 1, got {k_max}")
    out = []
    for k in range(1, k_max + 1):
        total = Fraction(0)
        for blocks, moeb in _weight_table(k):
            term = Fraction(moeb)
            for block in blocks:
                term *= mixed_q_cumulant(d, (2,) * len(block))
            total += term
        out.append(total)
    return out


def beta_mobius(d: Distribution, k_max: int) -> list:
    """Infinitesimal determining sequence beta_1..beta_{k_max}.

    The entry tuple carries squares in slots 1..k-1 and a plain q in
    slot k, so the block holding k picks up the single plain entry.
    """
    if k_max < 1:
        raise SizeError(f"k_max must be >= 1, got {k_max}")
    out = []
    for k in range(1, k_max + 1):
        total = Fraction(0)
        for blocks, moeb in _weight_table(k):
            term = Fraction(moeb)
            for block in blocks:
                if block[-1] == k:
                    widths = (2,) * (len(block) - 1) + (1,)
                else:
                    widths = (2,) * len(block)
                term *= mixed_q_cumulant(d, widths)
            total += term
        out.append(total)
    return out


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
    p = len(bits)
    return any(_alternates_linearly(bits[r:] + bits[:r]) for r in range(p))


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


class OmegaNC:
    """A word together with the partitions supporting its derivative at
    the stationary limit.

    The constructor re-checks the five conditions for every member and
    sorts them canonically, so any generator feeding it a bad partition
    fails loudly and set comparisons are order-free.
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

    def __len__(self):
        return len(self.partitions)

    def __iter__(self):
        return iter(self.partitions)

    def __eq__(self, other):
        if not isinstance(other, OmegaNC):
            return NotImplemented
        return self.word == other.word and self.partitions == other.partitions

    def __hash__(self):
        return hash((self.word, self.partitions))

    def __setattr__(self, name, value):
        raise AttributeError("OmegaNC is immutable")

    def __repr__(self):
        return f"OmegaNC(word={self.word}, count={len(self.partitions)})"


@lru_cache(maxsize=None)
def _nc_omega_cached(letters: tuple) -> tuple:
    n = len(letters)
    if 2 * n > BRUTE_LIMIT:
        raise SizeError(f"brute-force filter limited to 2n <= {BRUTE_LIMIT}")
    u_set = u_indices(Word(letters))
    return tuple(
        p for p in enumerate_nc(2 * n) if _omega_failure(n, p.blocks, u_set) is None
    )


def nc_omega(w: Union[Word, str]) -> OmegaNC:
    """All supporting partitions of a word, by filtering NC(2n)."""
    word = as_word(w)
    return OmegaNC(word, _nc_omega_cached(word.letters))


def _term_u(blocks, u_set) -> int:
    """Signed-Catalan weight carried by the unitary blocks."""
    val = 1
    for block in blocks:
        if block[0] not in u_set:
            continue
        size = len(block)
        half = (size - 1) // 2 if size % 2 else (size - 2) // 2
        val *= (-1) ** half * catalan(half)
    return val


def _term_q(blocks, u_set, d: Distribution) -> Fraction:
    """Product of plain q-cumulants over the q-blocks."""
    val = Fraction(1)
    for block in blocks:
        if block[0] not in u_set:
            val *= d.kappa(len(block))
    return val


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
    word = as_word(w)
    if partitions is None:
        onc = nc_omega(word)
    else:
        if partitions.word != word:
            raise StructureError("partitions were built for a different word")
        onc = partitions
    u_set = u_indices(word)
    total = Fraction(0)
    for p in onc.partitions:
        total += _term_u(p.blocks, u_set) * _term_q(p.blocks, u_set, d)
    return total


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
    i < k and k -> {4k-2}."""
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
    if k < 1:
        raise SizeError(f"k must be >= 1, got {k}")
    if k > STRUCTURED_LIMIT:
        raise SizeError(f"structured generator limited to k <= {STRUCTURED_LIMIT}")
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
            gm = GroundMap(fat)
            choices = []
            for sub in enumerate_nc(len(fat)):
                global_blocks = [
                    tuple(gm.label_of(i) for i in b) for b in sub.blocks
                ]
                if _connects(fat, global_blocks + pairing):
                    choices.append(global_blocks)
            per_block.append(choices)
        for combo in itertools.product(*per_block):
            blocks = list(fat_odd)
            for group in combo:
                blocks.extend(group)
            results.append(NCPartition(size, blocks))
    return OmegaNC(word, results)
