"""Joint free cumulants of a free unitary flow and its adjoint.

The cumulant attached to a word w over {1, *} is a quasi-polynomial Z_w
whose y-powers (y = exp(-t/2)) all share the parity of |w| and stay within
[0, |w|]. Two independent computation paths are provided: a Moebius sum
over non-crossing partitions weighted by word moments, and a concatenation
recursion that splits the word after rotating it to start with 1 and end
with *. They must agree; the test suite compares them word by word.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Union

from .errors import SizeError, StructureError
from .moments import Letters, Word, as_word, biane_Q, diag_cumulant
from .ncpart import _weight_table, catalan
from .qpoly import POLY_ONE, POLY_ZERO, Poly, QuasiPoly

Z_LIMIT = 12


class ZPolynomial:
    """A word together with its cumulant quasi-polynomial.

    The constructor enforces the structural facts shared by both
    computation paths: only nonpositive half-exponents appear, y-powers
    lie in [0, |w|], and they all have the parity of |w|. Theorem-level
    statements (vanishing above the switch bound, constant low grades)
    are deliberately left to tests and verify suites.
    """

    __slots__ = ("word", "value")

    def __init__(self, word: Union[Word, str], value: QuasiPoly):
        w = as_word(word)
        n = w.n
        for e2 in value.exp2_values():
            m = -e2
            if e2 > 0 or m > n or (m - n) % 2 != 0:
                raise StructureError(
                    f"term y^{m} impossible for a word of length {n}"
                )
        object.__setattr__(self, "word", w)
        object.__setattr__(self, "value", value)

    def grade(self, m: int) -> Poly:
        return self.value.grade(m)

    def switch_bound_holds(self) -> bool:
        """Whether grade(n - 2j) vanishes whenever 2j exceeds the switch number."""
        n = self.word.n
        s = switch_number(self.word)
        for j in range(0, n + 1):
            if 2 * j > s and not self.value.grade(n - 2 * j).is_zero:
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, ZPolynomial)
            and self.word == other.word
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.word, self.value))

    def __setattr__(self, name, value):
        raise AttributeError("ZPolynomial is immutable")

    def __repr__(self):
        return f"ZPolynomial({str(self.word)!r}, {self.value!r})"

    def __str__(self):
        return self.value.to_text("y")


def switch_number(w: Union[Word, str]) -> int:
    """Number of adjacent unequal letter pairs, counted cyclically."""
    letters = as_word(w).letters
    n = len(letters)
    return sum(1 for i in range(n) if letters[i] != letters[(i + 1) % n])


def canonical_word(w: Union[Word, str]) -> Word:
    """Least representative of the orbit under rotation, reversal and swap.

    Words are ordered letter by letter with 1 before *.  On the stored
    letters (+1 before -1) that is the reverse of tuple order, so the least
    representative is the largest letter tuple among the rotations of the
    four variants.
    """
    letters = as_word(w).letters
    n = len(letters)
    swapped = tuple(-l for l in letters)
    doubled = [v + v for v in (letters, letters[::-1], swapped, swapped[::-1])]
    return Word(max(d[r : r + n] for d in doubled for r in range(n)))


def haar_cumulant(w: Union[Word, str]) -> int:
    """Closed-form cumulant of a Haar unitary for the given word.

    Nonzero exactly on even words that alternate cyclically, where the
    value is the signed Catalan number (-1)^(k-1) C_(k-1) for |w| = 2k.
    """
    word = as_word(w)
    n = word.n
    if n % 2 != 0 or switch_number(word) != n:
        return 0
    k = n // 2
    return (-1) ** (k - 1) * catalan(k - 1)


def _mobius_value(letters: Letters) -> QuasiPoly:
    """Raw Moebius-sum evaluation, no canonicalization or caching."""
    n = len(letters)
    acc: dict[int, Poly] = {}
    for blocks, moeb in _weight_table(n):
        ypow = 0
        poly = POLY_ONE
        for blk in blocks:
            d = sum(letters[i - 1] for i in blk)
            if d < 0:
                d = -d
            if d:
                ypow += d
                poly = poly * biane_Q(d)
        e2 = -ypow
        contrib = poly * moeb
        acc[e2] = acc[e2] + contrib if e2 in acc else contrib
    return QuasiPoly(acc)


_MOBIUS_MEMO: dict[Letters, QuasiPoly] = {}
_RECURSIVE_MEMO: dict[Letters, QuasiPoly] = {}


def z_mobius(w: Union[Word, str]) -> ZPolynomial:
    """Cumulant of the word via the Moebius sum over NC(|w|)."""
    word = as_word(w)
    if word.n > Z_LIMIT:
        raise SizeError(f"word length {word.n} exceeds the Moebius limit {Z_LIMIT}")
    key = canonical_word(word).letters
    val = _MOBIUS_MEMO.get(key)
    if val is None:
        val = _mobius_value(key)
        _MOBIUS_MEMO[key] = val
    return ZPolynomial(word, val)


def z_recursive(w: Union[Word, str]) -> ZPolynomial:
    """Cumulant of the word via the concatenation recursion."""
    word = as_word(w)
    return ZPolynomial(word, _recursive_value(word.letters))


def _recursive_value(letters: Letters) -> QuasiPoly:
    key = canonical_word(Word(letters)).letters
    val = _RECURSIVE_MEMO.get(key)
    if val is not None:
        return val
    n = len(letters)
    if n <= 2:
        val = _mobius_value(key)
    elif all(l == key[0] for l in key):
        val = diag_cumulant(n)
    else:
        # rotate so the word starts with 1 and ends with *
        rot = None
        for i in range(n):
            if letters[i] == -1 and letters[(i + 1) % n] == 1:
                rot = letters[i + 1 :] + letters[: i + 1]
                break
        assert rot is not None and rot[0] == 1 and rot[-1] == -1
        total = QuasiPoly()
        for m in range(1, n):
            total = total + _recursive_value(rot[:m]) * _recursive_value(rot[m:])
        val = -total
    _RECURSIVE_MEMO[key] = val
    return val
