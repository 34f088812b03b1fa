"""Words in a unitary and its adjoint, their moment quasi-polynomials, and
the closed forms that read only the letters.

A Word is a string over the two-letter alphabet {1, *}, standing for a
product of first powers of a unitary (letter 1) and its adjoint (letter *).
The moment of such a word under the free unitary flow depends only
on the signed letter excess d = |#1 - #*|, through the degree-(d-1)
polynomial family Q_d and the substitution y = exp(-t/2).

The stationary limit of a word cumulant and the first-order coefficient
of the approach to it (Prop 6.2, Thm 6.3) depend only on the cyclic
switch count of the letters, so they live here, next to Word: the `haar`
request runs no lattice and no recursion, and prints the integers
haar_cumulant and haar_first_order.  Only haar_limit and haar_derivative form a
Fraction of them, and they import fractions when they are called.
ZPolynomial, a word with its cumulant, lives here too, so that a closed
form (laplace) builds one without loading cumulants.

The functions that form a quasi-polynomial build it from integer rows
through qpoly.from_rows: Q_n over (n-1)!, the moment from the row of Q_d and the diagonal cumulant over
n!.  So a moment or word request loads no fractions.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Iterable, Union

from .errors import Frozen, SizeError, StructureError, check_at_least, check_at_most, quote
from .qpoly import Poly, QuasiPoly, from_rows

Letters = tuple[int, ...]

# the letter excess d of m_poly: the largest d whose Q_d prints, each
# coefficient in lowest terms within the 4300 digits that Python turns into
# text (cli.MAX_DIGITS).  Every Q_d prints up to d = 1372, many from 1373
# on do not, and none past the cap up to 2000 does.  From a fresh CLI on a
# 2-core host, moments of 1^1716 prints 6.6 MB in 3.1 s (5.3 s loaded).
EXCESS_LIMIT = 1716

# the spellings of the two letters; u* is read before u
_TOKENS = {"1": 1, "u": 1, "U": 1, "*": -1, "u*": -1, "U*": -1}
_TOKEN = re.compile(r"[uU]\*|.", re.DOTALL)


class Word(Frozen):
    """An immutable word over {1, *}; letters stored as +1 / -1."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int]):
        letts = tuple(letters)
        if not letts:
            raise SizeError("empty word")
        if any(l not in (1, -1) for l in letts):
            raise StructureError(f"letters must be +1 or -1, got {letts}")
        object.__setattr__(self, "letters", letts)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse '1*1' or 'uu*u' style spellings (case-insensitive).  _TOKEN
        cuts the stripped text into tokens, skipping no character, and each
        token must be a spelling of _TOKENS."""
        letters = []
        for token in _TOKEN.findall(text.strip()):
            if token not in _TOKENS:
                raise StructureError(f"cannot parse word {quote(text)} at {token!r}")
            letters.append(_TOKENS[token])
        if not letters:
            raise SizeError(f"empty word {quote(text)}")
        return cls(letters)

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def count_ones(self) -> int:
        return sum(1 for l in self.letters if l == 1)

    @property
    def count_stars(self) -> int:
        return sum(1 for l in self.letters if l == -1)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return "".join("1" if l == 1 else "*" for l in self.letters)

    def __repr__(self):
        return f"Word.parse({str(self)!r})"


class ZPolynomial(Frozen):
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

    def __repr__(self):
        return f"ZPolynomial({str(self.word)!r}, {self.value!r})"

    def __str__(self):
        return self.value.to_text()


def as_word(w: Union[Word, str, Iterable[int]]) -> Word:
    if isinstance(w, Word):
        return w
    if isinstance(w, str):
        return Word.parse(w)
    return Word(w)


def switch_number(w: Union[Word, str]) -> int:
    """Number of adjacent unequal letter pairs, counted cyclically."""
    letters = as_word(w).letters
    n = len(letters)
    return sum(1 for i in range(n) if letters[i] != letters[(i + 1) % n])


def haar_cumulant(w: Union[Word, str]) -> int:
    """Closed-form cumulant of a Haar unitary for the given word.

    Nonzero exactly on even words that alternate cyclically, where the
    value is the signed Catalan number (-1)^(k-1) C_(k-1) for |w| = 2k.
    """
    word = as_word(w)
    n = word.n
    if n % 2 != 0 or switch_number(word) != n:
        return 0
    return _signed_catalan(n // 2)


def is_alternating(w: Union[Word, str]) -> bool:
    """Even length: letters alternate strictly around the circle; odd
    length: some rotation of the one-extra-letter pattern or its swap.

    Both cases reduce to the cyclic switch count: n for even words,
    n - 1 for odd ones.
    """
    word = as_word(w)
    s = switch_number(word)
    return s == word.n if word.n % 2 == 0 else s == word.n - 1


def haar_limit(w: Union[Word, str]) -> Fraction:
    """Value of the cumulant at the stationary limit of the unitary: the
    Haar cumulant (Prop 6.2)."""
    from fractions import Fraction

    return Fraction(haar_cumulant(w))


def haar_derivative(w: Union[Word, str]) -> Fraction:
    """First-order coefficient of the approach to the stationary limit
    (Thm 6.3): (-1)^(k-1) C_(k-1) on alternating words of odd length
    2k - 1, and 0 on every other word."""
    from fractions import Fraction

    return Fraction(haar_first_order(w))


def haar_first_order(w: Union[Word, str]) -> int:
    """The integer haar_derivative returns as a Fraction."""
    word = as_word(w)
    if word.n % 2 == 0 or not is_alternating(word):
        return 0
    return _signed_catalan((word.n + 1) // 2)


def _signed_catalan(k: int) -> int:
    """(-1)^(k-1) C_(k-1), with the Catalan number by its binomial form so
    that the closed forms load no lattice code (ncpart.catalan is the same)."""
    return (-1) ** (k - 1) * (math.comb(2 * k - 2, k - 1) // k)


@lru_cache(maxsize=None)
def biane_Q(n: int) -> Poly:
    """The degree-(n-1) moment polynomial Q_n, normalized by Q_n(0) = 1.

    Its t^j coefficient is -(-n)^(j-1) C(n, j+1) / j! for j >= 1, so Q_n
    is read over (n-1)! from the integers -(-n)^(j-1) C(n, j+1) (n-1)!/j!."""
    check_at_least("Q index", n, 1)
    num, r = [0] * n, 1  # r = (n-1)!/j!
    for j in range(n - 1, 0, -1):
        num[j] = -((-n) ** (j - 1)) * math.comb(n, j + 1) * r
        r *= j
    num[0] = r  # now (n-1)!, so Q_n(0) = 1
    return Poly.from_ints(num, r)


def m_poly(w: Union[Word, str]) -> QuasiPoly:
    """Moment of the word as a quasi-polynomial: Q_d(t) y^d with d the letter excess."""
    word = as_word(w)
    d = abs(word.count_ones - word.count_stars)
    check_at_most("letter excess", d, "EXCESS_LIMIT", EXCESS_LIMIT)
    if d == 0:
        return from_rows({0: ([1], 1)})
    q = biane_Q(d)
    return from_rows({-d: (list(q._num), q._den)})


def diag_cumulant(n: int) -> QuasiPoly:
    """Free cumulant of n copies of the same letter: ((-n)^(n-1)/n!) t^(n-1) y^n."""
    check_at_least("order", n, 1)
    return from_rows({-n: ([0] * (n - 1) + [(-n) ** (n - 1)], math.factorial(n))})
