"""Words in a unitary and its adjoint, and their moment quasi-polynomials.

A Word is a string over the two-letter alphabet {1, *}, standing for a
product of first powers of a unitary (letter 1) and its adjoint (letter *).
The moment of such a word under the free unitary flow depends only
on the signed letter excess d = |#1 - #*|, through the degree-(d-1)
polynomial family Q_d and the substitution y = exp(-t/2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

from .errors import Frozen, SizeError, StructureError
from .qpoly import Poly, QuasiPoly

Letters = tuple[int, ...]


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
        """Parse '1*1' or 'uu*u' style spellings (case-insensitive)."""
        letters = []
        i = 0
        s = text.strip()
        while i < len(s):
            ch = s[i]
            if ch == "1":
                letters.append(1)
                i += 1
            elif ch in ("u", "U"):
                if i + 1 < len(s) and s[i + 1] == "*":
                    letters.append(-1)
                    i += 2
                else:
                    letters.append(1)
                    i += 1
            elif ch == "*":
                letters.append(-1)
                i += 1
            else:
                raise StructureError(f"cannot parse word {text!r} at {ch!r}")
        if not letters:
            raise SizeError(f"empty word {text!r}")
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


def as_word(w: Union[Word, str, Iterable[int]]) -> Word:
    if isinstance(w, Word):
        return w
    if isinstance(w, str):
        return Word.parse(w)
    return Word(w)


@lru_cache(maxsize=None)
def biane_Q(n: int) -> Poly:
    """The degree-(n-1) moment polynomial Q_n, normalized by Q_n(0) = 1."""
    if n < 1:
        raise SizeError(f"Q index must be >= 1, got {n}")
    coeffs = []
    for j in range(n):
        base = Fraction(1, -n) if j == 0 else Fraction((-n) ** (j - 1))
        coeffs.append(-base * math.comb(n, j + 1) / math.factorial(j))
    return Poly(coeffs)


def m_poly(w: Union[Word, str]) -> QuasiPoly:
    """Moment of the word as a quasi-polynomial: Q_d(t) y^d with d the letter excess."""
    word = as_word(w)
    d = abs(word.count_ones - word.count_stars)
    if d == 0:
        return QuasiPoly.constant(1)
    return QuasiPoly({-d: biane_Q(d)})


def diag_cumulant(n: int) -> QuasiPoly:
    """Free cumulant of n copies of the same letter: ((-n)^(n-1)/n!) t^(n-1) y^n."""
    if n < 1:
        raise SizeError(f"order must be >= 1, got {n}")
    c = Fraction((-n) ** (n - 1), math.factorial(n))
    return QuasiPoly({-n: Poly((0,) * (n - 1) + (c,))})
