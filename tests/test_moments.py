"""Unit tests for words, moment polynomials, and the Lambert series."""

import math
from fractions import Fraction
from itertools import product

import pytest

from freeunitary import Poly, QuasiPoly, SizeError, StructureError, Word, as_word, biane_Q, m_poly
from freeunitary.moments import diag_cumulant
from oracles import biane_q_fractions, diag_cumulant_fractions, lambert_coeff, parse_letters
from oracles import reverse, rotate, subword, swap

# Frozen low-order moment polynomials: the moment of the n-th power is
# Q_n(t) e^{-nt/2} with Q_1 = 1, Q_2 = 1 - t, Q_3 = 1 - 3t + (3/2)t^2.
FROZEN_Q = {
    1: Poly((1,)),
    2: Poly((1, -1)),
    3: Poly((1, -3, Fraction(3, 2))),
    4: Poly((1, -6, 8, Fraction(-8, 3))),
}


def test_word_parse_spellings():
    assert Word.parse("1*1") == Word.parse("uu*u")
    assert Word.parse("uu*u") == Word((1, -1, 1))
    assert str(Word.parse("uu*u")) == "1*1"
    assert as_word("11**") == Word((1, 1, -1, -1))


def _parse_outcome(parse, text):
    try:
        return tuple(parse(text))
    except (SizeError, StructureError) as exc:
        return type(exc), str(exc)


def test_word_parse_agrees_with_the_character_scanner():
    # every string of up to five characters over 1 * u U x, space and
    # newline, and some with surrounding whitespace: the same letters, or
    # the same error type and text
    texts = ["".join(p) for n in range(6) for p in product("1*uUx \n", repeat=n)]
    texts += [f"{pad}{w}{pad}" for pad in (" ", "\t", "\n ", "\r\n") for w in ("u*U", "Uu*", "1 *", "x", "")]
    for text in texts:
        assert _parse_outcome(lambda s: Word.parse(s).letters, text) == _parse_outcome(parse_letters, text)


def test_word_parse_rejects_garbage():
    with pytest.raises(StructureError):
        Word.parse("1x1")
    with pytest.raises(SizeError):
        Word.parse("")
    with pytest.raises(StructureError):
        Word((1, 0))


def test_word_operations():
    w = Word.parse("11*")
    assert w.n == 3
    assert (w.count_ones, w.count_stars) == (2, 1)
    assert rotate(w, 1) == Word.parse("1*1")
    assert rotate(w, 3) == w
    assert reverse(w) == Word.parse("*11")
    assert swap(w) == Word.parse("**1")
    assert subword(w, [1, 3]) == Word.parse("1*")
    with pytest.raises(SizeError):
        subword(w, [0, 1])


@pytest.mark.parametrize("n,want", sorted(FROZEN_Q.items()))
def test_biane_q_low_orders(n, want):
    assert biane_Q(n) == want


def test_integer_q_and_diagonal_cumulant_match_their_fraction_formulas():
    # biane_Q over (n-1)! and diag_cumulant over n!, against the same
    # formulas on Fraction coefficients
    for n in range(1, 61):
        assert biane_Q(n) == biane_q_fractions(n)
        assert diag_cumulant(n) == diag_cumulant_fractions(n)


def test_biane_q_normalization():
    for n in range(1, 10):
        q = biane_Q(n)
        assert q(Fraction(0)) == 1
        assert q.degree == n - 1


def test_m_poly_balanced_words_are_constant():
    for text in ("1*", "*1", "11**", "1*1*", "1**1"):
        assert m_poly(text) == QuasiPoly.constant(1)


def test_m_poly_reads_letter_excess():
    assert m_poly("1") == QuasiPoly({-1: Poly((1,))})
    assert m_poly("11") == QuasiPoly({-2: FROZEN_Q[2]})
    assert m_poly("111") == QuasiPoly({-3: FROZEN_Q[3]})
    assert m_poly("11*") == QuasiPoly({-1: Poly((1,))})
    assert m_poly("***") == m_poly("111")


def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ai * bj
    return out


def _exp_series(w, order):
    # exp of a series with zero constant term, truncated at the order
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    term = list(out)
    for k in range(1, order + 1):
        term = _series_mul(term, w, order)
        term = [c / k for c in term]
        out = [x + y for x, y in zip(out, term)]
    return out


def test_lambert_series_solves_w_exp_w():
    order = 12
    w = [Fraction(0)] + [lambert_coeff(n) for n in range(1, order + 1)]
    lhs = _series_mul(w, _exp_series(w, order), order)
    assert lhs[0] == 0
    assert lhs[1] == 1
    assert all(c == 0 for c in lhs[2:])


def test_diag_cumulant_matches_lambert_coefficient():
    for n in range(1, 9):
        got = diag_cumulant(n)
        assert got == QuasiPoly({-n: Poly((0,) * (n - 1) + (lambert_coeff(n),))})
    assert diag_cumulant(1) == QuasiPoly({-1: Poly((1,))})
    assert diag_cumulant(2) == QuasiPoly({-2: Poly((0, -1))})


def test_index_guards():
    with pytest.raises(SizeError):
        biane_Q(0)
    with pytest.raises(SizeError):
        lambert_coeff(0)
    with pytest.raises(SizeError):
        diag_cumulant(0)
