"""Acceptance suite: one test per delivery criterion, pinned tolerances.

Each test states its input range and tolerance inline.  Everything
algebraic is checked for exact equality over Q; the two numeric checks
(quadrature and PDE residual) carry the explicitly pinned bounds 1e-30
and 1e-15 respectively.
"""

import math
from fractions import Fraction
from random import Random

import mpmath
import pytest

from freeunitary import (
    Distribution,
    Poly,
    QuasiPoly,
    Word,
    alpha_sequence,
    beta_enumeration,
    beta_mobius,
    catalan,
    enumerate_nc,
    haar_cumulant,
    haar_derivative,
    haar_limit,
    is_alternating,
    lambda_series,
    nc_omega,
    nc_omega_structured,
    pde_residual,
    pde_z_coefficient,
    suffix_star_cumulant,
    u_poly,
    v_k1_closed,
    v_poly,
    xi_by_inversion,
    xi_by_mobius,
    xi_by_recursion,
    z_from_laplace,
    z_mobius,
    z_recursive,
)
from freeunitary.laplace import check_f_identity
from freeunitary.rdiag import mixed_q_cumulant
from oracles import i_quadrature

SEED = 20260813

# Frozen reference rows (example table, suffix-star cumulants, xi, lambda).
TABLE_Z = {
    "1*": QuasiPoly({0: 1, -2: -1}),
    "11*": QuasiPoly({-1: -1, -3: Poly((1, 1))}),
    "111*": QuasiPoly({-2: Poly((1, 1)), -4: Poly((-1, -2, Fraction(-3, 2)))}),
    "11**": QuasiPoly({-2: 2, -4: Poly((-2, -2, -1))}),
    "1*1*": QuasiPoly({0: -1, -2: 4, -4: Poly((-3, -2))}),
    "1*1": QuasiPoly({-1: -1, -3: Poly((1, 1))}),
}
TABLE_SUFFIX_STAR = {
    1: QuasiPoly({0: 1, -2: -1}),
    2: QuasiPoly({-1: -1, -3: Poly((1, 1))}),
    3: QuasiPoly({-2: Poly((1, 1)), -4: Poly((-1, -2, Fraction(-3, 2)))}),
    4: QuasiPoly(
        {-3: Poly((-1, -2, Fraction(-3, 2))), -5: Poly((1, 3, 4, Fraction(8, 3)))}
    ),
}
TABLE_XI = {
    1: QuasiPoly({0: 1, -2: -1}),
    2: QuasiPoly({0: -1, -2: 4, -4: Poly((-3, -2))}),
    3: QuasiPoly({0: 2, -2: -15, -4: Poly((30, 12)), -6: Poly((-17, -18, -6))}),
    4: QuasiPoly(
        {
            0: -5,
            -2: 56,
            -4: Poly((-196, -56)),
            -6: Poly((264, 208, 48)),
            -8: Poly((-119, -172, -96, Fraction(-64, 3))),
        }
    ),
}
TABLE_LAMBDA = {
    1: QuasiPoly({-2: -2}),
    2: QuasiPoly({-2: 4, -4: Poly((-6, -4))}),
}
EXAMPLE_69 = sorted(
    [
        [[1, 4, 5], [2, 3], [6]],
        [[1, 4, 5], [2], [3], [6]],
        [[1], [2, 3, 6], [4, 5]],
        [[1], [2, 3], [4, 5], [6]],
        [[1], [2, 6], [3], [4, 5]],
    ]
)


def _all_words(n):
    for bits in range(2 ** n):
        yield Word(tuple(1 if (bits >> i) & 1 else -1 for i in range(n)))


def test_01_example_table_reproduced_exactly():
    # six explicit low-order cumulants; exact equality
    for text, want in TABLE_Z.items():
        assert z_mobius(text).value == want


def test_02_two_paths_agree_on_all_words_up_to_length_8():
    # Moebius sum vs concatenation recursion, 510 words; exact equality
    for n in range(1, 9):
        for w in _all_words(n):
            assert z_mobius(w).value == z_recursive(w).value


def test_03_grades_beyond_the_switch_bound_vanish():
    # all words up to length 8; exact vanishing
    for n in range(1, 9):
        for w in _all_words(n):
            assert z_mobius(w).switch_bound_holds()


def test_04_laplace_closed_forms():
    # closed two-term form vs generic route for k + l <= 9; exact equality
    for k in range(1, 9):
        for l in range(1, 10 - k):
            assert z_from_laplace(k, l).value == z_mobius("1" * k + "*" * l).value
            u, v = u_poly(k, l), v_poly(k, l)
            assert all(c.denominator == 1 for c in u.coeffs)
            assert all(c.denominator == 1 for c in v.coeffs)
    for k in range(1, 9):
        assert v_k1_closed(k) == v_poly(k, 1)
    for k, want in TABLE_SUFFIX_STAR.items():
        assert suffix_star_cumulant(k) == want


def test_05_cleared_functional_identity_at_order_6():
    # coefficient (1,1) of the cleared form is 1, everything else 0; exact
    ok, failures = check_f_identity(6)
    assert ok, failures


def test_06_quadrature_matches_symbolic_evaluation():
    # |prefactor * numeric integral - exact evaluation| < 1e-30 at 200 bits
    prec = 200
    bound = mpmath.mpf("1e-30")
    with mpmath.workprec(prec):
        for k in range(1, 6):
            for l in range(1, 7 - k):
                value = z_mobius("1" * k + "*" * l).value
                pref = mpmath.mpf((-1) ** (k + l)) / (
                    math.factorial(k - 1) * math.factorial(l - 1)
                )
                for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
                    tv = mpmath.mpf(t.numerator) / t.denominator
                    lhs = (
                        pref
                        * tv ** (k + l - 1)
                        * mpmath.exp(-(k + l - 2) * tv / 2)
                        * i_quadrature(k, l, t, prec_bits=prec)
                    )
                    rhs = value.eval(t, prec_bits=prec)
                    assert abs(lhs - rhs) < bound


def test_07_three_routes_to_xi_agree():
    # recursion = Moebius through n = 5, = inversion through n = 6; exact
    rec = xi_by_recursion(6)
    mob = xi_by_mobius(5)
    inv = xi_by_inversion(6)
    for n in range(1, 6):
        assert rec.xi(n) == mob.xi(n)
    for n in range(1, 7):
        assert rec.xi(n) == inv.xi(n)
    for n, want in TABLE_XI.items():
        assert rec.xi(n) == want
    lam = lambda_series(2)
    for n, want in TABLE_LAMBDA.items():
        assert lam.coeff(n) == want


def test_08_pde_coefficients_and_residual():
    # with xi_1..xi_6 the z-coefficients vanish identically through order 6
    # (the stated range is through order 5); numeric residual < 1e-15 on
    # |z| = 1e-3 and t in [0, 5]
    seq = xi_by_recursion(6)
    for n in range(1, 7):
        assert pde_z_coefficient(seq.entries, n).is_zero
    report = pde_residual(6)
    assert report.defect_order == 7
    assert report.max_residual < 1e-15


def test_09_haar_asymptotics_for_all_words_up_to_length_7():
    # grade-0 and grade-1 parts of the Moebius sum are constants; they
    # match the closed Catalan form and the signed-Catalan rule, as do
    # haar_limit and haar_derivative; exact
    for n in range(1, 8):
        for w in _all_words(n):
            z = z_mobius(w)
            assert z.grade(0).degree <= 0
            assert z.grade(1).degree <= 0
            assert z.grade(0) == Poly((haar_cumulant(w),)) == Poly((haar_limit(w),))
            if n % 2 == 1 and is_alternating(w):
                k = (n + 1) // 2
                want = Fraction((-1) ** (k - 1) * catalan(k - 1))
            else:
                want = Fraction(0)
            assert z.grade(1) == Poly((want,))
            assert haar_derivative(w) == want


def test_10_example_support_set():
    # the length-3 alternating word has exactly these five partitions
    onc = nc_omega("1*1")
    assert len(onc) == 5
    assert sorted(p.to_lists() for p in onc.partitions) == EXAMPLE_69


def test_11_infinitesimal_sequence_cross_paths():
    # enumeration = Moebius route on words of length 3 and 5 for 20 seeded
    # random cumulant sets; beta_2 closed formula; q = 1 gives signed
    # Catalans for k <= 4; exact equality throughout
    rng = Random(SEED)
    for _ in range(20):
        d = Distribution.random_small(rng, 10)
        bm = beta_mobius(d, 3)
        assert beta_enumeration(d, "1*1") == bm[1]
        assert beta_enumeration(d, "1*1*1") == bm[2]
        k = d.kappa
        assert bm[1] == k(3) + k(2) * k(1) - k(1) ** 3
        assert bm[1] == mixed_q_cumulant(d, (2, 1)) - mixed_q_cumulant(d, (2,)) * k(1)
    one = Distribution.point_mass_one(10)
    for k_idx, value in enumerate(beta_mobius(one, 4), start=1):
        assert value == (-1) ** (k_idx - 1) * catalan(k_idx - 1)
    for k_idx, value in enumerate(alpha_sequence(one, 4), start=1):
        assert value == (-1) ** (k_idx - 1) * catalan(k_idx - 1)


def test_12_emptiness_and_structured_generator():
    # non-alternating words with matching endpoints have empty support for
    # n <= 6, and the structured generator set-equals the brute filter for
    # k <= 3 (k = 4 included: of the 2674440 partitions of its ground set of
    # 14, the filter visits the 17616 whose blocks are each all u-positions or
    # all q-positions)
    for n in range(2, 7):
        for bits in range(2 ** max(n - 2, 0)):
            mid = tuple(1 if (bits >> i) & 1 else -1 for i in range(n - 2))
            word = Word((1,) + mid + (1,))
            if is_alternating(word):
                continue
            assert len(nc_omega(word)) == 0
    for k in (1, 2, 3, 4):
        word = "1" + "*1" * (k - 1)
        assert nc_omega_structured(k) == nc_omega(word)
    assert sum(1 for _ in enumerate_nc(14)) == 2674440
