"""Unit tests for the Laplace-transform route to the 1^k *^l cumulants."""

import math
from fractions import Fraction

import mpmath
import pytest

from freeunitary import (
    Poly,
    QuasiPoly,
    SizeError,
    suffix_star_cumulant,
    u_poly,
    v_k1_closed,
    v_poly,
    z_from_laplace,
    z_mobius,
    z_recursive,
)
from freeunitary import laplace
from freeunitary.laplace import check_f_identity, f_bivariate
from oracles import i_quadrature, laplace_cumulant, laplace_poly

# Frozen anchors for the two polynomial families.
FROZEN_UV = {
    (1, 1): (Poly((-1,)), Poly((1,))),
    (2, 1): (Poly((-1, -1)), Poly((1,))),
    (1, 2): (Poly((-1, -1)), Poly((1,))),
    (2, 2): (Poly((-2, -2, -1)), Poly((2,))),
}


@pytest.mark.parametrize("kl,want", sorted(FROZEN_UV.items()))
def test_frozen_uv_anchors(kl, want):
    k, l = kl
    assert (u_poly(k, l), v_poly(k, l)) == want


def test_uv_are_symmetric_and_integral():
    for k in range(1, 8):
        for l in range(1, 9 - k):
            u, v = u_poly(k, l), v_poly(k, l)
            assert u == u_poly(l, k)
            assert v == v_poly(l, k)
            assert all(c.denominator == 1 for c in u.coeffs)
            assert all(c.denominator == 1 for c in v.coeffs)
            assert u.degree == k + l - 2
            assert v.degree <= k + l - 2


def test_u_from_v_recurrence():
    for k in range(1, 8):
        assert u_poly(k, 1) == v_poly(k + 1, 1) * Fraction(-1, k)


def test_integer_closed_form_matches_the_fraction_oracle():
    # every k + l <= 16: U and V against the Laplace rule on Fractions, and
    # the assembled cumulant against that oracle and the word recursion
    for k in range(1, 16):
        for l in range(1, 17 - k):
            u, v = u_poly(k, l), v_poly(k, l)
            assert u == laplace_poly(k, l, 1, -1)
            assert v == laplace_poly(k, l, 0, 1)
            z = z_from_laplace(k, l).value
            assert z == laplace_cumulant(k, l)
            assert z == z_recursive("1" * k + "*" * l).value


def test_v_k1_closed_matches_laplace():
    for k in range(1, 9):
        assert v_k1_closed(k) == v_poly(k, 1)


@pytest.mark.parametrize("k", range(1, 8))
def test_closed_form_against_mobius_column(k):
    for l in range(1, 8 - k):
        assert z_from_laplace(k, l).value == z_mobius("1" * k + "*" * l).value


def test_suffix_star_cumulant_matches_generic_route():
    for k in range(1, 8):
        assert suffix_star_cumulant(k) == z_mobius("1" * k + "*").value


def test_suffix_star_frozen_rows():
    assert suffix_star_cumulant(1) == QuasiPoly({0: 1, -2: -1})
    assert suffix_star_cumulant(2) == QuasiPoly({-1: -1, -3: Poly((1, 1))})
    assert suffix_star_cumulant(3) == QuasiPoly(
        {-2: Poly((1, 1)), -4: Poly((-1, -2, Fraction(-3, 2)))}
    )
    assert suffix_star_cumulant(4) == QuasiPoly(
        {-3: Poly((-1, -2, Fraction(-3, 2))), -5: Poly((1, 3, 4, Fraction(8, 3)))}
    )


@pytest.mark.parametrize("kl", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_quadrature_reproduces_the_cumulant(kl):
    k, l = kl
    t = Fraction(3, 2)
    prec = 200
    with mpmath.workprec(prec):
        pref = mpmath.mpf((-1) ** (k + l)) / (
            math.factorial(k - 1) * math.factorial(l - 1)
        )
        tv = mpmath.mpf(t.numerator) / t.denominator
        lhs = (
            pref
            * tv ** (k + l - 1)
            * mpmath.exp(-(k + l - 2) * tv / 2)
            * i_quadrature(k, l, t, prec_bits=prec)
        )
        rhs = z_mobius("1" * k + "*" * l).value.eval(t, prec_bits=prec)
        assert abs(lhs - rhs) < mpmath.mpf("1e-30")


def test_f_bivariate_diagonal_entries():
    f = f_bivariate(4)
    assert f[(1, 1)] == QuasiPoly({0: 1, -2: -1})
    assert f[(2, 2)] == z_mobius("11**").value
    assert (0, 0) not in f
    assert (3, 0) not in f


def test_f_identity_holds_through_order_five():
    ok, failures = check_f_identity(5)
    assert ok
    assert failures == []


def test_f_identity_reports_a_perturbed_coefficient(monkeypatch):
    delta = QuasiPoly({-2: Poly((0, Fraction(1, 3)))})
    exact = laplace.f_bivariate

    def perturbed(order):
        f = exact(order)
        f[(2, 1)] = f[(2, 1)] + delta
        return f

    monkeypatch.setattr(laplace, "f_bivariate", perturbed)
    ok, failures = check_f_identity(3)
    assert not ok
    assert [ij for ij, _, _ in failures] == [(2, 1)]
    ((_, got, expected),) = failures
    assert got - expected == delta


def test_guards():
    with pytest.raises(SizeError):
        u_poly(0, 1)
    with pytest.raises(SizeError):
        v_k1_closed(0)
    with pytest.raises(SizeError):
        f_bivariate(9)
    with pytest.raises(SizeError):
        check_f_identity(1)
