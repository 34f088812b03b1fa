"""Unit tests for the three xi routes, the inverse series, and the PDE check."""

from fractions import Fraction

import pytest

from freeunitary import (
    Poly,
    QuasiPoly,
    SizeError,
    StructureError,
    TruncSeries1,
    catalan,
    chi_expansion,
    chi_roundtrip_defect,
    lagrange_lambda,
    lambda_series,
    pde_residual,
    pde_z_coefficient,
    xi_by_inversion,
    xi_by_mobius,
    xi_by_recursion,
)
from freeunitary.alternating import XI_METHODS, XI_ONE

# Frozen alternating cumulants xi_1..xi_4.
FROZEN_XI = {
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

# Frozen inverse-series coefficients lambda_1, lambda_2.
FROZEN_LAMBDA = {
    1: QuasiPoly({-2: -2}),
    2: QuasiPoly({-2: 4, -4: Poly((-6, -4))}),
}


def test_trunc_series_basics():
    s = TruncSeries1(3, [1, 2, 3])
    assert s.coeff(0) == QuasiPoly.constant(1)
    assert s.coeff(3).is_zero
    with pytest.raises(SizeError):
        s.coeff(4)
    assert (s * s).coeff(2) == QuasiPoly.constant(10)
    assert (s - s).coeff(1).is_zero


def test_trunc_series_inverse():
    s = TruncSeries1(4, [1, 1])
    inv = s.inverse()
    for n in range(5):
        assert inv.coeff(n) == QuasiPoly.constant((-1) ** n)
    prod = s * inv
    assert prod.coeff(0) == QuasiPoly.constant(1)
    assert all(prod.coeff(n).is_zero for n in range(1, 5))
    with pytest.raises(StructureError):
        TruncSeries1(2, [0, 1]).inverse()
    with pytest.raises(StructureError):
        TruncSeries1(2, [QuasiPoly({-2: 1})]).inverse()
    # Division agrees with multiplying by the inverse on quasi-polynomial coefficients.
    a = TruncSeries1(5, [QuasiPoly({2: 1}), 0, QuasiPoly({0: Poly((1, 2)), -2: -3}), 7])
    b = TruncSeries1(5, [2, QuasiPoly({-2: Poly((0, 1))}), QuasiPoly({2: -1, -4: 5})])
    assert a / b == a * b.inverse()
    assert (a / b) * b == a
    with pytest.raises(StructureError):
        a / TruncSeries1(5, [0, 1, 1])


def test_trunc_series_compose():
    outer = TruncSeries1(3, [0, 1, 1])  # z + z^2
    inner = TruncSeries1(3, [0, 2])  # 2z
    got = outer.compose(inner)
    assert got.coeff(1) == QuasiPoly.constant(2)
    assert got.coeff(2) == QuasiPoly.constant(4)
    with pytest.raises(StructureError):
        outer.compose(TruncSeries1(3, [1, 1]))


@pytest.mark.parametrize("method", XI_METHODS)
def test_frozen_xi_rows(method):
    builder = {
        "recursion": xi_by_recursion,
        "mobius": xi_by_mobius,
        "inversion": xi_by_inversion,
    }[method]
    seq = builder(4)
    assert seq.method == method
    for n, want in FROZEN_XI.items():
        assert seq.xi(n) == want


def test_three_routes_agree_beyond_frozen_rows():
    rec = xi_by_recursion(5)
    mob = xi_by_mobius(5)
    inv = xi_by_inversion(5)
    for n in range(1, 6):
        assert rec.xi(n) == mob.xi(n) == inv.xi(n)
    # Order 14 reaches both parities of the halved convolutions far past the Moebius cap.
    assert xi_by_inversion(14).entries == xi_by_recursion(14).entries


def test_xi_accessor_guards():
    seq = xi_by_recursion(3)
    assert seq.n_max == 3
    assert seq.xi(1) == XI_ONE
    with pytest.raises(SizeError):
        seq.xi(0)
    with pytest.raises(SizeError):
        seq.xi(4)


def test_ode_relation_on_independent_route():
    # -(1/n) xi_n' = xi_n + sum xi_m xi_{n-m} - [n=1], checked on inversion output
    seq = xi_by_inversion(6)
    for n in range(1, 7):
        rhs = seq.xi(n)
        for m in range(1, n):
            rhs = rhs + seq.xi(m) * seq.xi(n - m)
        if n == 1:
            rhs = rhs - QuasiPoly.constant(1)
        assert seq.xi(n).ddt().scale(Fraction(-1, n)) == rhs


def test_sign_and_degree_pattern():
    seq = xi_by_recursion(6)
    for n in range(1, 7):
        q = seq.xi(n)
        assert q.grade(0) == Poly(((-1) ** (n - 1) * catalan(n - 1),))
        for j in range(1, n + 1):
            p = q.grade(2 * j)
            assert p.degree == j - 1
            sign = (-1) ** (n - 1) * (-1) ** j
            assert all(sign * c > 0 for c in p.coeffs)
        assert q.value_at_zero() == 0


def test_chi_expansion_leading_terms():
    chi = chi_expansion(3)
    assert chi.coeff(0).is_zero
    assert chi.coeff(1) == QuasiPoly({2: Fraction(-1, 2)})
    assert chi.coeff(2) == QuasiPoly(
        {4: Fraction(1, 2), 2: Poly((Fraction(-3, 4), Fraction(-1, 2)))}
    )


def test_lambda_series_frozen_rows():
    lam = lambda_series(2)
    assert lam.coeff(0) == QuasiPoly.constant(1)
    for n, want in FROZEN_LAMBDA.items():
        assert lam.coeff(n) == want


def test_lagrange_route_agrees():
    # Order 14 fills power-table rows up to L^14.
    for order in (6, 14):
        assert lagrange_lambda(order) == lambda_series(order)


def test_chi_roundtrip_is_exact():
    defect = chi_roundtrip_defect(6)
    assert all(defect.coeff(n).is_zero for n in range(7))


def test_pde_coefficients_vanish_up_to_truncation():
    seq = xi_by_recursion(5)
    for n in range(1, 6):
        assert pde_z_coefficient(seq.entries, n).is_zero
    assert not pde_z_coefficient(seq.entries, 6).is_zero
    with pytest.raises(SizeError):
        pde_z_coefficient(seq.entries, 11)
    with pytest.raises(SizeError):
        pde_z_coefficient(seq.entries, 0)


def test_pde_residual_report():
    report = pde_residual(6)
    assert report.defect_order == 7
    assert report.max_residual < 1e-15


def test_route_size_guards():
    with pytest.raises(SizeError):
        xi_by_recursion(0)
    with pytest.raises(SizeError):
        xi_by_mobius(7)  # the Moebius route is capped by the word-length limit
