"""Unit tests for the three xi routes, the inverse series, and the PDE check."""

import math
import re
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
from freeunitary.alternating import XI_METHODS, XI_ONE, _xi_closed
from oracles import _series_mul, chi_inverse, chi_series, series_quotient

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
    with pytest.raises(SizeError):
        TruncSeries1(-1)
    # a plain container: coefficients past the order are dropped, and it has no arithmetic
    assert TruncSeries1(1, [1, 2, 3]).coeffs == (QuasiPoly.constant(1), QuasiPoly.constant(2))
    for name in ("__add__", "__neg__", "__sub__", "__mul__", "compose"):
        assert not hasattr(TruncSeries1, name)


def _reciprocal(s):
    return series_quotient(TruncSeries1(s.order, [1]), s)


def test_trunc_series_inverse():
    s = TruncSeries1(4, [1, 1])
    inv = _reciprocal(s)
    for n in range(5):
        assert inv.coeff(n) == QuasiPoly.constant((-1) ** n)
    prod = _series_mul(s.coeffs, inv.coeffs)
    assert prod[0] == QuasiPoly.constant(1)
    assert all(prod[n].is_zero for n in range(1, 5))
    with pytest.raises(StructureError):
        _reciprocal(TruncSeries1(2, [0, 1]))
    with pytest.raises(StructureError):
        _reciprocal(TruncSeries1(2, [QuasiPoly({-2: 1})]))
    # Division agrees with multiplying by the inverse on quasi-polynomial coefficients.
    a = TruncSeries1(5, [QuasiPoly({2: 1}), 0, QuasiPoly({0: Poly((1, 2)), -2: -3}), 7])
    b = TruncSeries1(5, [2, QuasiPoly({-2: Poly((0, 1))}), QuasiPoly({2: -1, -4: 5})])
    quotient = series_quotient(a, b)
    assert list(quotient.coeffs) == _series_mul(a.coeffs, _reciprocal(b).coeffs)
    assert _series_mul(quotient.coeffs, b.coeffs) == list(a.coeffs)
    with pytest.raises(StructureError):
        series_quotient(a, TruncSeries1(5, [0, 1, 1]))


def test_trunc_series_compose(monkeypatch):
    # The round trip composes by Horner's rule and drops the constant term
    # of 1 + L: with chi(1+w) = 3 + w + w^2 + w^3 and L = 2z + z^2,
    # chi(1 + L) - z = 3 + z + 5z^2 + 12z^3 through z^3.
    from freeunitary import alternating

    monkeypatch.setattr(alternating, "chi_expansion", lambda n: TruncSeries1(n, [3, 1, 1, 1]))
    monkeypatch.setattr(alternating, "lambda_series", lambda n: TruncSeries1(n, [7, 2, 1]))
    assert chi_roundtrip_defect(3) == TruncSeries1(3, [3, 1, 5, 12])
    assert chi_roundtrip_defect(1) == TruncSeries1(1, [3, 1])


def test_pde_and_round_trip_routes_refuse_past_their_caps(monkeypatch):
    # before any sum: the routes they would build are patched to raise
    from freeunitary import alternating

    def never(n):
        raise AssertionError("a sum ran before the refusal")

    for name in ("xi_by_inversion", "chi_expansion", "lambda_series"):
        monkeypatch.setattr(alternating, name, never)
    with pytest.raises(SizeError, match=r"n_max 19 exceeds the limit PDE_LIMIT = 18$"):
        pde_residual(alternating.PDE_LIMIT + 1)
    with pytest.raises(SizeError, match=r"order 22 exceeds the limit CHI_ORDER_LIMIT = 21$"):
        chi_roundtrip_defect(alternating.CHI_ORDER_LIMIT + 1)


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
    # Order 24 reaches both parities of the halved convolutions far past the Moebius cap.
    assert xi_by_inversion(24).entries == xi_by_recursion(24).entries


def test_check_xi_refuses_each_structural_breach():
    from freeunitary.alternating import check_xi

    assert check_xi(2, FROZEN_XI[2]) is FROZEN_XI[2]
    for n, q, named in (
        (2, FROZEN_XI[2] + QuasiPoly({-2: 1}), "xi_2(0) must be 0"),
        (2, FROZEN_XI[2] + QuasiPoly({-6: 1, -4: -1}), "impossible term exp2=-6"),
        (2, FROZEN_XI[2] + QuasiPoly({-3: 1, -4: -1}), "impossible term exp2=-3"),
        (2, FROZEN_XI[2] + QuasiPoly({0: 1, -4: -1}), "constant term must be -1"),
        (1, QuasiPoly({0: 1, -2: Poly((-1, 1))}), "xi_1 must be 1 - e^{-t}"),
    ):
        with pytest.raises(StructureError, match=re.escape(named)):
            check_xi(n, q)


def test_check_xi_zero_test_is_exact_across_denominators():
    # the constant terms of xi_n are summed as integers over the lcm of their
    # denominators: a cancellation across halves is zero, a miss by 1/6 is not
    from freeunitary.alternating import check_xi

    q = QuasiPoly({0: -1, -2: Fraction(7, 2), -4: Fraction(-5, 2)})
    assert check_xi(2, q) is q
    with pytest.raises(StructureError, match=re.escape("xi_2(0) must be 0")):
        check_xi(2, QuasiPoly({0: -1, -2: Fraction(7, 2), -4: Fraction(-7, 3)}))


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


def test_lambda_series_inverts_the_triangular_solve():
    # the L read off the ODE recursion equals the power-table inverse of chi
    for order in range(1, 11):
        assert lambda_series(order) == chi_inverse(order)


def _refuse_products(monkeypatch):
    # every product the series layer can form (TruncSeries1 has no arithmetic),
    # and every route through the xi recursion
    from freeunitary import alternating

    def refuse(*args):
        raise AssertionError("the closed sum must form no product and no lower xi")

    for name in ("sum_of_products", "_row_products", "_xi_rows", "xi_by_recursion"):
        monkeypatch.setattr(alternating, name, refuse)
    monkeypatch.setattr(QuasiPoly, "__mul__", refuse)


def test_lagrange_route_agrees(monkeypatch):
    # The ODE route runs with the expansion of chi disabled, and the closed
    # form with every product and the xi recursion disabled too, so neither
    # reads chi and the closed form reads no series layer.
    from freeunitary import alternating

    def refuse(*args):
        raise AssertionError("the route must not reach this layer")

    monkeypatch.setattr(alternating, "chi_expansion", refuse)
    want = [lambda_series(order) for order in range(1, 25)]
    _refuse_products(monkeypatch)
    for order, tri in enumerate(want, start=1):
        assert lagrange_lambda(order) == tri


def test_chi_expansion_is_its_definition_with_no_product(monkeypatch):
    # the closed sum equals one series division of the definition of chi
    want = [chi_series(order) for order in range(1, 17)]
    _refuse_products(monkeypatch)
    for order, series in enumerate(want, start=1):
        assert chi_expansion(order) == series


def test_chi_expansion_at_zero_and_at_its_top_term():
    # two facts of the definition, with no second route: at t = 0,
    # chi(1+w) = -w/2 - w^2/4, and the top term of chi_n, from g^n alone,
    # is (-1)^n n / 2^n e^{nt}
    chi = chi_expansion(30)
    assert chi.coeff(0).is_zero
    for n in range(1, 31):
        q = chi.coeff(n)
        assert q.value_at_zero() == {1: Fraction(-1, 2), 2: Fraction(-1, 4)}.get(n, 0)
        assert q.exp2_values()[0] == 2 * n
        assert q.grade(-2 * n) == Poly((Fraction((-1) ** n * n, 2**n),))


def test_lambda_at_forty_starts_at_the_catalan_row():
    # at t = 0, (1 + L)^2 = 1 - 4z, so lambda_n(0) = -2 C_{n-1}
    lam = lagrange_lambda(40)
    assert lambda_series(40) == lam
    for n in range(1, 41):
        q = lam.coeff(n)
        assert q.value_at_zero() == -2 * catalan(n - 1)
        assert q.exp2_values()[0] == -2 and q.exp2_values()[-1] == -2 * n
        assert all(e2 % 2 == 0 for e2 in q.exp2_values())


def _patch_x2(monkeypatch, extra):
    # _xi_rows(2) with the (index, coefficient) pairs extra added to X_2; the
    # row base is 2, so index 2j + i holds t^i y^(2j)
    from freeunitary import alternating

    real = alternating._xi_rows
    x1, x2 = real(2)
    monkeypatch.setattr(alternating, "_xi_rows", lambda n: [x1, x2 + extra] if n == 2 else real(n))


def test_lambda_series_refuses_an_impossible_term(monkeypatch):
    # t in X_2: -2 X_2' then puts a constant in grade 0 of Lambda_2
    _patch_x2(monkeypatch, ((1, 1),))
    with pytest.raises(StructureError, match="lambda_2 carries an impossible term exp2=0"):
        lambda_series(2)


def test_lambda_series_refuses_a_xi_row_outside_the_layout(monkeypatch):
    # t y^2 in X_2 reaches the t-degree bound of grade 2, and -2 X_2' keeps
    # it in Lambda_2, whose readback refuses it
    _patch_x2(monkeypatch, ((3, 1),))
    with pytest.raises(StructureError, match=re.escape("lambda_2 carries t-degree 1 at exp2=-2")):
        lambda_series(2)


def test_xi_by_recursion_refuses_a_row_outside_the_layout(monkeypatch):
    # t y^2 in X_2 reaches the t-degree bound of grade 2, and the readback of
    # xi_2 refuses it before any check of the sequence
    _patch_x2(monkeypatch, ((3, 1),))
    with pytest.raises(StructureError, match=re.escape("xi_2 carries t-degree 1 at exp2=-2")):
        xi_by_recursion(2)


@pytest.mark.parametrize(
    "slot, named",
    [
        # t^0 y^4: G = -20 S_5 at grade 4 is divided by n - j = 3
        (10, "24 xi_5 is not integral at exp2=-4"),
        # the constant: -20 divides by 5, leaving a wrong Catalan constant
        (0, "xi_5 constant term must be 14"),
        # t y^2: past the t-degree bound 1 of grade 1, refused before the solve
        (6, "xi_5 carries t-degree 1 at exp2=-2"),
    ],
)
def test_xi_step_refuses_a_wrong_product_sum(monkeypatch, slot, named):
    # S_5, the product sum of step n = 5 (row base 5, so 6 * 5 slots), gains
    # 1 at one slot; both routes that run the xi recursion refuse it and name xi_5
    from freeunitary import alternating

    real = alternating._row_products

    def bumped(pairs, size):
        out = real(pairs, size)
        if size == 30:
            out[slot] += 1
        return out

    monkeypatch.setattr(alternating, "_row_products", bumped)
    for route in (xi_by_recursion, lambda_series):
        with pytest.raises(StructureError, match=re.escape(named)):
            route(5)


def test_lambda_series_reads_no_xi_sequence(monkeypatch):
    # lambda_series takes the integer rows X_n, not the checked xi_n
    from freeunitary import alternating

    want = lagrange_lambda(12)

    def refuse(n_max):
        raise AssertionError("lambda_series must not build an XiSequence")

    monkeypatch.setattr(alternating, "xi_by_recursion", refuse)
    assert lambda_series(12) == want


def test_factorial_scaled_rows_are_integral():
    # (n-1)! xi_n and n! lambda_n lie in Z[t, y], read off the closed routes,
    # which do not run the recursion that relies on it
    lam = lagrange_lambda(40)
    for n in range(1, 41):
        for q, scale in ((_xi_closed(n), math.factorial(n - 1)), (lam.coeff(n), math.factorial(n))):
            assert all((c * scale).denominator == 1 for p in q.terms.values() for c in p.coeffs)


def test_inversion_route_forms_no_product_and_reads_no_lower_xi(monkeypatch):
    # Each xi_n is one closed integer sum: no series or QuasiPoly product, no
    # xi convolution, no expansion of chi and no recursion, so every n stands alone.
    from freeunitary import alternating

    want = xi_by_recursion(24).entries

    def refuse(*args):
        raise AssertionError("the inversion route must not expand chi")

    monkeypatch.setattr(alternating, "chi_expansion", refuse)
    _refuse_products(monkeypatch)
    assert xi_by_inversion(24).entries == want
    for n in (1, 2, 7, 24):
        assert alternating._xi_closed(n) == want[n - 1]
    for n, row in FROZEN_XI.items():
        assert xi_by_inversion(n).xi(n) == row


def test_inversion_equals_recursion_at_forty():
    assert xi_by_inversion(40).entries == xi_by_recursion(40).entries


def test_grade_two_is_a_signed_binomial():
    # grade 2 of xi_n is the e^{-t} term: (-1)^n C(2n, n-1)
    seq = xi_by_inversion(40)
    for n in range(1, 41):
        assert seq.xi(n).grade(2) == Poly(((-1) ** n * math.comb(2 * n, n - 1),))


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


def test_first_pde_defect_is_the_missing_xi_term():
    # with xi_1..xi_N the z^(N+1) equation lacks only the terms of xi_(N+1):
    # its t-derivative, and 2 (N+1) xi_(N+1) times the constant 1/2 of H
    xs = xi_by_inversion(9).entries
    for n in range(1, 9):
        want = -(xs[n].ddt() + xs[n].scale(n + 1))
        assert not want.is_zero
        assert pde_z_coefficient(xs[:n], n + 1) == want


def test_pde_residual_report():
    report = pde_residual(6)
    assert report.defect_order == 7
    assert report.max_residual < 1e-15


def test_pde_residual_equals_the_sum_of_coefficient_evaluations():
    # the shared exponentials give the value of QuasiPoly.eval on each
    # coefficient, summed over the z grid at the same precision
    import mpmath

    from freeunitary.alternating import DEFAULT_T_GRID, DEFAULT_Z_GRID

    report = pde_residual(6)
    worst = mpmath.mpf(0)
    with mpmath.workprec(128):
        for t in DEFAULT_T_GRID:
            vals = [c.eval(t, 128) for c in report.coefficients]
            for z in DEFAULT_Z_GRID:
                zm = mpmath.mpf(z.numerator) / z.denominator
                total, zpow = mpmath.mpf(0), mpmath.mpf(1)
                for v in vals:
                    zpow = zpow * zm
                    total += v * zpow
                worst = max(worst, abs(total))
    assert report.max_residual == float(worst)


def test_route_size_guards():
    with pytest.raises(SizeError):
        xi_by_recursion(0)
    with pytest.raises(SizeError):
        xi_by_mobius(7)  # the Moebius route is capped by the word-length limit


def test_chi_roundtrip_catches_a_wrong_lambda(monkeypatch, capsys):
    # lambda_3 off by 1: chi(1 + L + z^3) = z + a_1 z^3 + O(z^4), a_1 = -(1/2) e^t
    from freeunitary import alternating
    from freeunitary.cli import run

    right = alternating.lambda_series

    def wrong(order):
        lam = list(right(order).coeffs)
        lam[3] = lam[3] + 1
        return TruncSeries1(order, lam)

    monkeypatch.setattr(alternating, "lambda_series", wrong)
    defect = chi_roundtrip_defect(6)
    assert all(defect.coeff(n).is_zero for n in range(3))
    assert defect.coeff(3) == QuasiPoly({2: Fraction(-1, 2)})
    assert run(["verify", "--suite", "chi-roundtrip"]) == 1
    assert "input=z^3 expected=0 got=-(1/2)e^t\n" in capsys.readouterr().out
