"""Closed Laplace-transform route to the cumulants of one-sided words.

Words of the shape 1^k *^l admit a closed two-term description: the
cumulant equals a prefactor times (U y^(k+l) + V y^(k+l-2)), where U and V
are integer-coefficient polynomials obtained by applying the elementary
Laplace rule  integral_0^inf exp(-x s) s^m ds = m!/x^(m+1)  to explicit
polynomial integrands. A finite-interval integral I relates U and V; an
adaptive Gauss-Legendre quadrature of I serves as an independent numeric
oracle for the whole pipeline.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

from .errors import SizeError
from .cumulants import ZPolynomial
from .moments import diag_cumulant
from .qpoly import Poly, QuasiPoly

F_ORDER_LIMIT = 8


def _check_kl(k: int, l: int) -> None:
    if k < 1 or l < 1:
        raise SizeError(f"exponents must be >= 1, got ({k}, {l})")


def _laplace_poly(integrand: Poly, k: int, l: int, negate: bool) -> Poly:
    # x^(k+l-1) * integral_0^inf exp(-xs) integrand(s) ds, term by term
    top = k + l - 2
    coeffs = [Fraction(0)] * (top + 1)
    for m, c in enumerate(integrand.coeffs):
        if c == 0:
            continue
        assert top - m >= 0, "integrand degree exceeds the Laplace budget"
        coeffs[top - m] = c * math.factorial(m) * (-1 if negate else 1)
    return Poly(coeffs)


def u_poly(k: int, l: int) -> Poly:
    """The polynomial U_{k,l}; integer coefficients, degree k+l-2."""
    _check_kl(k, l)
    integrand = Poly((1, 1)) ** (2 - (k == 1) - (l == 1))
    if k >= 3:
        integrand = integrand * Poly((k, 1)) ** (k - 2)
    if l >= 3:
        integrand = integrand * Poly((l, 1)) ** (l - 2)
    return _laplace_poly(integrand, k, l, negate=True)


def v_poly(k: int, l: int) -> Poly:
    """The polynomial V_{k,l}; integer coefficients, degree k+l-2."""
    _check_kl(k, l)
    integrand = Poly((0, 1)) ** (2 - (k == 1) - (l == 1))
    if k >= 3:
        integrand = integrand * Poly((k - 1, 1)) ** (k - 2)
    if l >= 3:
        integrand = integrand * Poly((l - 1, 1)) ** (l - 2)
    return _laplace_poly(integrand, k, l, negate=False)


def z_from_laplace(k: int, l: int) -> ZPolynomial:
    """Cumulant of the word 1^k *^l assembled from U and V."""
    _check_kl(k, l)
    pref = Fraction((-1) ** (k + l), math.factorial(k - 1) * math.factorial(l - 1))
    value = QuasiPoly(
        {
            -(k + l): u_poly(k, l) * pref,
            -(k + l - 2): v_poly(k, l) * pref,
        }
    )
    return ZPolynomial("1" * k + "*" * l, value)


def v_k1_closed(k: int) -> Poly:
    """Closed form for V_{k,1} as a sum of binomial-factorial terms."""
    if k < 1:
        raise SizeError(f"k must be >= 1, got {k}")
    if k <= 2:
        return Poly((1,))
    coeffs = [
        Fraction(math.comb(k - 2, j) * math.factorial(k - 1 - j) * (k - 1) ** j)
        for j in range(k - 1)
    ]
    return Poly(coeffs)


def suffix_star_cumulant(k: int) -> QuasiPoly:
    """Cumulant of the word 1^k * via the normalized V family.

    Equals (-y)^(k-1) (V_k(t) - y^2 V_{k+1}(t)) with V_j = V_{j,1}/(j-1)!.
    """
    if k < 1:
        raise SizeError(f"k must be >= 1, got {k}")
    vk = v_k1_closed(k) * Fraction(1, math.factorial(k - 1))
    vk1 = v_k1_closed(k + 1) * Fraction(1, math.factorial(k))
    sign = (-1) ** (k - 1)
    return QuasiPoly({-(k - 1): vk * sign, -(k + 1): vk1 * (-sign)})


def i_quadrature(k: int, l: int, t, prec_bits: int = 200) -> mpmath.mpf:
    """Numeric value of integral_0^1 exp(-ts) s^2 (s+k-1)^(k-2) (s+l-1)^(l-2) ds.

    Adaptive Gauss-Legendre; interior nodes keep the s = 0 factor harmless
    when k = 1 or l = 1.
    """
    import mpmath

    _check_kl(k, l)
    with mpmath.workprec(prec_bits):
        if isinstance(t, Fraction):
            tv = mpmath.mpf(t.numerator) / t.denominator
        else:
            tv = mpmath.mpf(t)

        def f(s):
            if s == 0:
                return mpmath.mpf(0)
            return (
                mpmath.exp(-tv * s)
                * s**2
                * (s + k - 1) ** (k - 2)
                * (s + l - 1) ** (l - 2)
            )

        return +mpmath.quad(f, [0, 1], method="gauss-legendre")


class TruncSeries2:
    """Bivariate power series truncated at a total order, QuasiPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Mapping[tuple[int, int], QuasiPoly] = ()):
        if order < 0:
            raise SizeError(f"order must be >= 0, got {order}")
        acc: dict[tuple[int, int], QuasiPoly] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for (i, j), val in items:
            if i < 0 or j < 0:
                raise SizeError(f"negative index ({i}, {j})")
            if i + j > order:
                continue
            if isinstance(val, (int, Fraction)):
                val = QuasiPoly.constant(val)
            if not val.is_zero:
                acc[(i, j)] = val
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", dict(sorted(acc.items())))

    def coeff(self, i: int, j: int) -> QuasiPoly:
        return self.coeffs.get((i, j), QuasiPoly())

    def __add__(self, other):
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        order = min(self.order, other.order)
        acc = {ij: v for ij, v in self.coeffs.items() if ij[0] + ij[1] <= order}
        for ij, v in other.coeffs.items():
            if ij[0] + ij[1] <= order:
                acc[ij] = acc[ij] + v if ij in acc else v
        return TruncSeries2(order, acc)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries2):
            return NotImplemented
        order = min(self.order, other.order)
        acc: dict[tuple[int, int], QuasiPoly] = {}
        for (ia, ja), va in self.coeffs.items():
            for (ib, jb), vb in other.coeffs.items():
                i, j = ia + ib, ja + jb
                if i + j > order:
                    continue
                prod = va * vb
                acc[(i, j)] = acc[(i, j)] + prod if (i, j) in acc else prod
        return TruncSeries2(order, acc)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries2 is immutable")

    def __repr__(self):
        return f"TruncSeries2(order={self.order}, nonzero={len(self.coeffs)})"


def f_bivariate(order: int) -> TruncSeries2:
    """The double series with coefficient (k, l) equal to the 1^k *^l cumulant."""
    if order > F_ORDER_LIMIT:
        raise SizeError(f"order {order} exceeds the limit {F_ORDER_LIMIT}")
    coeffs = {}
    for k in range(1, order):
        for l in range(1, order - k + 1):
            coeffs[(k, l)] = z_from_laplace(k, l).value
    return TruncSeries2(order, coeffs)


def check_f_identity(order: int):
    """Verify F (1 + R_u + R_u*) + R_u R_u* = z w up to total order.

    Returns (ok, failures) where failures lists ((i, j), got, expected)
    triples for every coefficient that deviates.
    """
    if order < 2:
        raise SizeError(f"order must be >= 2, got {order}")
    f = f_bivariate(order)
    one = TruncSeries2(order, {(0, 0): QuasiPoly.constant(1)})
    ru = TruncSeries2(order, {(k, 0): diag_cumulant(k) for k in range(1, order + 1)})
    rstar = TruncSeries2(order, {(0, l): diag_cumulant(l) for l in range(1, order + 1)})
    cleared = f * (one + ru + rstar) + ru * rstar
    failures = []
    for i in range(order + 1):
        for j in range(order + 1 - i):
            expected = QuasiPoly.constant(1) if (i, j) == (1, 1) else QuasiPoly()
            got = cleared.coeff(i, j)
            if got != expected:
                failures.append(((i, j), got, expected))
    return (not failures, failures)
