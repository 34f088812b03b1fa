"""Closed Laplace-transform route to the cumulants of one-sided words.

Words of the shape 1^k *^l admit a closed two-term description: the
cumulant equals (-1)^(k+l) / ((k-1)! (l-1)!) times (U y^(k+l) + V y^(k+l-2)),
where U and V are integer-coefficient polynomials obtained by applying the
elementary Laplace rule  integral_0^inf exp(-x s) s^m ds = m!/x^(m+1)  to
explicit polynomial integrands.  The integrands have integer
coefficients, so U and V are built from integers, and the cumulant is
read over (k-1)! (l-1)! by qpoly.from_rows.  A finite-interval integral I
relates U and V; the tests check the whole pipeline against a quadrature
of I, and against the Fraction form of the same rule in tests/oracles.py.
"""

from __future__ import annotations

import math

from .errors import SizeError, check_at_least, check_at_most
from .cumulants import ZPolynomial
from .moments import diag_cumulant
from .qpoly import Poly, QuasiPoly, from_rows, sum_of_products

F_ORDER_LIMIT = 8
# k + l of the closed forms, the length of the word 1^k *^l.  From a fresh
# CLI on a 2-core host, special takes 0.3 s at k + l = 512; in-process, U, V
# and Z take 0.05 s at 512 and 0.4 s at 1024.  The cap is kept until a
# benchmark frontier shows a larger one.
KL_LIMIT = 512


def _check_kl(k: int, l: int) -> None:
    if k < 1 or l < 1:
        raise SizeError(f"exponents must be >= 1, got ({k}, {l})")
    check_at_most("k + l =", k + l, "KL_LIMIT", KL_LIMIT)


def _laplace_poly(k: int, l: int, shift: int, sign: int) -> list[int]:
    """The integer coefficients, ascending, of sign x^(k+l-1) times
    integral_0^inf exp(-xs) g(s) ds, where
    g(s) = (s+c)^(2-[k=1]-[l=1]) (s+k-1+c)^(k-2) (s+l-1+c)^(l-2) with c the
    shift, and a factor (s+j-1+c)^(j-2) enters only for j >= 3.  g has
    integer coefficients g_m and degree k+l-2, and the Laplace rule sends
    s^m to m!/x^(m+1), so x^(k+l-2-m) takes sign m! g_m."""
    _check_kl(k, l)
    integrand = Poly((shift, 1)) ** (2 - (k == 1) - (l == 1))
    for a, m in ((k - 1 + shift, k - 2), (l - 1 + shift, l - 2)):
        if m >= 1:  # the factor (s + a)^m, by the binomial theorem
            integrand *= Poly.from_ints(math.comb(m, i) * a ** (m - i) for i in range(m + 1))
    out, fact = [], sign
    for m, c in enumerate(integrand._num):  # over the denominator 1
        fact *= m or 1
        out.append(fact * c)
    out.reverse()
    return out


def u_poly(k: int, l: int) -> Poly:
    """The polynomial U_{k,l}; integer coefficients, degree k+l-2."""
    return Poly.from_ints(_laplace_poly(k, l, shift=1, sign=-1))


def v_poly(k: int, l: int) -> Poly:
    """The polynomial V_{k,l}; integer coefficients, degree k+l-2."""
    return Poly.from_ints(_laplace_poly(k, l, shift=0, sign=1))


def z_from_laplace(k: int, l: int) -> ZPolynomial:
    """Cumulant of the word 1^k *^l assembled from U and V, both over
    (k-1)! (l-1)! with the sign (-1)^(k+l) folded into their numerators."""
    _check_kl(k, l)
    sign, den = (-1) ** (k + l), math.factorial(k - 1) * math.factorial(l - 1)
    value = from_rows({
        -(k + l): (_laplace_poly(k, l, shift=1, sign=-sign), den),
        -(k + l - 2): (_laplace_poly(k, l, shift=0, sign=sign), den),
    })
    return ZPolynomial("1" * k + "*" * l, value)


def v_k1_closed(k: int) -> Poly:
    """Closed form for V_{k,1} as a sum of binomial-factorial terms."""
    check_at_least("k", k, 1)
    if k <= 2:
        return Poly((1,))
    return Poly.from_ints(
        [math.comb(k - 2, j) * math.factorial(k - 1 - j) * (k - 1) ** j for j in range(k - 1)]
    )


def suffix_star_cumulant(k: int) -> QuasiPoly:
    """Cumulant of the word 1^k * via the normalized V family.

    Equals (-y)^(k-1) (V_k(t) - y^2 V_{k+1}(t)) with V_j = V_{j,1}/(j-1)!,
    read over those factorials from the integer coefficients of V_{j,1}.
    """
    check_at_least("k", k, 1)
    sign = (-1) ** (k - 1)
    return from_rows({
        -(k - 1): ([sign * c for c in v_k1_closed(k)._num], math.factorial(k - 1)),
        -(k + 1): ([-sign * c for c in v_k1_closed(k + 1)._num], math.factorial(k)),
    })


def f_bivariate(order: int) -> dict[tuple[int, int], QuasiPoly]:
    """The cumulants of the words 1^k *^l with k + l <= order, keyed by (k, l)."""
    check_at_most("order", order, "F_ORDER_LIMIT", F_ORDER_LIMIT)
    return {
        (k, l): z_from_laplace(k, l).value
        for k in range(1, order)
        for l in range(1, order - k + 1)
    }


def check_f_identity(order: int):
    """Verify F (1 + R_u + R_u*) + R_u R_u* = z w up to total order.

    F is f_bivariate(order), and R_u, R_u* are sum_n r_n z^n and
    sum_n r_n w^n with r_n = diag_cumulant(n).  Neither F nor R_u R_u*
    has a term in which z or w is missing, so only i, j >= 1 are checked,
    and there the (i, j) coefficient of the left side is
    F_ij + sum_{a<i} r_a F_(i-a)j + sum_{b<j} r_b F_i(j-b) + r_i r_j.

    Returns (ok, failures) where failures lists ((i, j), got, expected)
    triples for every coefficient that deviates.
    """
    check_at_least("order", order, 2)
    f = f_bivariate(order)
    r = [QuasiPoly.constant(1)] + [diag_cumulant(n) for n in range(1, order)]
    failures = []
    for i in range(1, order):
        for j in range(1, order + 1 - i):
            pairs = [(r[0], f[(i, j)]), (r[i], r[j])]
            pairs += [(r[a], f[(i - a, j)]) for a in range(1, i)]
            pairs += [(r[b], f[(i, j - b)]) for b in range(1, j)]
            got = sum_of_products(pairs)
            expected = QuasiPoly.constant(1) if (i, j) == (1, 1) else QuasiPoly()
            if got != expected:
                failures.append(((i, j), got, expected))
    return (not failures, failures)
