"""Alternating cumulants xi_n(t) by three routes, plus the PDE defect check.

The cumulant attached to the strictly alternating word of length 2n is a
quasi-polynomial xi_n(t).  Three independent computations produce it: a
quadratic first-order ODE recursion solved exactly with an integrating
factor, the generic Moebius sum over NC(2n), and a compositional
inversion of the expansion of an exponential-rational map chi around its
zero.  The truncated generating function H = 1/2 + sum xi_n z^n obeys
the inviscid-Burgers-type equation dH/dt + 2 z H dH/dz = z; the module
checks that identity exactly on z-coefficients and numerically on grids,
where only the truncation itself contributes a defect.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .cumulants import Z_LIMIT, z_mobius
from .errors import SizeError, StructureError
from .ncpart import catalan
from .qpoly import Poly, QuasiPoly

XI_METHODS = ("recursion", "mobius", "inversion")

# xi_1 = 1 - e^{-t}, the seed shared by every route.
XI_ONE = QuasiPoly({0: 1, -2: -1})


def _as_quasipoly(v) -> QuasiPoly:
    if isinstance(v, QuasiPoly):
        return v
    if isinstance(v, Poly):
        return QuasiPoly.from_poly(v)
    return QuasiPoly.constant(v)


class TruncSeries1:
    """Power series in one formal variable truncated at a fixed order.

    Coefficients live in the quasi-polynomial ring.  The series knows its
    truncation order and drops anything beyond it, so a product of two
    series keeps only the honest common prefix.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise SizeError(f"order must be >= 0, got {order}")
        data = [QuasiPoly()] * (order + 1)
        for n, val in enumerate(coeffs):
            if n > order:
                break
            data[n] = _as_quasipoly(val)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(data))

    def coeff(self, n: int) -> QuasiPoly:
        if not 0 <= n <= self.order:
            raise SizeError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __add__(self, other):
        if not isinstance(other, TruncSeries1):
            return NotImplemented
        order = min(self.order, other.order)
        return TruncSeries1(
            order, [self.coeffs[n] + other.coeffs[n] for n in range(order + 1)]
        )

    def __neg__(self):
        return TruncSeries1(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, TruncSeries1):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly, QuasiPoly)):
            f = _as_quasipoly(other)
            return TruncSeries1(self.order, [c * f for c in self.coeffs])
        if not isinstance(other, TruncSeries1):
            return NotImplemented
        order = min(self.order, other.order)
        data = [QuasiPoly() for _ in range(order + 1)]
        for i in range(order + 1):
            a = self.coeffs[i]
            if a.is_zero:
                continue
            for j in range(order - i + 1):
                b = other.coeffs[j]
                if not b.is_zero:
                    data[i + j] = data[i + j] + a * b
        return TruncSeries1(order, data)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Quotient q with q * other = self, solved one coefficient at a time.

        other needs a nonzero rational constant term c; then q_n =
        (self_n - sum_{k=1}^n other_k q_{n-k}) / c, so a quotient through
        order N takes about N^2/2 coefficient products and no inverse.
        """
        if not isinstance(other, TruncSeries1):
            return NotImplemented
        c0 = _constant_fraction(other.coeffs[0])
        if c0 == 0:
            raise StructureError("cannot divide by a series with constant term 0")
        inv0 = 1 / c0
        order = min(self.order, other.order)
        data: list[QuasiPoly] = []
        for n in range(order + 1):
            s = QuasiPoly()
            for k in range(1, n + 1):
                bk = other.coeffs[k]
                if not bk.is_zero:
                    s = s + bk * data[n - k]
            data.append((self.coeffs[n] - s).scale(inv0))
        return TruncSeries1(order, data)

    def inverse(self) -> "TruncSeries1":
        """Multiplicative inverse, the quotient 1 / self; needs a nonzero rational constant term."""
        return TruncSeries1(self.order, [1]) / self

    def compose(self, inner: "TruncSeries1") -> "TruncSeries1":
        """Substitute a series with zero constant term for the variable."""
        if not inner.coeff(0).is_zero:
            raise StructureError("composition needs inner constant term 0")
        order = min(self.order, inner.order)
        result = TruncSeries1(order, [self.coeffs[order]])
        for k in range(order - 1, -1, -1):
            result = result * inner + TruncSeries1(order, [self.coeffs[k]])
        return result

    def __eq__(self, other):
        if not isinstance(other, TruncSeries1):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries1 is immutable")

    def __repr__(self):
        return f"TruncSeries1(order={self.order})"


def _constant_fraction(q: QuasiPoly) -> Fraction:
    """The value of a quasi-polynomial known to be a plain rational."""
    if q.is_zero:
        return Fraction(0)
    if q.exp2_values() != (0,) or q.grade(0).degree > 0:
        raise StructureError("expected a constant quasi-polynomial")
    return q.grade(0).leading()


def _monomial_inverse(q: QuasiPoly) -> QuasiPoly:
    """Invert c * exp((e2/2) t); anything richer has no inverse in the ring."""
    terms = q.terms
    if len(terms) != 1:
        raise StructureError("not an invertible monomial")
    ((e2, p),) = terms.items()
    if p.degree != 0:
        raise StructureError("not an invertible monomial")
    return QuasiPoly({-e2: Poly((1 / p.leading(),))})


class XiSequence:
    """Exact alternating cumulants xi_1..xi_n plus the route that made them.

    The constructor enforces the structural facts every route must
    deliver: xi_n vanishes at t = 0, only even half-exponents in
    [-2n, 0] occur, the grade-0 part is the signed Catalan constant,
    and the first entry is 1 - e^{-t}.
    """

    __slots__ = ("entries", "method")

    def __init__(self, entries: Iterable[QuasiPoly], method: str):
        entries = tuple(entries)
        if not entries:
            raise SizeError("an XiSequence needs at least one entry")
        if method not in XI_METHODS:
            raise StructureError(f"unknown method {method!r}")
        for n, q in enumerate(entries, start=1):
            if q.value_at_zero() != 0:
                raise StructureError(f"xi_{n}(0) must be 0")
            for e2 in q.exp2_values():
                if e2 > 0 or e2 < -2 * n or e2 % 2:
                    raise StructureError(f"xi_{n} carries an impossible term exp2={e2}")
            want = (-1) ** (n - 1) * catalan(n - 1)
            if q.grade(0) != Poly((want,)):
                raise StructureError(f"xi_{n} constant term must be {want}")
        if entries[0] != XI_ONE:
            raise StructureError("xi_1 must be 1 - e^{-t}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "method", method)

    @property
    def n_max(self) -> int:
        return len(self.entries)

    def xi(self, n: int) -> QuasiPoly:
        if not 1 <= n <= len(self.entries):
            raise SizeError(f"xi_{n} not computed; have 1..{len(self.entries)}")
        return self.entries[n - 1]

    def __eq__(self, other):
        if not isinstance(other, XiSequence):
            return NotImplemented
        return self.entries == other.entries and self.method == other.method

    def __hash__(self):
        return hash((self.entries, self.method))

    def __setattr__(self, name, value):
        raise AttributeError("XiSequence is immutable")

    def __repr__(self):
        return f"XiSequence(n_max={len(self.entries)}, method={self.method!r})"


def _self_convolution(terms: Sequence[QuasiPoly], n: int) -> QuasiPoly:
    """sum_{m=1}^{n-1} c_m c_{n-m} with c_m = terms[m - 1].

    The sum is symmetric in m <-> n - m, so each pair is multiplied once
    and doubled, and the middle square is added once when n is even:
    floor(n/2) products instead of n - 1.
    """
    half = QuasiPoly()
    for m in range(1, (n + 1) // 2):
        half = half + terms[m - 1] * terms[n - m - 1]
    total = half + half
    if n % 2 == 0:
        mid = terms[n // 2 - 1]
        total = total + mid * mid
    return total


def xi_by_recursion(n_max: int) -> XiSequence:
    """Solve the quadratic ODE recursion exactly, one linear IVP per n.

    Each xi_n satisfies xi_n' + n xi_n = -n sum_{m<n} xi_m xi_{n-m} with
    xi_n(0) = 0; multiplying by e^{nt} turns the step into a single
    exact antiderivative.  The convolution counts each pair {m, n - m}
    once, so xi_1..xi_N take about N^2/4 products.
    """
    if n_max < 1:
        raise SizeError(f"n_max must be >= 1, got {n_max}")
    xs: list[QuasiPoly] = [XI_ONE]
    for n in range(2, n_max + 1):
        rhs = _self_convolution(xs, n).scale(-n)
        xs.append(rhs.shift_exp2(2 * n).integrate_from_zero().shift_exp2(-2 * n))
    return XiSequence(xs, "recursion")


def xi_by_mobius(n_max: int) -> XiSequence:
    """Read xi_n off the generic Moebius sum over the alternating 2n-word."""
    if n_max < 1:
        raise SizeError(f"n_max must be >= 1, got {n_max}")
    if 2 * n_max > Z_LIMIT:
        raise SizeError(
            f"xi_{n_max} needs a word of length {2 * n_max}, beyond the Moebius limit {Z_LIMIT}"
        )
    xs = [z_mobius("1*" * n).value for n in range(1, n_max + 1)]
    return XiSequence(xs, "mobius")


def chi_expansion(order: int) -> TruncSeries1:
    """Expand chi(1 + w) as a series in w with quasi-polynomial coefficients.

    chi(c) = c^2 (1 - c^2) e^{ct} / ((1 + c) - (1 - c) e^{ct})^2.  At
    c = 1 + w the numerator becomes (-2w - 5w^2 - 4w^3 - w^4) e^t e^{wt}
    and the denominator ((2 + w) + w e^t e^{wt})^2, a series with
    constant term 4.  The quotient is one series division, solved
    triangularly without forming the inverse of the denominator.
    Coefficients live in the ring extended by e^{+t}; the w^0
    coefficient must cancel to zero exactly.
    """
    if order < 1:
        raise SizeError(f"order must be >= 1, got {order}")
    exp_wt = TruncSeries1(
        order,
        [
            QuasiPoly({2: Poly((0,) * j + (Fraction(1, math.factorial(j)),))})
            for j in range(order + 1)
        ],
    )
    num = TruncSeries1(order, [0, -2, -5, -4, -1]) * exp_wt
    w_exp_wt = TruncSeries1(order, (QuasiPoly(),) + exp_wt.coeffs[:order])
    den = TruncSeries1(order, [2, 1]) + w_exp_wt
    chi = num / (den * den)
    if not chi.coeff(0).is_zero:
        raise StructureError("w^0 coefficient of the expansion must vanish")
    return chi


def lambda_series(order: int) -> TruncSeries1:
    """Compositional inverse of the expansion, solved triangularly.

    Write the inverse as 1 + L(z) with L = lambda_1 z + lambda_2 z^2 + ...
    The identity z = sum_m a_m L^m gives lambda_1 = 1/a_1, where a_1 =
    -(1/2) e^t is the only coefficient ever inverted, and for n >= 2
    lambda_n = -lambda_1 sum_{m=2}^n a_m [z^n] L^m.  A power table holds
    [z^k] L^m, and row m gains its entry at z^n from row m - 1 as
    sum_{j=1}^{n-m+1} lambda_j [z^{n-j}] L^{m-1}, all known by then.  Each
    entry is computed once, so order N takes about N^3/6 products.  Each
    lambda_n is asserted to land back in Q[t, e^{-t}]: the positive
    exponents of the intermediate coefficients must all cancel.
    """
    if order < 1:
        raise SizeError(f"order must be >= 1, got {order}")
    a = chi_expansion(order)
    lam: list[QuasiPoly] = [QuasiPoly(), _monomial_inverse(a.coeff(1))]  # [z^k] L
    powers: list[list[QuasiPoly]] = [[], lam]  # powers[m][k] = [z^k] L^m
    for n in range(2, order + 1):
        powers.append([QuasiPoly()] * n)  # [z^k] L^n vanishes for k < n
        b = QuasiPoly()
        for m in range(2, n + 1):
            prev = powers[m - 1]
            entry = QuasiPoly()
            for j in range(1, n - m + 2):
                entry = entry + lam[j] * prev[n - j]
            powers[m].append(entry)
            am = a.coeff(m)
            if not am.is_zero:
                b = b + am * entry
        lam.append(-(lam[1] * b))
    lam = lam[1:]
    for n, q in enumerate(lam, start=1):
        for e2 in q.exp2_values():
            if e2 > 0 or e2 % 2:
                raise StructureError(
                    f"lambda_{n} escaped Q[t, e^-t]: found exp2={e2}"
                )
    return TruncSeries1(order, [QuasiPoly.constant(1)] + lam)


def lagrange_lambda(order: int) -> TruncSeries1:
    """Independent route to the inverse coefficients via Lagrange's formula.

    lambda_n = (1/n) [w^{n-1}] (w / chi(1+w))^n.  The ratio is the
    invertible monomial a_1 times a unit series, so the negative power
    reduces to one series inverse plus repeated multiplication.  Kept
    as an oracle against the triangular route.
    """
    if order < 1:
        raise SizeError(f"order must be >= 1, got {order}")
    a = chi_expansion(order)
    lam1 = _monomial_inverse(a.coeff(1))
    unit = TruncSeries1(
        order - 1, [QuasiPoly.constant(1)] + [a.coeff(m) * lam1 for m in range(2, order + 1)]
    )
    inv_unit = unit.inverse()
    out = [QuasiPoly.constant(1)]
    power = TruncSeries1(order - 1, [1])
    lam1_power = QuasiPoly.constant(1)
    for n in range(1, order + 1):
        power = power * inv_unit
        lam1_power = lam1_power * lam1
        out.append((power.coeff(n - 1) * lam1_power).scale(Fraction(1, n)))
    return TruncSeries1(order, out)


def xi_by_inversion(n_max: int) -> XiSequence:
    """Recover xi_n coefficientwise from the inverse-series coefficients.

    Squaring H = 1/2 + sum xi_n z^n and the inverse series gives
    xi_n = [n=1] + (1/2) lambda_n + (1/4) sum lambda_m lambda_{n-m}
    - sum xi_m xi_{n-m}, a triangular recovery.  Both convolutions count
    each pair {m, n - m} once, so the recovery through N takes about
    N^2/2 products on top of lambda_series(N).
    """
    if n_max < 1:
        raise SizeError(f"n_max must be >= 1, got {n_max}")
    lam = lambda_series(n_max).coeffs[1:]
    xs: list[QuasiPoly] = []
    for n in range(1, n_max + 1):
        acc = QuasiPoly.constant(1) if n == 1 else QuasiPoly()
        acc = acc + lam[n - 1].scale(Fraction(1, 2))
        acc = acc + _self_convolution(lam, n).scale(Fraction(1, 4))
        xs.append(acc - _self_convolution(xs, n))
    return XiSequence(xs, "inversion")


def chi_roundtrip_defect(order: int) -> TruncSeries1:
    """Compose the expansion with its computed inverse and subtract z.

    An exact zero series certifies the compositional round trip through
    the stated order.
    """
    chi = chi_expansion(order)
    lam = lambda_series(order)
    inner = TruncSeries1(order, (QuasiPoly(),) + lam.coeffs[1:])
    return chi.compose(inner) - TruncSeries1(order, [0, 1])


def pde_z_coefficient(entries: Sequence[QuasiPoly], n: int) -> QuasiPoly:
    """Coefficient of z^n in dH/dt + 2 z H dH/dz - z for truncated H.

    With xi_1..xi_N supplied, coefficients up to 2N are meaningful; they
    vanish identically for n <= N and the truncation defect first shows
    at n = N + 1.
    """
    count = len(entries)
    if count < 1:
        raise SizeError("need at least xi_1")
    if not 1 <= n <= 2 * count:
        raise SizeError(f"need 1 <= n <= {2 * count}, got {n}")
    acc = entries[n - 1].ddt() if n <= count else QuasiPoly()
    for k in range(max(1, n - count), min(n, count) + 1):
        if n - k == 0:
            h = QuasiPoly.constant(Fraction(1, 2))
        else:
            h = entries[n - k - 1]
        acc = acc + (entries[k - 1] * h).scale(2 * k)
    if n == 1:
        acc = acc - QuasiPoly.constant(1)
    return acc


DEFAULT_T_GRID = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(5),
)
DEFAULT_Z_GRID = (
    Fraction(1, 1000),
    Fraction(-1, 1000),
    Fraction(1, 10000),
    Fraction(-1, 10000),
)


class PdeReport(NamedTuple):
    max_residual: float
    defect_order: Optional[int]


def pde_residual(n_max: int, prec_bits: int = 128) -> PdeReport:
    """Numeric size of the truncation defect on small grids.

    Builds xi_1..xi_{n_max} by recursion, forms every z-coefficient of
    the defect through order 2 n_max, records the first order that is
    not identically zero, and evaluates the defect series on the grids.
    """
    import mpmath

    seq = xi_by_recursion(n_max)
    coeffs = [pde_z_coefficient(seq.entries, n) for n in range(1, 2 * n_max + 1)]
    defect_order = None
    for n, c in enumerate(coeffs, start=1):
        if not c.is_zero:
            defect_order = n
            break
    worst = mpmath.mpf(0)
    with mpmath.workprec(prec_bits):
        for t in DEFAULT_T_GRID:
            vals = [c.eval(t, prec_bits) for c in coeffs]
            for z in DEFAULT_Z_GRID:
                zm = mpmath.mpf(z.numerator) / z.denominator
                total = mpmath.mpf(0)
                zpow = mpmath.mpf(1)
                for v in vals:
                    zpow = zpow * zm
                    total += v * zpow
                worst = max(worst, abs(total))
    return PdeReport(float(worst), defect_order)
