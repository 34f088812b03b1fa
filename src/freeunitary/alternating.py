"""Alternating cumulants xi_n(t) by three routes, plus the PDE defect check.

The cumulant attached to the strictly alternating word of length 2n is a
quasi-polynomial xi_n(t).  Three independent computations produce it: a
quadratic first-order ODE recursion, each step one exact linear solve,
the generic Moebius sum over NC(2n), and Lagrange-Buermann inversion of
an exponential-rational map chi around its zero.  With
g = w e^{(1+w)t} / (2+w), chi(1+w) = -(1+w)^2 g / (1+g)^2, and one
kernel, _lagrange_rows, runs the rows S_k = (2+w) S_{k-1} with the
factor tables of [w^j] S_k e^{stw} (_factor_tables, shared across n at
shift 0) behind three closed integer sums, each with no series product
and no division: chi_expansion reads
[w^n] chi(1+w) off g / (1+g)^2 = sum_m (-1)^{m-1} m g^m;
lagrange_lambda (the working route for lambda_n) reads each
lambda_n = [z^n] L of the inverse 1 + L(z); and, since
H = (1+L)/(1+g(L)) - (1+L)/2, xi_by_inversion reads each xi_n with no
lower xi_m, the fastest route.  The truncated generating function
H = 1/2 + sum xi_n z^n obeys the inviscid-Burgers-type equation
dH/dt + 2 z H dH/dz = z, which is the ODE recursion; with
H^2 = z + ((1+L)/2)^2 it gives each lambda_n from xi_n' and lower
lambda_j, and lambda_series, the oracle of lagrange_lambda, reads L
that way.  Both recursions run on factorial-scaled integer rows with no
denominator, X_m = (m-1)! xi_m and Lambda_m = m! lambda_m, each one flat
row of qpoly, and each convolution is one call of qpoly._row_products,
the kernel of the word recursion, over its symmetric half with binomial
weights.  Each xi step is solved on the integer list by exact divisions
(_xi_rows, which yields each X_m with its right side, off which
lambda_series reads X_m'), and a row becomes a QuasiPoly only when
qpoly._readback reads it over its factorial.  The round trip composes
the expansion of chi with that L by Horner's rule, one sum_of_products
per coefficient.
The module checks the equation exactly on z-coefficients and
numerically on grids, where only the truncation itself contributes a
defect.  The module imports no fractions: the constant 1/2 of H is an
integer row over 2, and the grids DEFAULT_T_GRID and DEFAULT_Z_GRID are
(numerator, denominator) pairs that pde_residual turns into mpmath
numbers, so an xi request loads none.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .cumulants import Z_LIMIT, z_mobius
from .errors import Frozen, SizeError, StructureError, check_at_least, check_at_most
from .moments import _signed_catalan
from .qpoly import QuasiPoly, Row, _readback, _row_products, _sparse, from_rows, sum_of_products

XI_METHODS = ("recursion", "mobius", "inversion")

# Both caps were set at one budget, about 10 s from a fresh process on a
# 2-core host (Python 3.11).  pde_residual runs at 128 bits: n = 18 takes
# 0.6 to 0.9 s from a fresh process, and with the cap lifted n = 20 takes
# about 1.4 s and n = 24 2.0 to 3.3 s in-process, well under that budget;
# the cap stays at 18 until a benchmark frontier shows the gain.  The
# chi-roundtrip suite took 7.4 to 7.7 s at order 21 and 10.6 s at 22.
PDE_LIMIT = 18
CHI_ORDER_LIMIT = 21

# xi_1 = 1 - e^{-t}, the seed shared by every route.
XI_ONE = from_rows({0: ([1], 1), -2: ([-1], 1)})
# the leading 1 of the inverse series 1 + L(z)
_ONE = from_rows({0: ([1], 1)})


class TruncSeries1(Frozen):
    """Power series in one formal variable truncated at a fixed order: a
    checked result container.

    Coefficients live in the quasi-polynomial ring; the constructor pads
    missing ones with zero, drops any beyond the order and coerces
    rationals.  The type has no arithmetic: each series product is one
    sum_of_products at the place that needs it.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        check_at_least("order", order, 0)
        data = [QuasiPoly()] * (order + 1)
        for n, val in enumerate(coeffs):
            if n > order:
                break
            data[n] = val if isinstance(val, QuasiPoly) else QuasiPoly.constant(val)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(data))

    def coeff(self, n: int) -> QuasiPoly:
        if not 0 <= n <= self.order:
            raise SizeError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __repr__(self):
        return f"TruncSeries1(order={self.order})"


def check_xi(n: int, q: QuasiPoly) -> QuasiPoly:
    """Return q after checking the structural facts every route's xi_n has.

    xi_n vanishes at t = 0, only even half-exponents in [-2n, 0] occur,
    the grade-0 part is the signed Catalan constant, and xi_1 is
    1 - e^{-t}.  All on integers: xi_n(0) is the sum of the constant
    numerators over the lcm of the denominators, and grade 0, once every
    exp2 is at most 0, is the first of the exp2-descending terms.
    """
    terms = q._terms
    den = math.lcm(*[p._den for _, p in terms])
    if sum([p._num[0] * (den // p._den) for _, p in terms]):
        raise StructureError(f"xi_{n}(0) must be 0")
    for e2, _ in terms:
        if e2 > 0 or e2 < -2 * n or e2 % 2:
            raise StructureError(f"xi_{n} carries an impossible term exp2={e2}")
    want = _signed_catalan(n)
    if not terms or terms[0][0] or terms[0][1]._num != (want,) or terms[0][1]._den != 1:
        raise StructureError(f"xi_{n} constant term must be {want}")
    if n == 1 and q != XI_ONE:
        raise StructureError("xi_1 must be 1 - e^{-t}")
    return q


class XiSequence(Frozen):
    """Exact alternating cumulants xi_1..xi_n plus the route that made them.

    The constructor runs check_xi on every entry.
    """

    __slots__ = ("entries", "method")

    def __init__(self, entries: Iterable[QuasiPoly], method: str):
        entries = tuple(entries)
        if not entries:
            raise SizeError("an XiSequence needs at least one entry")
        if method not in XI_METHODS:
            raise StructureError(f"unknown method {method!r}")
        for n, q in enumerate(entries, start=1):
            check_xi(n, q)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "method", method)

    @property
    def n_max(self) -> int:
        return len(self.entries)

    def xi(self, n: int) -> QuasiPoly:
        if not 1 <= n <= len(self.entries):
            raise SizeError(f"xi_{n} not computed; have 1..{len(self.entries)}")
        return self.entries[n - 1]

    def __repr__(self):
        return f"XiSequence(n_max={len(self.entries)}, method={self.method!r})"


def _xi_rows(n_max: int) -> Iterator[tuple[Row, int, list[int]]]:
    """Step by step, (X_n, c, S_n): the flat integer row of X_n = (n-1)! xi_n
    and the right side G_n = c S_n of its equation, n = 1..N, N = n_max.

    Grade j of a flat row of qpoly in base B = N is y^(2j): grade 2j of
    xi_n has t-degree below max(j, 1) <= B and j <= n, and X_n lies in
    Z[t, y] (Biane's Q_d has its t^j coefficient in Z/j!, which the
    Moebius sum keeps).  S_n = sum_m C(n-2, m-1) X_m X_{n-m}, a dense list
    of (n+1) B entries, is one qpoly._row_products over the pairs
    {m, n - m}; X_n' + n X_n = G_n, X_n(0) = 0, c = -n(n-1) (G_1 = 1: c = 1,
    S_1 the dense row of 1), is P' + (n-j) P = G_j on grade 2j, so for j < n
    p_i = (g_i - (i+1) p_{i+1}) / (n-j) from the top t-power down; for
    j = n, p_{i+1} = g_i / (i+1) and p_0 = -sum_{j<n} P_j(0).  So grade j
    of S_n must have t-degree below max(j, 1), and grade n below n - 1:
    one check refuses any nonzero slot past that bound, naming the
    t-degree it would give xi_n, and each grade is solved only below it.
    Every division is exact, so one that leaves a remainder, or a grade 0
    other than (n-1)! times the signed Catalan constant of xi_n, is refused.
    """
    base = n_max
    rows: list[Row] = [((0, 1), (base, -1))]  # rows[n - 1] = X_n; X_1 = xi_1
    yield rows[0], 1, [1] + [0] * (2 * base - 1)
    fact = 1  # (n-1)!
    for n in range(2, n_max + 1):
        fact *= n - 1
        pairs = [
            (rows[m - 1], rows[n - m - 1], math.comb(n - 2, m - 1) << (2 * m != n))
            for m in range(1, n // 2 + 1)
        ]
        s = _row_products(pairs, (n + 1) * base)
        for j in range(n + 1):
            lo, w = j * base, max(j, 1) - (j == n)
            if any(s[lo + w : lo + base]):
                i = w
                while not s[lo + i]:
                    i += 1
                raise StructureError(f"xi_{n} carries t-degree {i + (j == n)} at exp2={-2 * j}")
        c = -n * (n - 1)  # G_n = c S_n
        x = [0] * len(s)
        at0 = 0
        for j in range(n):
            p, lo = 0, j * base
            for i in range(max(j, 1) - 1, -1, -1):
                p, r = divmod(c * s[lo + i] - (i + 1) * p, n - j)
                if r:
                    raise StructureError(f"{fact} xi_{n} is not integral at exp2={-2 * j}")
                x[lo + i] = p
            at0 += p
        top = n * base
        for i in range(n - 1):
            p, r = divmod(c * s[top + i], i + 1)
            if r:
                raise StructureError(f"{fact} xi_{n} is not integral at exp2={-2 * n}")
            x[top + i + 1] = p
        x[top] = -at0
        if x[0] != fact * _signed_catalan(n):
            raise StructureError(f"xi_{n} constant term must be {_signed_catalan(n)}")
        rows.append(_sparse(x))
        yield rows[-1], c, s


def xi_by_recursion(n_max: int) -> XiSequence:
    """Solve the quadratic ODE recursion exactly, one linear IVP per n.

    Each xi_n satisfies xi_n' + n xi_n = -n R_n with xi_n(0) = 0, where
    R_n = sum_{m<n} xi_m xi_{n-m}.  The steps run on the integer rows of
    _xi_rows, each read back over (n-1)!; the right sides go unread.
    """
    check_at_least("n_max", n_max, 1)
    rows = [row for row, _, _ in _xi_rows(n_max)]
    xs = [
        _readback(row, n_max, math.factorial(n - 1), 0, -2, lambda j: max(j, 1), f"xi_{n}")
        for n, row in enumerate(rows, 1)
    ]
    return XiSequence(xs, "recursion")


def check_mobius_size(n_max: int) -> None:
    """Refuse an n_max whose alternating word (1*)^n_max is past Z_LIMIT."""
    check_at_most("Moebius word length", 2 * n_max, "Z_LIMIT", Z_LIMIT)


def xi_by_mobius(n_max: int) -> XiSequence:
    """Read xi_n off the generic Moebius sum over the alternating 2n-word."""
    check_at_least("n_max", n_max, 1)
    check_mobius_size(n_max)
    xs = [z_mobius("1*" * n).value for n in range(1, n_max + 1)]
    return XiSequence(xs, "mobius")


def _factor_tables(k_max: int, shift: int = 0) -> list[list[int]]:
    """The factor tables f_k[c] = s^c k!/c!, c = 0..k, s = shift - k, for
    k = 0..k_max.  At shift 0, f_k[c] = (-k)^c k!/c! depends on k alone,
    so lagrange_lambda and xi_by_inversion build one list for every n."""
    tables, fact = [], 1
    for k in range(k_max + 1):
        if k:
            fact *= k
        f = [fact]
        for c in range(1, k + 1):
            f.append(f[-1] * (shift - k) // c)
        tables.append(f)
    return tables


def _lagrange_rows(base: list, tables: Sequence[list[int]]) -> Iterator[tuple]:
    """The one kernel of the closed sums for chi_n, lambda_n and xi_n.

    Each sum (Lagrange-Buermann, Stanley EC2 5.4, for lambda_n and xi_n)
    runs over k of e^{st} [w^j] S_k(w) e^{stw} with s = shift - k.  For
    k = 0..len(base) - 1 this yields (k, S_{k-1}, S_k, f): the integer
    rows S_0 = base and S_k = (2+w) S_{k-1}, truncated at the length of
    base (S_{-1} = S_0), and f = tables[k], the factor table of
    _factor_tables at that shift, so
        k! [w^j] S(w) e^{stw} = sum_{c<=j} f[c] S[j-c] t^c  for j <= k,
    with f[0] = k! the denominator: O(len(base)^2) integer operations.
    """
    prev = row = base
    for k in range(len(base)):
        if k:
            prev, row = row, [2 * row[0]] + [2 * row[j] + row[j - 1] for j in range(1, len(row))]
        yield k, prev, row, tables[k]


def chi_expansion(order: int) -> TruncSeries1:
    """Expand chi(1 + w) as a series in w with quasi-polynomial coefficients.

    chi(c) = c^2 (1 - c^2) e^{ct} / ((1 + c) - (1 - c) e^{ct})^2, so
    chi(1+w) = -(1+w)^2 g / (1+g)^2 with g = w e^{(1+w)t} / (2+w), and
    g / (1+g)^2 = sum_m (-1)^{m-1} m g^m makes each coefficient the finite sum
        [w^n] chi(1+w) = -sum_{m=1}^n (-1)^{m-1} m e^{mt} [w^{n-m}] (1+w)^2 (2+w)^{-m} e^{mtw}.
    Term m = n - k reads the row S_k = 4^n (1+w)^2 (2+w)^{k-n} of
    _lagrange_rows with shift n, as integer numerators over k! 4^n: no
    series product and no division.  Coefficients live in the ring
    extended by e^{+t}, and the w^0 coefficient is 0.  Only the round trip
    reads the expansion.
    """
    check_at_least("order", order, 1)
    coeffs = [QuasiPoly()]
    for n in range(1, order + 1):
        # 4^n [w^j] (2+w)^{-n}, then times (1+w)^2, truncated at w^{n-1}
        inv = [0, 0] + [(-1) ** j * math.comb(n + j - 1, j) << (n - j) for j in range(n)]
        base = [inv[j + 2] + 2 * inv[j + 1] + inv[j] for j in range(n)]
        rows = {}
        for k, _, s, f in _lagrange_rows(base, _factor_tables(n - 1, n)):
            m = n - k
            num = [(-1) ** m * m * f[c] * s[k - c] for c in range(k + 1)]
            rows[2 * m] = (num, f[0] << 2 * n)
        coeffs.append(from_rows(rows))
    return TruncSeries1(order, coeffs)


def lambda_series(order: int) -> TruncSeries1:
    """The inverse-series coefficients lambda_n read off the ODE recursion: the oracle.

    Write the inverse of chi as 1 + L(z), L = lambda_1 z + lambda_2 z^2 + ...
    It satisfies H^2 = z + ((1 + L)/2)^2, and the recursion xi_n' + n xi_n
    + n sum_{m<n} xi_m xi_{n-m} = [n = 1] says [z^n] (H^2 - z) = -xi_n'/n
    for every n >= 1.  So (1 + L)^2 / 4 = 1/4 - sum_n (xi_n'/n) z^n, and
        lambda_n = -(2/n) xi_n' - (1/2) sum_{j=1}^{n-1} lambda_j lambda_{n-j}.
    On Lambda_n = n! lambda_n and X_n = (n-1)! xi_n that is Lambda_n =
    -2 X_n' - sum_{j<n/2} C(n, j) Lambda_j Lambda_{n-j} - C(n, n/2)/2 Lambda_{n/2}^2,
    in Z[t, y] since C(n, n/2) is even.  Step n of _xi_rows solves
    X_n' = G_n - n X_n, so -2 X_n' = 2n X_n - 2 G_n: 2n X_n is one more term,
    against the row of 1, of one qpoly._row_products on the flat rows, and
    -2 G_n one pass over the step's dense S_n; Lambda_n is read back over n!
    and refused if it has a nonzero grade 0 or a t-degree outside the
    layout.  The route reads the xi recursion, not the expansion of chi,
    and shares no code with the closed form lagrange_lambda.
    """
    check_at_least("order", order, 1)
    base = order
    lam: list[QuasiPoly] = []  # lam[j - 1] = lambda_j
    rows = []  # rows[j - 1] = Lambda_j
    fact = 1  # n!
    for n, (x, c, s) in enumerate(_xi_rows(order), 1):
        fact *= n
        name = f"lambda_{n}"
        pairs = [
            (rows[j - 1], rows[n - j - 1], -(math.comb(n, j) >> (2 * j == n)))
            for j in range(1, n // 2 + 1)
        ] + [(x, ((0, 1),), 2 * n)]  # 2n X_n, against the row of 1
        g2 = 2 * c  # -2 G_n = -g2 S_n
        out = [u - g2 * v for u, v in zip(_row_products(pairs, (n + 1) * base), s)]
        if any(out[:base]):
            raise StructureError(f"{name} carries an impossible term exp2=0")
        rows.append(_sparse(out))
        lam.append(_readback(rows[-1], base, fact, 0, -2, lambda j: max(j, 1), name))
    return TruncSeries1(order, [_ONE] + lam)


def _inverse_terms(n: int, a2: Sequence[int], b2: Sequence[int], tables: Sequence) -> dict:
    """The rows k = 1..n of the closed sums of lagrange_lambda and _xi_closed.

    Term k is (-1)^n / n times
        e^{-kt} ( a_k [w^{k-1}] e^{-ktw} S_k - b_k [w^k] e^{-ktw} (2 R_{k-1} + tw R_k) )
    over the rows S_k = (2+w)^k (1+w)^{-2n} of _lagrange_rows at shift 0,
    whose factor tables, those of _factor_tables(m) for any m >= n, the
    caller shares across n; R_k = (1+w) S_k is read off S_{k-1} and S_k,
    not kept as a row.  With 2 a_k = a2[k-1] and 2 b_k = b2[k-1], term k
    is the row {-2k: (integer numerators, 2 k! n)} of qpoly.from_rows.
    """
    sign = (-1) ** n
    base = [(-1) ** j * math.comb(2 * n + j - 1, j) for j in range(n + 1)]  # [w^j] (1+w)^{-2n}
    rows = {}
    for k, sp, s, f in _lagrange_rows(base, tables):
        if not k:
            continue
        a = sign * a2[k - 1]
        num = [a * f[d] * s[k - 1 - d] for d in range(k)]
        b = sign * b2[k - 1]
        if b:  # [w^j] R_k = S_k[j] + S_k[j-1]
            for d in range(k):
                j = k - d
                tail = 2 * f[d] * (sp[j] + sp[j - 1]) + (f[d - 1] * (s[j] + s[j - 1]) if d else 0)
                num[d] -= b * tail
        rows[-2 * k] = (num, 2 * n * f[0])
    return rows


def lagrange_lambda(order: int) -> TruncSeries1:
    """The inverse-series coefficients lambda_n = [z^n] L in closed form.

    By Lagrange-Buermann (Stanley, EC2 5.4), [z^n] L = (1/n) [w^{n-1}]
    (w / chi(1+w))^n, and w/g = (2+w) e^{-(1+w)t}, so expanding (1+g)^{2n}
    by the binomial theorem gives (-1)^n / n times
        sum_{k=1}^{n} C(2n, n-k) e^{-kt} [w^{k-1}] (2+w)^k (1+w)^{-2n} e^{-ktw}:
    the a-part of _inverse_terms with a_k = C(2n, n-k) and no b-part, one
    O(n^2) integer pass per n, with no series product and no expansion of
    chi.  This is the working route; lambda_series, read off the ODE
    recursion, is its oracle.
    """
    check_at_least("order", order, 1)
    lam, tables = [], _factor_tables(order)
    for n in range(1, order + 1):
        a2 = [2 * math.comb(2 * n, n - k) for k in range(1, n + 1)]
        lam.append(from_rows(_inverse_terms(n, a2, [0] * n, tables)))
    return TruncSeries1(order, [_ONE] + lam)


def _xi_closed(n: int, tables: Optional[Sequence] = None) -> QuasiPoly:
    """xi_n as one finite sum of integers by Lagrange-Buermann (Stanley, EC2 5.4).

    H = F(L) - (1+L)/2 with F(w) = (1+w)/(1+g), and [z^n] F(L) =
    (1/n) [w^{n-1}] F'(w) (w / chi(1+w))^n.  With P = (1+g)^{2n-1},
    F'(w) (1+g)^{2n} = P - (1+w) P' / (2n-1), and g' = g (2 + tw(2+w)) /
    (w(2+w)).  Expanding both powers of 1 + g by the binomial theorem and
    folding in -lambda_n / 2 through C(2n, j) = C(2n-1, j) + C(2n-1, j-1)
    gives xi_n = (-1)^{n+1} C(2n-2, n-1) / n plus the terms of
    _inverse_terms with a_k = (C(2n-1, n-k) - C(2n-1, n-k-1)) / 2 and
    b_k = C(2n-2, n-k-1), which is 0 at k = n: O(n^2) integer operations.
    tables are the factor tables of _factor_tables(m) for some m >= n;
    xi_n alone builds its own.
    """
    a2 = [math.comb(2 * n - 1, n - k) - math.comb(2 * n - 1, n - k - 1) for k in range(1, n)] + [1]
    b2 = [2 * math.comb(2 * n - 2, n - k - 1) for k in range(1, n)] + [0]
    constant = ([(-1) ** (n + 1) * math.comb(2 * n - 2, n - 1)], n)
    rows = _inverse_terms(n, a2, b2, tables or _factor_tables(n))
    return from_rows({0: constant, **rows})


def xi_by_inversion(n_max: int) -> XiSequence:
    """Each xi_n in closed form from the compositional inverse 1 + L of chi.

    xi_n is the one integer sum of _xi_closed: no series product, no
    [z^n] L^2, no xi convolution and no lower xi_m, so every n stands
    alone and is independent of the ODE recursion, which is its oracle.
    """
    check_at_least("n_max", n_max, 1)
    tables = _factor_tables(n_max)
    return XiSequence([_xi_closed(n, tables) for n in range(1, n_max + 1)], "inversion")


def chi_roundtrip_defect(order: int) -> TruncSeries1:
    """chi(1 + L(z)) - z through z^order, for the L of lambda_series.

    With a_m = [w^m] chi(1+w), the sum of a_m L^m runs by Horner's rule
    from a_order down to a_0, each step one truncated product with L (its
    constant term 1 dropped) as one sum_of_products per coefficient.  L is
    read off the ODE recursion, not solved against the expansion, so an
    exact zero series certifies that it inverts chi through the stated
    order, which is capped at CHI_ORDER_LIMIT.
    """
    check_at_most("order", order, "CHI_ORDER_LIMIT", CHI_ORDER_LIMIT)
    a = chi_expansion(order).coeffs
    lam = lambda_series(order).coeffs
    acc = [a[order]] + [QuasiPoly()] * order
    for k in range(order - 1, -1, -1):
        acc = [a[k]] + [
            sum_of_products((acc[i], lam[n - i]) for i in range(n)) for n in range(1, order + 1)
        ]
    acc[1] = acc[1] - 1
    return TruncSeries1(order, acc)


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
    h = [from_rows({0: ([1], 2)})] + list(entries)  # h[k] = [z^k] H
    acc = sum_of_products(
        (entries[k - 1].scale(2 * k), h[n - k]) for k in range(max(1, n - count), min(n, count) + 1)
    )
    if n <= count:
        acc = acc + entries[n - 1].ddt()
    if n == 1:
        acc = acc - _ONE
    return acc


# the t and z grids of pde_residual, as (numerator, denominator) pairs
DEFAULT_T_GRID = ((0, 1), (1, 2), (1, 1), (2, 1), (5, 1))
DEFAULT_Z_GRID = ((1, 1000), (-1, 1000), (1, 10000), (-1, 10000))


class PdeReport(NamedTuple):
    max_residual: float
    defect_order: Optional[int]
    coefficients: tuple  # the exact defect coefficients of z^1..z^(2 n_max)


def pde_residual(n_max: int) -> PdeReport:
    """Numeric size of the truncation defect on small grids.

    Builds xi_1..xi_{n_max} by the closed inversion sum, not by the
    recursion whose equations the defect checks, forms every z-coefficient
    of the defect through order 2 n_max, records the first order that is
    not identically zero, and evaluates the defect series on the grids at
    128 bits, each coefficient by QuasiPoly.eval.  The report carries the
    exact coefficients too.  n_max is capped at PDE_LIMIT.
    """
    check_at_most("n_max", n_max, "PDE_LIMIT", PDE_LIMIT)
    import mpmath

    seq = xi_by_inversion(n_max)
    coeffs = tuple(pde_z_coefficient(seq.entries, n) for n in range(1, 2 * n_max + 1))
    defect_order = None
    for n, c in enumerate(coeffs, start=1):
        if not c.is_zero:
            defect_order = n
            break
    worst = mpmath.mpf(0)
    with mpmath.workprec(128):
        for tn, td in DEFAULT_T_GRID:
            t = mpmath.mpf(tn) / td
            vals = [c.eval(t) for c in coeffs]
            for zn, zd in DEFAULT_Z_GRID:
                zm = mpmath.mpf(zn) / zd
                total = mpmath.mpf(0)
                zpow = mpmath.mpf(1)
                for v in vals:
                    zpow = zpow * zm
                    total += v * zpow
                worst = max(worst, abs(total))
    return PdeReport(float(worst), defect_order, coeffs)
