"""The rational ring of qpoly's Poly and QuasiPoly.

Here are the bodies of every operation that forms a Fraction or a general
product: the validating constructors and the coercion of rational
operands, ``+``, ``*`` and ``**``, ``scale``, ``sum_of_products``, the
derivative and ``ddt``, exact and numeric evaluation, the Fraction views
(``coeffs``, ``leading``, ``value_at_zero``) and the reprs.  The classes
in qpoly call them through one-line methods, and the first such call
imports this module, so a request that only builds a value from integer
rows and prints it never compiles it.  Each body runs on the integer
numerators and denominators, normalises once, in ``qpoly._poly``, and
reaches the other operators through the class, as ``p * q``, so a
wrapper put on a class operator sees every call.  ``fractions`` is
imported where a Fraction is formed or a non-int operand is tested for
one, so integer operands never import it, and mpmath by the evaluating
functions.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd, lcm
from typing import Iterable

from .qpoly import (
    POLY_ONE,
    POLY_ZERO,
    Poly,
    QuasiPoly,
    Rat,
    _is_rational,
    _poly,
    _quasi,
    _set_den,
    _set_num,
    _set_terms,
    _sparse,
    from_rows,
)
from . import qpoly  # bound on the package by now, so this loads no other layer


def _rational(v) -> Rat:
    """v as an int or a Fraction: an int or a Fraction as it is (both have a
    numerator and a denominator), a string read by Fraction."""
    if isinstance(v, str):
        from fractions import Fraction

        return Fraction(v)
    if not _is_rational(v):
        raise TypeError(f"expected a rational, got {type(v).__name__}")
    return v


# ---------------------------------------------------------------------------
# Poly


def poly_init(p: Poly, coeffs: Iterable[Rat]) -> None:
    cs = [_rational(c) for c in coeffs]
    den = lcm(*(c.denominator for c in cs))
    q = _poly([c.numerator * (den // c.denominator) for c in cs], den)
    _set_num(p, q._num)
    _set_den(p, q._den)


def coeffs(p: Poly) -> tuple[Fraction, ...]:
    from fractions import Fraction

    den = p._den
    return tuple(Fraction(c, den) for c in p._num)


def leading(p: Poly) -> Fraction:
    from fractions import Fraction

    if not p._num:
        return Fraction(0)
    return Fraction(p._num[-1], p._den)


def poly_add(p: Poly, other):
    if not isinstance(other, Poly):
        if not _is_rational(other):
            return NotImplemented
        other = Poly((other,))
    a, da, b, db = p._num, p._den, other._num, other._den
    if da != db:
        den = lcm(da, db)
        ma, mb = den // da, den // db
        a = [c * ma for c in a] if ma != 1 else a
        b = [c * mb for c in b] if mb != 1 else b
        da = den
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _poly(out, da)


def poly_mul(p: Poly, other):
    if not isinstance(other, Poly):
        if isinstance(other, int):
            return _poly([c * other for c in p._num], p._den)
        if _is_rational(other):  # a Fraction
            k = other.numerator
            return _poly([c * k for c in p._num], p._den * other.denominator)
        return NotImplemented
    a, b = p._num, other._num
    if not a or not b:
        return POLY_ZERO
    ra = _sparse(a)
    rb = ra if other is p else _sparse(b)  # a square takes the square path
    # the kernel is read off qpoly when called, so a wrapper put there sees every product
    return _poly(qpoly._row_products(((ra, rb, 1),), len(a) + len(b) - 1), p._den * other._den)


def poly_pow(p: Poly, k: int) -> Poly:
    if k < 0:
        raise ValueError("negative power")
    out = POLY_ONE
    base = p
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def derivative(p: Poly) -> Poly:
    return _poly([c * i for i, c in enumerate(p._num) if i >= 1], p._den)


def poly_call(p: Poly, x) -> Fraction:
    from fractions import Fraction

    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact evaluation needs an int or Fraction, got {type(x).__name__}")
    # q^d p(r/q) = sum_i num_i r^i q^(d-i), accumulated from the top
    r, q = x.numerator, x.denominator
    out, qpow = 0, 1
    for c in reversed(p._num):
        out = out * r + c * qpow
        qpow *= q
    return Fraction(out * q, p._den * qpow)


def eval_mp(p: Poly, x) -> mpmath.mpf:
    import mpmath

    out = mpmath.mpf(0)
    for c in reversed(p.coeffs):
        out = out * x + mpmath.mpf(c.numerator) / c.denominator
    return out


def poly_repr(p: Poly) -> str:
    return f"Poly({list(p.coeffs)!r})"


# ---------------------------------------------------------------------------
# QuasiPoly


def quasi_init(q: QuasiPoly, terms) -> None:
    pairs = []
    for e2, p in terms.items() if isinstance(terms, Mapping) else terms:
        if not isinstance(e2, int):
            raise TypeError(f"exp2 must be int, got {e2!r}")
        pairs.append((e2, p if isinstance(p, Poly) else Poly((p,))))
    _set_terms(q, _collect(pairs)._terms)


def quasi_add(q: QuasiPoly, other):
    if not isinstance(other, QuasiPoly):
        if not _is_rational(other):
            return NotImplemented
        other = QuasiPoly.constant(other)
    return _collect(q._terms + other._terms)


def quasi_mul(q: QuasiPoly, other):
    if not isinstance(other, QuasiPoly):
        if not (isinstance(other, Poly) or _is_rational(other)):
            return NotImplemented
        return _quasi([(e2, r) for e2, p in q._terms if (r := p * other)._num])
    return sum_of_products(((q, other),))


def scale(q: QuasiPoly, c: Rat) -> QuasiPoly:
    return q * _rational(c)


def ddt(q: QuasiPoly) -> QuasiPoly:
    from fractions import Fraction

    terms = [(e2, p.derivative() + p * Fraction(e2, 2)) for e2, p in q._terms]
    return _quasi([(e2, p) for e2, p in terms if p._num])


def value_at_zero(q: QuasiPoly) -> Fraction:
    """The sum of the constant coefficients, as one integer sum over the lcm
    of the denominators."""
    from fractions import Fraction

    den = lcm(*(p._den for _, p in q._terms))
    return Fraction(sum(p._num[0] * (den // p._den) for _, p in q._terms), den)


def quasi_eval(q: QuasiPoly, t, prec_bits: int) -> mpmath.mpf:
    from fractions import Fraction

    import mpmath

    with mpmath.workprec(prec_bits):
        if isinstance(t, Fraction):
            tv = mpmath.mpf(t.numerator) / t.denominator
        else:
            tv = mpmath.mpf(t)
        total = mpmath.mpf(0)
        for e2, p in q._terms:
            total += p.eval_mp(tv) * mpmath.exp(tv * e2 / 2)
        return +total


def quasi_repr(q: QuasiPoly) -> str:
    return f"QuasiPoly({{{', '.join(f'{e2}: {p!r}' for e2, p in q._terms)}}})"


def sum_of_products(pairs: Iterable[tuple[QuasiPoly, QuasiPoly]]) -> QuasiPoly:
    """The sum of x * y over the pairs, as one _row_products call.

    Each factor is one flat row over the lcm D of its denominators, grade
    (exp2 - lo) / step with lo the least exp2 on its side of the pairs and
    step the gcd of every such offset on both sides, in a base above every
    t-degree a product reaches.  A pair is weighted by L / (D_x D_y), L the
    lcm of those products, and the sum is read back through from_rows over
    L.  The work and memory grow with the span of the exp2 sums over step
    times the base, so squaring 1 + e^{-100000 t} takes three grades.
    """
    pairs = [(x._terms, y._terms) for x, y in pairs if x._terms and y._terms]
    if not pairs:
        return _quasi(())
    lo_x = min([xs[-1][0] for xs, _ in pairs])  # terms are exp2 descending
    lo_y = min([ys[-1][0] for _, ys in pairs])
    base = 2 * max([len(p._num) for xs, ys in pairs for _, p in xs + ys])
    step = gcd(*[e2 - lo_x for xs, _ in pairs for e2, _ in xs],
               *[e2 - lo_y for _, ys in pairs for e2, _ in ys]) or 1

    def flat(terms, lo):
        d = lcm(*[p._den for _, p in terms])
        row = [((e2 - lo) // step * base + i, v * (d // p._den)) for e2, p in reversed(terms)
               for i, v in enumerate(p._num) if v]
        return tuple(row), d

    terms = [(*flat(xs, lo_x), *flat(ys, lo_y)) for xs, ys in pairs]
    den = lcm(*[dx * dy for _, dx, _, dy in terms])
    grades = (max([xs[0][0] + ys[0][0] for xs, ys in pairs]) - lo_x - lo_y) // step + 1
    out = qpoly._row_products([(a, b, den // (dx * dy)) for a, dx, b, dy in terms], grades * base)
    e0 = lo_x + lo_y
    return from_rows({e0 + step * g: (out[g * base : (g + 1) * base], den) for g in range(grades)})


def _collect(pairs: Iterable[tuple[int, Poly]]) -> QuasiPoly:
    """The canonical QuasiPoly of (exp2, Poly) terms: Polys at one exp2 are
    added, zero sums dropped and the rest sorted."""
    acc: dict[int, Poly] = {}
    for e2, p in pairs:
        acc[e2] = acc[e2] + p if e2 in acc else p
    return _quasi(sorted([(e2, p) for e2, p in acc.items() if p._num], reverse=True))
