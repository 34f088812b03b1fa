"""Exact quasi-polynomial arithmetic.

A QuasiPoly is a finite sum  sum_c p_c(t) * exp(c*t)  with rational
polynomial coefficients and exponents c in (1/2)Z. Exponents are stored as
the even/odd integer exp2 = 2c, so the substitution y = exp(-t/2) turns the
term with exp2 = -m into (polynomial) * y^m.

A Poly stores integer numerators over one common denominator, kept in
lowest terms, so every ring and calculus operation runs on Python ints and
normalises once; ``Poly.coeffs`` gives the coefficients as Fractions.
Numeric evaluation goes through mpmath at a caller-chosen binary precision;
mpmath is imported by the evaluating methods, not with this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

Rat = Union[int, Fraction]


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"expected a rational, got {type(v).__name__}")


def _poly(num: list[int], den: int) -> "Poly":
    """The Poly num/den (den > 0) in canonical form; may modify num."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    p = object.__new__(Poly)
    object.__setattr__(p, "_num", tuple(num))
    object.__setattr__(p, "_den", den)
    return p


class Poly:
    """Polynomial over Q, stored as integer numerators over one denominator.

    The coefficients, ascending, are ``_num[i] / _den`` with ``_den > 0``,
    ``gcd(_den, *_num) == 1`` and no trailing zero numerator, so each
    rational polynomial has exactly one representation and the zero
    polynomial is ``((), 1)``.  ``coeffs`` is a read-only Fraction view.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_frac(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _poly([c.numerator * (den // c.denominator) for c in cs], den)
        object.__setattr__(self, "_num", p._num)
        object.__setattr__(self, "_den", p._den)

    @classmethod
    def const(cls, c: Rat) -> "Poly":
        return cls((c,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in ascending order, as Fractions."""
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def leading(self) -> Fraction:
        if not self._num:
            return Fraction(0)
        return Fraction(self._num[-1], self._den)

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly((other,))
        a, da, b, db = self._num, self._den, other._num, other._den
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

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self._num], self._den)

    def __sub__(self, other):
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, int):
                return _poly([c * other for c in self._num], self._den)
            if isinstance(other, Fraction):
                k = other.numerator
                return _poly([c * k for c in self._num], self._den * other.denominator)
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return POLY_ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _poly(out, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = POLY_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self) -> "Poly":
        return _poly([c * i for i, c in enumerate(self._num) if i >= 1], self._den)

    def antiderivative(self) -> "Poly":
        """Antiderivative vanishing at 0."""
        m = lcm(*range(1, len(self._num) + 1))
        return _poly([0] + [c * (m // (i + 1)) for i, c in enumerate(self._num)], self._den * m)

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int arguments."""
        if not isinstance(x, (int, Fraction)):
            out = x * 0
            for c in reversed(self.coeffs):
                out = out * x + c
            return out
        # q^d p(r/q) = sum_i num_i r^i q^(d-i), accumulated from the top
        r, q = x.numerator, x.denominator
        out, qpow = 0, 1
        for c in reversed(self._num):
            out = out * r + c * qpow
            qpow *= q
        return Fraction(out * q, self._den * qpow)

    def eval_mp(self, x) -> mpmath.mpf:
        import mpmath

        out = mpmath.mpf(0)
        for c in reversed(self.coeffs):
            out = out * x + mpmath.mpf(c.numerator) / c.denominator
        return out

    def shift_arg(self, a: Rat) -> "Poly":
        """The polynomial p(x + a)."""
        # Horner in x + r/s: s^j times the partial sum after j steps stays integral
        a = _frac(a)
        r, s = a.numerator, a.denominator
        out: list[int] = []
        spow = 1
        for c in reversed(self._num):
            # out * (s x + r) + c * s^(j+1)
            nxt = [0] * (len(out) + 1)
            for i, v in enumerate(out):
                nxt[i] += v * r
                nxt[i + 1] += v * s
            spow *= s
            nxt[0] += c * spow
            out = nxt
        return _poly(out, self._den * spow)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return False
            other = Poly((other,))
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return poly_text(self, "x")


POLY_ZERO = Poly(())
POLY_ONE = Poly((1,))
POLY_X = Poly((0, 1))


class QuasiPoly:
    """Finite sum of Poly(t) * exp((exp2/2) * t) terms, exp2 integer."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[int, Poly], Iterable[tuple[int, Poly]]] = ()):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        acc: dict[int, Poly] = {}
        for e2, p in items:
            if not isinstance(e2, int):
                raise TypeError(f"exp2 must be int, got {e2!r}")
            if not isinstance(p, Poly):
                p = Poly((p,))
            if p.is_zero:
                continue
            acc[e2] = acc[e2] + p if e2 in acc else p
        object.__setattr__(
            self,
            "_terms",
            tuple(sorted(((e2, p) for e2, p in acc.items() if not p.is_zero), key=lambda kv: -kv[0])),
        )

    @classmethod
    def constant(cls, c: Rat) -> "QuasiPoly":
        return cls({0: Poly((c,))})

    @classmethod
    def from_poly(cls, p: Poly, exp2: int = 0) -> "QuasiPoly":
        return cls({exp2: p})

    @property
    def terms(self) -> dict[int, Poly]:
        """Mapping exp2 -> Poly (a fresh dict; instances stay immutable)."""
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def exp2_values(self) -> tuple[int, ...]:
        return tuple(e2 for e2, _ in self._terms)

    def grade(self, m: int) -> Poly:
        """Coefficient polynomial of y^m, i.e. the term with exp2 = -m."""
        for e2, p in self._terms:
            if e2 == -m:
                return p
        return POLY_ZERO

    def __add__(self, other):
        if not isinstance(other, QuasiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QuasiPoly.constant(other)
        acc = dict(self._terms)
        for e2, p in other._terms:
            acc[e2] = acc[e2] + p if e2 in acc else p
        return QuasiPoly(acc)

    __radd__ = __add__

    def __neg__(self):
        return QuasiPoly({e2: -p for e2, p in self._terms})

    def __sub__(self, other):
        if not isinstance(other, (QuasiPoly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QuasiPoly):
            if not isinstance(other, (Poly, int, Fraction)):
                return NotImplemented
            return QuasiPoly({e2: p * other for e2, p in self._terms})
        acc: dict[int, Poly] = {}
        for e2a, pa in self._terms:
            for e2b, pb in other._terms:
                e2 = e2a + e2b
                prod = pa * pb
                acc[e2] = acc[e2] + prod if e2 in acc else prod
        return QuasiPoly(acc)

    __rmul__ = __mul__

    def scale(self, c: Rat) -> "QuasiPoly":
        return self * _frac(c)

    def shift_exp2(self, delta: int) -> "QuasiPoly":
        """Multiply by exp((delta/2) t)."""
        return QuasiPoly({e2 + delta: p for e2, p in self._terms})

    def ddt(self) -> "QuasiPoly":
        """Derivative in t."""
        out: dict[int, Poly] = {}
        for e2, p in self._terms:
            out[e2] = p.derivative() + p * Fraction(e2, 2)
        return QuasiPoly(out)

    def integrate_from_zero(self) -> "QuasiPoly":
        """The antiderivative F with F(0) = 0 and F' = self."""
        acc: dict[int, Poly] = {}
        const = Fraction(0)

        def add(e2: int, p: Poly) -> None:
            if p.is_zero:
                return
            acc[e2] = acc[e2] + p if e2 in acc else p

        for e2, p in self._terms:
            if e2 == 0:
                add(0, p.antiderivative())
                continue
            c = Fraction(e2, 2)
            total = POLY_ZERO
            q = p
            power = Fraction(1)
            sign = 1
            while not q.is_zero:
                power *= c
                total = total + q * (Fraction(sign) / power)
                q = q.derivative()
                sign = -sign
            add(e2, total)
            const -= total(Fraction(0))
        if const != 0:
            add(0, Poly((const,)))
        return QuasiPoly(acc)

    def value_at_zero(self) -> Fraction:
        """Exact value at t = 0."""
        out = Fraction(0)
        for _, p in self._terms:
            out += p(Fraction(0))
        return out

    def eval(self, t, prec_bits: int = 128) -> mpmath.mpf:
        """Numeric value at t, computed at the given binary precision."""
        import mpmath

        with mpmath.workprec(prec_bits):
            if isinstance(t, Fraction):
                tv = mpmath.mpf(t.numerator) / t.denominator
            else:
                tv = mpmath.mpf(t)
            total = mpmath.mpf(0)
            for e2, p in self._terms:
                total += p.eval_mp(tv) * mpmath.exp(tv * e2 / 2)
            return +total

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"exp2": e2, "coeffs": [str(c) for c in p.coeffs]} for e2, p in self._terms
            ]
        }

    def to_text(self, picture: str = "y") -> str:
        return _quasipoly_text(self, picture, latex=False)

    def to_latex(self, picture: str = "y") -> str:
        return _quasipoly_text(self, picture, latex=True)

    def __eq__(self, other):
        if not isinstance(other, QuasiPoly):
            if not isinstance(other, (int, Fraction)):
                return False
            other = QuasiPoly.constant(other)
        return self._terms == other._terms

    def __hash__(self):
        return hash(("QuasiPoly", self._terms))

    def __setattr__(self, name, value):
        raise AttributeError("QuasiPoly is immutable")

    def __repr__(self):
        return f"QuasiPoly({{{', '.join(f'{e2}: {p!r}' for e2, p in self._terms)}}})"

    def __str__(self):
        return self.to_text("y")


QP_ZERO = QuasiPoly()
QP_ONE = QuasiPoly.constant(1)


def quasipoly_from_json(data: Mapping) -> QuasiPoly:
    """Inverse of QuasiPoly.to_json_dict; extra keys are ignored."""
    terms = {}
    for item in data["terms"]:
        e2 = int(item["exp2"])
        p = Poly(tuple(Fraction(s) for s in item["coeffs"]))
        if e2 in terms:
            raise ValueError(f"duplicate exp2 {e2}")
        terms[e2] = p
    return QuasiPoly(terms)


# ---------------------------------------------------------------------------
# text / LaTeX emitters


def _frac_text(c: Fraction, latex: bool) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    if latex:
        sign = "-" if c < 0 else ""
        return f"{sign}\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"
    return f"{c.numerator}/{c.denominator}"


def _var_power(var: str, k: int, latex: bool) -> str:
    if k == 0:
        return ""
    if k == 1:
        return var
    return f"{var}^{{{k}}}" if latex else f"{var}^{k}"


def poly_text(p: Poly, var: str = "x", latex: bool = False) -> str:
    """Render with powers descending, e.g. (3/2)x^2+2x+1."""
    if p.is_zero:
        return "0"
    parts = []
    coeffs = p.coeffs
    for k in range(p.degree, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        vp = _var_power(var, k, latex)
        if not vp:
            body = _frac_text(c, latex)
        elif c == 1:
            body = vp
        elif c == -1:
            body = "-" + vp
        elif c.denominator == 1:
            body = f"{c.numerator}{vp}"
        else:
            body = (_frac_text(c, latex) if latex else f"({_frac_text(c, False)})") + vp
        if parts and not body.startswith("-"):
            parts.append("+" + body)
        else:
            parts.append(body)
    return "".join(parts)


def _exp_factor_text(e2: int, latex: bool) -> str:
    # exp((e2/2) t) rendered in terms of t
    if e2 == 0:
        return ""
    if e2 % 2 == 0:
        k = e2 // 2
        if latex:
            inner = "t" if k == 1 else ("-t" if k == -1 else f"{k}t")
            return f"e^{{{inner}}}"
        if k == 1:
            return "e^t"
        if k == -1:
            return "e^-t"
        return f"e^({k}t)"
    if latex:
        inner = "t/2" if e2 == 1 else ("-t/2" if e2 == -1 else f"{e2}t/2")
        return f"e^{{{inner}}}"
    if e2 == 1:
        return "e^(t/2)"
    if e2 == -1:
        return "e^(-t/2)"
    return f"e^({e2}t/2)"


def _factor_text(e2: int, picture: str, latex: bool) -> str:
    if picture == "y" and e2 <= 0:
        m = -e2
        if m == 0:
            return ""
        if m == 1:
            return "y"
        return f"y^{{{m}}}" if latex else f"y^{m}"
    return _exp_factor_text(e2, latex)


def _quasipoly_text(f: QuasiPoly, picture: str, latex: bool) -> str:
    if picture not in ("y", "t"):
        raise ValueError(f"unknown picture {picture!r}")
    if f.is_zero:
        return "0"
    var = "x" if picture == "y" else "t"
    pieces = []
    for e2, p in f._terms:  # exp2 descending, i.e. y-powers ascending
        fac = _factor_text(e2, picture, latex)
        neg = p.leading() < 0
        if neg:
            p = -p
        if not fac:
            body = poly_text(p, var, latex)
        elif p == POLY_ONE:
            body = fac
        elif p.degree == 0 and p._den == 1:
            body = f"{p._num[0]}{fac}"
        else:
            body = f"({poly_text(p, var, latex)}){fac}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)
