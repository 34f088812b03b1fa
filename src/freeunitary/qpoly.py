"""Exact quasi-polynomial arithmetic.

A QuasiPoly is a finite sum  sum_c p_c(t) * exp(c*t)  with rational
polynomial coefficients and exponents c in (1/2)Z. Exponents are stored as
the even/odd integer exp2 = 2c, so the substitution y = exp(-t/2) turns the
term with exp2 = -m into (polynomial) * y^m.

A Poly stores integer numerators over one common denominator, kept in
lowest terms, so every ring and calculus operation runs on Python ints and
normalises once, in ``_poly`` (``Poly.from_ints`` outside this module).
A QuasiPoly keeps canonical terms (exp2 strictly descending, no zero Poly),
put in that form only by ``from_rows``, from integer rows {exp2:
(numerators, den)}, and ``_collect``, from (exp2, Poly) terms; the
validating constructor and ``+`` run on ``_collect``, and ``-`` is ``+``
of the negation.  Each operation reaches the others through the class
operators (``p * q``), so a wrapper put on a class operator sees every
call.

The text, LaTeX and JSON emitters read the integers, one gcd per
coefficient, and equality with an int or a Fraction reads its numerator
and denominator, so a value built from integer rows compares and prints
with no ``fractions`` loaded; ``ddt`` and the numeric ``eval`` run on
the integers too.  A Fraction is formed, and ``fractions`` imported,
only where one is asked for: the Fraction views ``coeffs``, ``leading``
and ``value_at_zero``, exact evaluation by ``Poly.__call__``, the reprs,
and the coercion of a Fraction or string operand.  An operator tests an
operand for ``int`` before ``Fraction``, so integer operands never
import it.  mpmath is imported only by the evaluating methods.

The integer recursions of ``cumulants`` and ``alternating`` hold each
value as one flat ``Row`` of (index, coefficient) pairs, nonzero only,
with the integer coefficient of t^i at grade j at index j*B + i.  The
caller picks the base B above every t-degree its products reach, so a
product's index is the sum of the two with no carry.  The word
recursion of ``cumulants`` may pack its rows instead: one entry (j, P_j)
per nonzero grade, P_j = sum_i c_i 2^(W i) the grade's t-polynomial at
2^W (Kronecker substitution), so the same loop multiplies one big
integer per pair of grades.  Evaluation at 2^W is a ring map, so the
packed sums and products are exact; the caller picks W from a bound on
the coefficients (``cumulants._slot_width``), and ``_readback`` recovers
each c_i as a signed slot below 2^(W-1) in size.  ``_sparse`` makes a
row of a dense list, ``_row_products`` is the one product loop and
``_readback`` the one way back, over the caller's denominator.
``Poly.__mul__`` multiplies the rows of two numerator tuples, and
``sum_of_products`` lays each factor out as one row over its
denominators and reads the sum back by ``from_rows``.
"""

from __future__ import annotations

from collections.abc import Mapping
from math import gcd, lcm
from typing import Callable, Iterable, Union

from .errors import Frozen, StructureError, check_at_least

Rat = Union[int, "Fraction"]
Row = tuple[tuple[int, int], ...]  # (index, integer coefficient or packed grade), see the module docstring


def _is_rational(v) -> bool:
    """Whether v is an int or a Fraction; an int imports no fractions."""
    if isinstance(v, int):
        return True
    from fractions import Fraction

    return isinstance(v, Fraction)


def _rational(v) -> Rat:
    """v as an int or a Fraction: an int or a Fraction as it is (both have a
    numerator and a denominator), a string read by Fraction."""
    if isinstance(v, str):
        from fractions import Fraction

        return Fraction(v)
    if not _is_rational(v):
        raise TypeError(f"expected a rational, got {type(v).__name__}")
    return v


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
    p = _new(Poly)
    _set_num(p, tuple(num))
    _set_den(p, den)
    return p


class Poly(Frozen):
    """Polynomial over Q, stored as integer numerators over one denominator.

    The coefficients, ascending, are ``_num[i] / _den`` with ``_den > 0``,
    ``gcd(_den, *_num) == 1`` and no trailing zero numerator, so each
    rational polynomial has exactly one representation and the zero
    polynomial is ``((), 1)``.  ``coeffs`` is a read-only Fraction view,
    formed when it is read.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_rational(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        p = _poly([c.numerator * (den // c.denominator) for c in cs], den)
        _set_num(self, p._num)
        _set_den(self, p._den)

    @staticmethod
    def from_ints(num: Iterable[int], den: int = 1) -> "Poly":
        """The Poly of the integer numerators num, ascending, over den >= 1."""
        check_at_least("denominator", den, 1)
        return _poly(list(num), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in ascending order, as Fractions."""
        from fractions import Fraction

        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def height(self) -> int:
        """The largest of the denominator and the |numerators|: no coefficient
        in lowest terms has a longer numerator or denominator."""
        return max((self._den, *map(abs, self._num)))

    def leading(self) -> Fraction:
        from fractions import Fraction

        if not self._num:
            return Fraction(0)
        return Fraction(self._num[-1], self._den)

    def __add__(self, other):
        if not isinstance(other, Poly):
            if not _is_rational(other):
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
        if not (isinstance(other, Poly) or _is_rational(other)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, int):
                return _poly([c * other for c in self._num], self._den)
            if _is_rational(other):  # a Fraction
                k = other.numerator
                return _poly([c * k for c in self._num], self._den * other.denominator)
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return POLY_ZERO
        ra = _sparse(a)
        rb = ra if other is self else _sparse(b)  # a square takes the square path
        return _poly(_row_products(((ra, rb, 1),), len(a) + len(b) - 1), self._den * other._den)

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

    def __call__(self, x):
        """Exact Horner evaluation at an int or Fraction; eval_mp takes the rest."""
        from fractions import Fraction

        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"exact evaluation needs an int or Fraction, got {type(x).__name__}")
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
        for c in reversed(self._num):
            n, d = _lowest(c, self._den)  # the two integers of Fraction(c, den)
            out = out * x + mpmath.mpf(n) / d
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if not _is_rational(other):
                return False
            other = _poly([other.numerator], other.denominator)
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return poly_text(self)


# The slot setters of the raw constructors, bound once: a descriptor's
# __set__ bypasses Frozen.__setattr__, which refuses every assignment.
_new = object.__new__
_set_num, _set_den = Poly._num.__set__, Poly._den.__set__

POLY_ZERO = _poly([], 1)
POLY_ONE = _poly([1], 1)


class QuasiPoly(Frozen):
    """Finite sum of Poly(t) * exp((exp2/2) * t) terms, exp2 integer."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[int, Poly], Iterable[tuple[int, Poly]]] = ()):
        pairs = []
        for e2, p in terms.items() if isinstance(terms, Mapping) else terms:
            if not isinstance(e2, int):
                raise TypeError(f"exp2 must be int, got {e2!r}")
            pairs.append((e2, p if isinstance(p, Poly) else Poly((p,))))
        _set_terms(self, _collect(pairs)._terms)

    @classmethod
    def constant(cls, c: Rat) -> "QuasiPoly":
        return cls({0: Poly((c,))})

    @property
    def terms(self) -> dict[int, Poly]:
        """Mapping exp2 -> Poly (a fresh dict; instances stay immutable)."""
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def height(self) -> int:
        """The largest height of a term's Poly (1 for zero)."""
        return max((p.height for _, p in self._terms), default=1)

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
            if not _is_rational(other):
                return NotImplemented
            other = QuasiPoly.constant(other)
        return _collect(self._terms + other._terms)

    __radd__ = __add__

    def __neg__(self):
        return _quasi([(e2, -p) for e2, p in self._terms])

    def __sub__(self, other):
        if not (isinstance(other, QuasiPoly) or _is_rational(other)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QuasiPoly):
            if not (isinstance(other, Poly) or _is_rational(other)):
                return NotImplemented
            return _quasi([(e2, q) for e2, p in self._terms if (q := p * other)._num])
        return sum_of_products(((self, other),))

    __rmul__ = __mul__

    def scale(self, c: Rat) -> "QuasiPoly":
        return self * _rational(c)

    def ddt(self) -> "QuasiPoly":
        """Derivative in t: the term p * exp(e2 t / 2) becomes
        (2p' + e2 p) / 2 * exp(e2 t / 2), one integer row over 2 den."""
        terms = []
        for e2, p in self._terms:
            a = p._num
            q = _poly([e2 * c + 2 * i * d for i, (c, d) in enumerate(zip(a, (*a[1:], 0)), start=1)],
                      2 * p._den)
            if q._num:
                terms.append((e2, q))
        return _quasi(terms)

    def value_at_zero(self) -> Fraction:
        """Exact value at t = 0: the sum of the constant coefficients, as one
        integer sum over the lcm of the denominators."""
        from fractions import Fraction

        den = lcm(*(p._den for _, p in self._terms))
        return Fraction(sum(p._num[0] * (den // p._den) for _, p in self._terms), den)

    def eval(self, t, prec_bits: int = 128) -> mpmath.mpf:
        """Numeric value at t, computed at the given binary precision."""
        import mpmath

        with mpmath.workprec(prec_bits):
            if isinstance(t, int) or not hasattr(t, "denominator"):
                tv = mpmath.mpf(t)
            else:  # a rational such as a Fraction
                tv = mpmath.mpf(t.numerator) / t.denominator
            total = mpmath.mpf(0)
            for e2, p in self._terms:
                total += p.eval_mp(tv) * mpmath.exp(tv * e2 / 2)
            return +total

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"exp2": e2, "coeffs": _coeff_strs(p)} for e2, p in self._terms
            ]
        }

    def to_text(self) -> str:
        return _quasipoly_text(self, latex=False)

    def to_latex(self) -> str:
        return _quasipoly_text(self, latex=True)

    def __eq__(self, other):
        if not isinstance(other, QuasiPoly):
            if not _is_rational(other):
                return False
            other = from_rows({0: ([other.numerator], other.denominator)})
        return self._terms == other._terms

    def __hash__(self):
        return hash(("QuasiPoly", self._terms))

    def __repr__(self):
        return f"QuasiPoly({{{', '.join(f'{e2}: {p!r}' for e2, p in self._terms)}}})"

    def __str__(self):
        return self.to_text()


_set_terms = QuasiPoly._terms.__set__


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
    out = _row_products([(a, b, den // (dx * dy)) for a, dx, b, dy in terms], grades * base)
    e0 = lo_x + lo_y
    return from_rows({e0 + step * g: (out[g * base : (g + 1) * base], den) for g in range(grades)})


def _row_products(terms: Iterable[tuple[Row, Row, int]], size: int) -> list[int]:
    """The integer list, of length size, of sum c a*b over the (a, b, c) terms
    of rows: a product puts u v at the sum of the two indices.  The shorter
    row is scaled by c, and a square, a is b, takes each unordered pair of
    its entries once.  This is the one product loop of the package."""
    out = [0] * size
    for a, b, c in terms:
        if a is b:
            for x, (p, v) in enumerate(a):
                u = c * v
                out[2 * p] += u * v
                u *= 2
                for q, w in a[x + 1 :]:
                    out[p + q] += u * w
            continue
        if len(a) > len(b):
            a, b = b, a
        for p, u in a:
            u *= c
            for q, v in b:
                out[p + q] += u * v
    return out


def _sparse(dense: Iterable[int]) -> Row:
    """The row of the nonzero entries of a dense integer list, index ascending."""
    return tuple([(p, v) for p, v in enumerate(dense) if v])


def _readback(
    row: Row, base: int, den: int, e0: int, step: int, width: Callable[[int], int], name: str,
    slot: int = 0,
) -> QuasiPoly:
    """The QuasiPoly row / den of a flat row in base B = base: the entry at
    j*B + i is the coefficient of t^i at exp2 = e0 + step*j.  The row is
    scattered once into a dense list, and grade j is read as one slice of
    it.  With slot = W > 0 the row is packed instead: its entry (j, P)
    holds grade j as P = sum_i c_i 2^(W i), read back by _slots.  Grade j
    has t-degree below width(j); an entry at or past it does not fit the
    layout and is refused, naming the value name."""
    if slot:
        rows = [(j, _slots(v, slot)) for j, v in row]
    else:
        dense = [0] * (max(row)[0] + 1 if row else 0)
        for p, v in row:
            dense[p] = v
        rows = [(lo // base, dense[lo : lo + base]) for lo in range(0, len(dense), base)]
    grades = {}
    for j, nums in rows:
        w = width(j)
        if any(nums[w:]):
            i = w
            while not nums[i]:
                i += 1
            raise StructureError(f"{name} carries t-degree {i} at exp2={e0 + step * j}")
        grades[e0 + step * j] = (nums[:w], den)
    return from_rows(grades)


def _slots(v: int, slot: int) -> list[int]:
    """The signed digits c_i of v = sum_i c_i 2^(W i), W = slot, lowest first,
    each in [-2^(W-1), 2^(W-1)): the coefficients of a packed grade whose
    |coefficients| are all below 2^(W-1), which they determine uniquely."""
    half, mask, out = 1 << slot - 1, (1 << slot) - 1, []
    while v:
        c = (v + half & mask) - half
        out.append(c)
        v = (v - c) >> slot
    return out


def _quasi(terms: Iterable[tuple[int, Poly]]) -> QuasiPoly:
    """The QuasiPoly of canonical terms: exp2 strictly descending, no zero Poly."""
    q = _new(QuasiPoly)
    _set_terms(q, tuple(terms))
    return q


def from_rows(rows: Mapping[int, tuple[list[int], int]]) -> QuasiPoly:
    """The canonical QuasiPoly of integer rows {exp2: (numerators, den > 0)} in
    any order: each row, ascending, is reduced by _poly (which may modify it)
    and zero rows are dropped."""
    return _quasi([(e2, p) for e2 in sorted(rows, reverse=True) if (p := _poly(*rows[e2]))._num])


def _collect(pairs: Iterable[tuple[int, Poly]]) -> QuasiPoly:
    """The canonical QuasiPoly of (exp2, Poly) terms: Polys at one exp2 are
    added, zero sums dropped and the rest sorted."""
    acc: dict[int, Poly] = {}
    for e2, p in pairs:
        acc[e2] = acc[e2] + p if e2 in acc else p
    return _quasi(sorted([(e2, p) for e2, p in acc.items() if p._num], reverse=True))


# ---------------------------------------------------------------------------
# text / LaTeX emitters


def _lowest(c: int, den: int) -> tuple[int, int]:
    """The numerator and denominator of c/den (den > 0) in lowest terms, as
    a Fraction holds them."""
    g = gcd(c, den)
    return c // g, den // g


def _ratio_text(n: int, d: int, latex: bool) -> str:
    """The rational n/d, in lowest terms with d > 0, as str(Fraction) writes
    it, or as a LaTeX \\tfrac."""
    if d == 1:
        return str(n)
    if latex:
        sign = "-" if n < 0 else ""
        return f"{sign}\\tfrac{{{abs(n)}}}{{{d}}}"
    return f"{n}/{d}"


def _coeff_strs(p: Poly) -> list[str]:
    """The coefficients of p, ascending, each as str(Fraction) writes it."""
    den = p._den
    return [_ratio_text(*_lowest(c, den), False) for c in p._num]


def _x_power(k: int, latex: bool) -> str:
    if k == 0:
        return ""
    if k == 1:
        return "x"
    return f"x^{{{k}}}" if latex else f"x^{k}"


def poly_text(p: Poly, *, latex: bool = False) -> str:
    """Render in the time variable x with powers descending, e.g.
    (3/2)x^2+2x+1."""
    if p.is_zero:
        return "0"
    parts = []
    num, den = p._num, p._den
    for k in range(p.degree, -1, -1):
        if not num[k]:
            continue
        n, d = _lowest(num[k], den)
        vp = _x_power(k, latex)
        if not vp:
            body = _ratio_text(n, d, latex)
        elif d == 1 and n == 1:
            body = vp
        elif d == 1 and n == -1:
            body = "-" + vp
        elif d == 1:
            body = f"{n}{vp}"
        else:
            body = (_ratio_text(n, d, True) if latex else f"({n}/{d})") + vp
        if parts and not body.startswith("-"):
            parts.append("+" + body)
        else:
            parts.append(body)
    return "".join(parts)


def _factor_text(e2: int, latex: bool) -> str:
    # y^m for exp2 = -m <= 0; a growing exp((e2/2) t) is written in t
    if e2 <= 0:
        m = -e2
        if m == 0:
            return ""
        if m == 1:
            return "y"
        return f"y^{{{m}}}" if latex else f"y^{m}"
    if e2 % 2 == 0:
        inner = "t" if e2 == 2 else f"{e2 // 2}t"
    else:
        inner = "t/2" if e2 == 1 else f"{e2}t/2"
    if latex:
        return f"e^{{{inner}}}"
    return "e^t" if e2 == 2 else f"e^({inner})"


def _quasipoly_text(f: QuasiPoly, latex: bool) -> str:
    if f.is_zero:
        return "0"
    pieces = []
    for e2, p in f._terms:  # exp2 descending, i.e. y-powers ascending
        fac = _factor_text(e2, latex)
        if not (fac or pieces):  # a leading y^0 term reads as its polynomial
            pieces.append(poly_text(p, latex=latex))
            continue
        neg = p._num[-1] < 0
        if neg:
            p = -p
        if not fac and p.degree == 0:
            body = poly_text(p, latex=latex)
        elif p == POLY_ONE:
            body = fac
        elif p.degree == 0 and p._den == 1:
            body = f"{p._num[0]}{fac}"
        else:  # a whole polynomial, its sign outside the brackets
            body = f"({poly_text(p, latex=latex)}){fac}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)
