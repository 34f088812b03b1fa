"""Unit tests for the exact polynomial and quasi-polynomial ring."""

import ast
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeunitary import Poly, QuasiPoly, poly_text
from freeunitary.qpoly import _row_products, from_rows, sum_of_products
from oracles import fraction_json_dict, fraction_poly_text, fraction_quasipoly_text
from oracles import quasipoly_from_json

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
polys = st.builds(Poly, st.lists(rationals, max_size=5))
quasis = st.builds(
    QuasiPoly,
    st.dictionaries(st.integers(min_value=-6, max_value=6), polys, max_size=4),
)


def test_poly_drops_trailing_zeros():
    assert Poly((1, 0, 0)) == Poly((1,))
    assert Poly((1, 0, 0)).degree == 0


def test_poly_zero_conventions():
    zero = Poly()
    assert zero.is_zero
    assert zero.degree == -1
    assert zero.leading() == 0
    assert zero.height == QuasiPoly().height == 1


@given(polys)
def test_height_is_the_largest_integer_over_one_denominator(p):
    den = math.lcm(*(c.denominator for c in p.coeffs))
    assert p.height == max([den] + [abs(c * den) for c in p.coeffs])
    assert all(abs(c.numerator) <= p.height and c.denominator <= p.height for c in p.coeffs)
    assert QuasiPoly({0: p, -2: Poly((1,))}).height == p.height


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        Poly((0.5,))


def test_poly_square():
    p = Poly((1, 1))
    assert p * p == Poly((1, 2, 1))
    assert p ** 3 == Poly((1, 3, 3, 1))
    assert (p ** 3)(Fraction(1, 2)) == Fraction(27, 8)


def test_poly_call_is_exact_only():
    p = Poly((1, Fraction(1, 2), 3))
    assert p(2) == 14
    for x in (1.5, mpmath.mpf(2)):
        with pytest.raises(TypeError):
            p(x)
    assert p.eval_mp(mpmath.mpf(2)) == 14


def test_poly_calculus_roundtrip():
    p = Poly((5, -2, 0, 7))
    assert p.derivative() == Poly((-2, 0, 21))
    assert Poly((5,)).derivative() == Poly()


def test_poly_text_is_descending():
    assert poly_text(Poly((1, 2, Fraction(3, 2)))) == "(3/2)x^2+2x+1"
    assert poly_text(Poly()) == "0"


@settings(max_examples=60, deadline=None)
@given(quasis, quasis, quasis)
def test_quasipoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QuasiPoly() == a
    assert a * QuasiPoly.constant(1) == a
    assert a - a == QuasiPoly()


@settings(max_examples=40, deadline=None)
@given(quasis, quasis, st.fractions(min_value=-3, max_value=3, max_denominator=8))
def test_eval_is_a_homomorphism(a, b, t):
    with mpmath.workprec(384):
        lhs = (a * b).eval(t, prec_bits=384)
        rhs = a.eval(t, prec_bits=384) * b.eval(t, prec_bits=384)
        assert abs(lhs - rhs) < mpmath.mpf("1e-40")


@settings(max_examples=60, deadline=None)
@given(quasis)
def test_json_roundtrip(q):
    wire = json.dumps(q.to_json_dict(), sort_keys=True)
    assert quasipoly_from_json(json.loads(wire)) == q


@settings(max_examples=200, deadline=None)
@given(polys, quasis)
@example(Poly(), QuasiPoly())  # zero
@example(Poly((1, -1, 1)), QuasiPoly({0: 1, -1: -1, 2: Poly((0, 1)), -3: Poly((-1,))}))  # units
@example(Poly((-5, -1, Fraction(-7, 3))), QuasiPoly({0: -3, -2: Poly((Fraction(-1, 2),))}))
@example(Poly((Fraction(6, 4), Fraction(-10, 6))), QuasiPoly({1: Fraction(9, 12), -4: Poly((2, Fraction(1, 9)))}))
def test_integer_renderers_match_the_fraction_renderers(p, q):
    # the emitters read _num and _den, one gcd per coefficient; the
    # references read the Fraction view coeffs
    for latex in (False, True):
        assert poly_text(p, latex=latex) == fraction_poly_text(p, latex)
        for f in (q, QuasiPoly({0: p}), QuasiPoly({-1: p, 3: -p})):
            text = f.to_latex() if latex else f.to_text()
            assert text == fraction_quasipoly_text(f, latex)
    for f in (q, QuasiPoly({-2: p})):
        assert f.to_json_dict() == fraction_json_dict(f)


def test_grade_reads_y_powers():
    q = QuasiPoly({0: Poly((-1,)), -2: Poly((4,)), -4: Poly((-3, -2))})
    assert q.grade(0) == Poly((-1,))
    assert q.grade(2) == Poly((4,))
    assert q.grade(4) == Poly((-3, -2))
    assert q.grade(1).is_zero
    assert q.grade(6).is_zero


def test_shift_exp2_and_scale():
    q = QuasiPoly({0: 1, -2: -1})
    assert q.scale(Fraction(-1, 2)) == QuasiPoly({0: Fraction(-1, 2), -2: Fraction(1, 2)})


def test_ddt_halves_exp2():
    # d/dt of e^{-t} is -e^{-t}; d/dt of t e^{-t/2} is (1 - t/2) e^{-t/2}
    assert QuasiPoly({-2: 1}).ddt() == QuasiPoly({-2: -1})
    got = QuasiPoly({-1: Poly((0, 1))}).ddt()
    assert got == QuasiPoly({-1: Poly((1, Fraction(-1, 2)))})


def test_value_at_zero_sums_constants():
    q = QuasiPoly({0: Poly((2,)), -2: Poly((-1, 5)), -3: Poly((7,))})
    assert q.value_at_zero() == 8


def test_to_text_examples():
    assert QuasiPoly({0: 1, -2: -1}).to_text() == "1 - y^2"
    row = QuasiPoly({0: -1, -2: 4, -4: Poly((-3, -2))})
    assert row.to_text() == "-1 + 4y^2 - (2x+3)y^4"


@given(polys)
@example(Poly((-1, -1)))
def test_leading_y0_term_prints_as_its_polynomial(p):
    assert QuasiPoly({0: p}).to_text() == poly_text(p)
    assert QuasiPoly({0: p}).to_latex() == poly_text(p, latex=True)


def test_y0_term_after_a_growing_exponential_is_bracketed():
    # -1 - x after e^t: the sign is pulled out of the whole polynomial
    q = QuasiPoly({2: 1, 0: Poly((-1, -1))})
    assert q.to_text() == "e^t - (x+1)"
    assert q.to_latex() == "e^{t} - (x+1)"
    assert QuasiPoly({2: 1, 0: -3}).to_text() == "e^t - 3"


def test_eval_known_value():
    # 1 - e^{-t} at t = ln 4 is 3/4
    q = QuasiPoly({0: 1, -2: -1})
    with mpmath.workprec(128):
        t = mpmath.log(4)
        assert abs(q.eval(t) - mpmath.mpf(3) / 4) < mpmath.mpf("1e-35")


# ---------------------------------------------------------------------------
# Poly against a plain Fraction-list reference.  The reference keeps one
# Fraction per coefficient, ascending, with trailing zeros stripped, and does
# the schoolbook arithmetic that Poly replaced with integer numerators over a
# common denominator.

coeff_lists = st.lists(rationals, max_size=6)
scalars = st.one_of(st.integers(min_value=-20, max_value=20), rationals)


def _strip(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _ref_pow(a, k):
    out = (Fraction(1),)
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_eval(a, x):
    return sum((c * Fraction(x) ** i for i, c in enumerate(a)), Fraction(0))


def _assert_canonical(p):
    num, den = p._num, p._den
    assert isinstance(num, tuple) and all(type(c) is int for c in num)
    assert type(den) is int and den > 0
    assert math.gcd(den, *num) == 1
    assert not num or num[-1] != 0
    if not num:
        assert den == 1


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists)
def test_poly_ring_ops_match_reference(a, b):
    pa, pb = Poly(a), Poly(b)
    ra, rb = _strip(a), _strip(b)
    assert pa.coeffs == ra
    cases = [
        (pa + pb, _ref_add(ra, rb)),
        (pa - pb, _ref_add(ra, tuple(-c for c in rb))),
        (-pa, _strip(-c for c in ra)),
        (pa * pb, _ref_mul(ra, rb)),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert got.coeffs == want


@settings(max_examples=100, deadline=None)
@given(coeff_lists, scalars)
def test_poly_scalar_ops_match_reference(a, c):
    pa, ra = Poly(a), _strip(a)
    for got in (pa * c, c * pa):
        _assert_canonical(got)
        assert got.coeffs == _strip(x * c for x in ra)
    for got in (pa + c, c + pa):
        _assert_canonical(got)
        assert got.coeffs == _ref_add(ra, (Fraction(c),))
    assert (pa - c).coeffs == _ref_add(ra, (-Fraction(c),))
    assert (c - pa).coeffs == _ref_add(tuple(-x for x in ra), (Fraction(c),))


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, max_size=4), st.integers(min_value=0, max_value=5))
def test_poly_pow_matches_reference(a, k):
    got = Poly(a) ** k
    _assert_canonical(got)
    assert got.coeffs == _ref_pow(_strip(a), k)


@settings(max_examples=100, deadline=None)
@given(coeff_lists, scalars)
def test_poly_calculus_and_eval_match_reference(a, x):
    pa, ra = Poly(a), _strip(a)
    got = pa.derivative()
    _assert_canonical(got)
    assert got.coeffs == _strip(i * c for i, c in enumerate(ra) if i >= 1)
    value = pa(x)
    assert type(value) is Fraction and value == _ref_eval(ra, x)
    assert pa.leading() == (ra[-1] if ra else 0)
    assert pa.degree == len(ra) - 1


@settings(max_examples=100, deadline=None)
@given(coeff_lists, coeff_lists, scalars)
def test_poly_eq_and_hash_follow_the_coefficients(a, b, c):
    pa, pb = Poly(a), Poly(b)
    assert (pa == pb) == (_strip(a) == _strip(b))
    # the same polynomial by another route: scaled up, then back down
    if c != 0:
        other = (pa * c) * (1 / Fraction(c))
        assert other == pa and hash(other) == hash(pa)
    assert (pa - pa) == Poly() and hash(pa - pa) == hash(Poly())


def test_equal_polys_from_different_routes_hash_equal():
    a = Poly([Fraction(1, 2), 1])
    b = Poly([2, 4]) * Fraction(1, 4)
    c = Poly(["1/2", "1"])
    d = Poly([1, 0]) * Fraction(1, 2) + Poly([0, 1])
    assert a == b == c == d
    assert len({hash(p) for p in (a, b, c, d)}) == 1
    assert (a._num, a._den) == ((1, 2), 2)
    assert Poly([0, 0]) == Poly() and (Poly()._num, Poly()._den) == ((), 1)
    assert Poly([3]) == 3 and Poly([Fraction(3, 4)]) == Fraction(3, 4)


def test_poly_is_immutable():
    # both take assignment and deletion from errors.Frozen, and keep their own
    # equality, which also accepts ints and Fractions
    from freeunitary.errors import Frozen

    p = Poly([1, 2])
    q = QuasiPoly({0: 1, -2: p})
    for value, name in ((p, "Poly"), (q, "QuasiPoly")):
        cls = type(value)
        assert issubclass(cls, Frozen)
        assert not {"__setattr__", "__delattr__"} & set(vars(cls))
        assert {"__eq__", "__hash__"} <= set(vars(cls))
        for slot in cls.__slots__:
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                setattr(value, slot, ())
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                delattr(value, slot)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            value.extra = 1
    assert p == Poly([1, 2]) and q == QuasiPoly({0: 1, -2: Poly([1, 2])})
    assert Poly([3]) == 3 and QuasiPoly.constant(Fraction(1, 2)) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# sum_of_products against products formed term by term on Fraction lists by
# _ref_mul and summed per exp2 by _ref_add, so that neither Poly.__mul__ nor
# the row kernel behind it enters the oracle.


def _naive_sum_of_products(pairs):
    acc = {}
    for x, y in pairs:
        for ea, pa in x._terms:
            for eb, pb in y._terms:
                acc[ea + eb] = _ref_add(acc.get(ea + eb, ()), _ref_mul(pa.coeffs, pb.coeffs))
    return QuasiPoly({e2: Poly(cs) for e2, cs in acc.items()})


def _assert_canonical_quasi(q):
    exps = [e2 for e2, _ in q._terms]
    assert exps == sorted(set(exps), reverse=True)
    for _, p in q._terms:
        _assert_canonical(p)
        assert p._num


# denominators up to 30 give the pairs different denominators, and so weights
mixed_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=30)
mixed_quasis = st.builds(
    QuasiPoly,
    st.dictionaries(
        st.integers(min_value=-4, max_value=4),
        st.builds(Poly, st.lists(mixed_rationals, max_size=5)),
        max_size=3,
    ),
)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(mixed_quasis, mixed_quasis), max_size=5))
def test_sum_of_products_matches_naive_sum(pairs):
    got = sum_of_products(pairs)
    assert got == _naive_sum_of_products(pairs)
    _assert_canonical_quasi(got)
    assert got == sum((x * y for x, y in pairs), QuasiPoly())


def test_sum_of_products_edge_cases():
    x = QuasiPoly({0: Poly((1, Fraction(1, 2))), -3: Poly((Fraction(-2, 3),))})
    y = QuasiPoly({-1: Poly((Fraction(5, 7), 0, 1))})
    # no pairs, and a zero factor on either side, give the zero QuasiPoly
    assert sum_of_products(())._terms == ()
    assert sum_of_products([(x, QuasiPoly())])._terms == ()
    assert sum_of_products([(QuasiPoly(), y), (x, y)]) == x * y
    # exact cancellation leaves no term at all
    assert sum_of_products([(x, y), (-x, y)])._terms == ()
    # two products of different lengths and denominators (3 and 5) meet at
    # one exp2, and each side has a factor above its least exp2
    short = (QuasiPoly({-2: Poly((Fraction(1, 3),))}), QuasiPoly({0: 1}))
    long = (QuasiPoly({-1: Poly((0, 0, 1))}), QuasiPoly({-1: Poly((1, Fraction(1, 5)))}))
    got = sum_of_products([short, long])
    assert got == QuasiPoly({-2: Poly((Fraction(1, 3), 0, 1, Fraction(1, 5)))})
    _assert_canonical_quasi(got)
    assert sum_of_products(iter([short, long])) == got


def test_sum_of_products_lays_the_grades_out_in_steps_of_their_gcd(monkeypatch):
    # the exp2 offsets 0 and 200000 have gcd 200000: the square takes three
    # grades of base 2, not 400001
    from freeunitary import qpoly

    sizes = []
    kernel = qpoly._row_products

    def spy(terms, size):
        sizes.append(size)
        return kernel(terms, size)

    monkeypatch.setattr(qpoly, "_row_products", spy)
    x = QuasiPoly({0: 1, -200000: 1})
    assert x * x == QuasiPoly({0: 1, -200000: 2, -400000: 1})
    assert sizes and max(sizes) <= 3 * 2
    # offsets 200000 and 6 step by 2, a lone exp2 adds no offset, and lone
    # exp2s on both sides have no offset at all
    y = QuasiPoly({0: 1, -6: Poly((0, 1))})
    z = QuasiPoly({5: Poly((1, Fraction(1, 2)))})
    for pairs in ([(x, y)], [(x, z)], [(z, z)], [(x, y), (y, z)]):
        assert sum_of_products(pairs) == _naive_sum_of_products(pairs)


# ---------------------------------------------------------------------------
# ring operations that assemble their canonical terms directly, against the
# same value built through the validating constructor


def _same(got, ref):
    _assert_canonical_quasi(got)
    assert got._terms == ref._terms and hash(got) == hash(ref)


@settings(max_examples=100, deadline=None)
@given(quasis, quasis, rationals, polys)
@example(QuasiPoly(), QuasiPoly(), Fraction(0), Poly())
@example(QuasiPoly({0: 3, -2: Poly((1, 2))}), QuasiPoly({0: -3}), Fraction(0), Poly((0, 1)))
def test_direct_ring_ops_match_the_validating_constructor(a, b, c, p):
    def negated(q):
        return [(e2, -x) for e2, x in q._terms]

    _same(a + b, QuasiPoly([*a._terms, *b._terms]))
    _same(a - b, QuasiPoly([*a._terms, *negated(b)]))
    _same((a + b) - a, QuasiPoly([*a._terms, *b._terms, *negated(a)]))
    _same(-a, QuasiPoly(dict(negated(a))))
    _same(a + c, QuasiPoly([*a._terms, (0, Poly((c,)))]))
    _same(c + a, a + c)
    _same(a - c, QuasiPoly([*a._terms, (0, Poly((-c,)))]))
    _same(c - a, QuasiPoly([(0, Poly((c,))), *negated(a)]))
    for scalar in (c, p, 3):
        ref = QuasiPoly({e2: x * scalar for e2, x in a._terms})
        _same(a * scalar, ref)
        _same(scalar * a, ref)
    _same(a.scale(c), QuasiPoly({e2: x * c for e2, x in a._terms}))
    _same(a.ddt(), QuasiPoly({e2: x.derivative() + x * Fraction(e2, 2) for e2, x in a._terms}))
    # zero results leave no term at all
    zero = QuasiPoly({})
    for got in (
        a - a,
        a + (-a),
        -a + a,
        a.scale(0),
        a * 0,
        a * Poly(),
        zero.ddt(),
        QuasiPoly.constant(c).ddt(),
    ):
        _same(got, zero)


# ---------------------------------------------------------------------------
# from_rows, the canonical form of integer rows, against the validating
# constructor; and qpoly as the only module that builds canonical terms


def test_from_rows_drops_zero_rows_and_reduces_each_row():
    rows = {-2: ([0, 0], 3), 0: ([6, -4, 0], 8), -1: ([5], 5)}
    got = from_rows(rows)
    assert got._terms == ((0, Poly((Fraction(3, 4), Fraction(-1, 2)))), (-1, Poly((1,))))
    assert [(p._num, p._den) for _, p in got._terms] == [((3, -2), 4), ((1,), 1)]
    assert from_rows({})._terms == () and from_rows({0: ([0], 7)})._terms == ()


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=-6, max_value=6),
        st.tuples(
            st.lists(st.integers(min_value=-12, max_value=12), max_size=5),
            st.integers(min_value=1, max_value=24),
        ),
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_from_rows_in_any_order_matches_the_validating_constructor(rows, rng):
    ref = QuasiPoly({e2: Poly(Fraction(v, den) for v in num) for e2, (num, den) in rows.items()})
    keys = list(rows)
    rng.shuffle(keys)
    got = from_rows({e2: (list(rows[e2][0]), rows[e2][1]) for e2 in keys})
    _same(got, ref)


# _row_products against a dict convolution; a row is a list of (index,
# coefficient) pairs, so tuple(a) is a copy that takes the unsquared path
flat_rows = st.dictionaries(
    st.integers(min_value=0, max_value=8), st.integers(min_value=-50, max_value=50), max_size=6
).map(lambda d: sorted(d.items()))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(flat_rows, flat_rows, st.integers(min_value=-9, max_value=9)), max_size=4),
    flat_rows,
    st.integers(min_value=-9, max_value=9),
)
def test_row_products_matches_a_dict_convolution(terms, a, c):
    for square in ((a, a, c), (a, tuple(a), c)):
        want = {}
        for x, y, k in terms + [square]:
            for p, u in x:
                for q, v in y:
                    want[p + q] = want.get(p + q, 0) + k * u * v
        assert _row_products(terms + [square], 17) == [want.get(i, 0) for i in range(17)]


def test_only_qpoly_references_the_raw_constructors():
    # _poly and _quasi skip every check, so a module outside qpoly that
    # calls them could hand out terms that are not canonical
    src = Path(__file__).resolve().parent.parent / "src" / "freeunitary"
    users = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names.add(node.name)
            if names & {"_poly", "_quasi"}:
                users.add(path.name)
    assert users == {"qpoly.py"}



def test_only_qpoly_holds_a_flat_row_product_loop():
    # a loop that adds into out[p + q] is a flat-row product; every product
    # of the package, Poly.__mul__ and sum_of_products included, goes through
    # the one such loop, in qpoly._row_products
    src = Path(__file__).resolve().parent.parent / "src" / "freeunitary"
    holders = set()

    def visit(node, where, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}", False)
                continue
            if (
                in_loop
                and isinstance(child, ast.AugAssign)
                and isinstance(child.op, ast.Add)
                and isinstance(child.target, ast.Subscript)
                and isinstance(child.target.slice, ast.BinOp)
                and isinstance(child.target.slice.op, ast.Add)
            ):
                holders.add(where)
            visit(child, where, in_loop or isinstance(child, (ast.For, ast.While)))

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, False)
    assert holders == {"qpoly._row_products"}
