"""The identity-verification harness behind `freeunitary verify`.

Each named suite cross-checks library routes against each other, against
the paper's closed forms, or against frozen reference rows, and the
harness reports pass/fail per suite with up to twenty counterexamples.
Stdout is deterministic byte-for-byte for a fixed invocation; the wall
time of each suite goes to stderr.  Of the CLI requests only `verify`
imports this module, so no other request compiles it.

A suite is a generator that yields one case at a time.  A case is a list
of checks (input, expected, got); a check fails when its two sides differ
and is reported as input, str(expected), str(got).  Where a suite asserts
a property rather than a value, both sides are the phrase stating it and
got becomes what was seen when the property fails (_claim).  _suite
registers each suite once, with its name, its default size and the cap its
--max-n may not pass: it puts the fn(args) -> (cases, failures) of the
suite into SUITES and its sizes into SIZES.  run_suites looks each suite up
in SUITES as it runs it, so a wrapper put there after import (a timer, say)
is the one that runs.
"""

from __future__ import annotations

import sys
import time
from importlib import import_module
from random import Random

# The other layers, and fractions, are imported by the suites that use them.
from .errors import StructureError, check_at_least, check_at_most
from .qpoly import Poly, QuasiPoly

# --max-n of laplace-cross, which runs only the word recursion and the
# closed form on the n(n - 1)/2 words 1^k *^l with k + l <= n, not on all
# 2^n words.  Set at a budget of about 10 s from a fresh process on a
# loaded 2-core host (Python 3.11): it takes 1.9 to 2.1 s at 64 and 4.8 to
# 5.3 s at 72, where the words pass 64 letters and the row base of the
# recursion doubles to 128.  Also --max-n of remark4.5, whose words 1^k *
# are those with l = 1 (0.06 s in-process at 64).
LAPLACE_LIMIT = 64

# --max-n of xi-three-path, the order of xi_by_recursion, at the budget and
# margin of LAPLACE_LIMIT on the same host: 3.5 to 4.6 s at 52, 5.4 to 7.1 s
# at 54 and 8.5 s at 58.
XI_THREE_PATH_LIMIT = 52

# The frozen reference rows of the suites, built from integer numerators
# over one denominator, so that importing this module loads no fractions.
# cli._XI_ROWS, which perfbench/ reads, is verify._XI_ROWS.
_XI_ROWS = {
    1: QuasiPoly({0: 1, -2: -1}),
    2: QuasiPoly({0: -1, -2: 4, -4: Poly((-3, -2))}),
    3: QuasiPoly({0: 2, -2: -15, -4: Poly((30, 12)), -6: Poly((-17, -18, -6))}),
    4: QuasiPoly(
        {
            0: -5,
            -2: 56,
            -4: Poly((-196, -56)),
            -6: Poly((264, 208, 48)),
            -8: Poly.from_ints((-357, -516, -288, -64), 3),
        }
    ),
}
_LAMBDA_ROWS = {
    1: QuasiPoly({-2: -2}),
    2: QuasiPoly({-2: 4, -4: Poly((-6, -4))}),
}
_CHI_ROWS = {
    1: QuasiPoly({2: Poly.from_ints((-1,), 2)}),
    2: QuasiPoly({4: Poly.from_ints((1,), 2), 2: Poly.from_ints((-3, -2), 4)}),
}
_SUFFIX_STAR_ROWS = {
    1: QuasiPoly({0: 1, -2: -1}),
    2: QuasiPoly({-1: -1, -3: Poly((1, 1))}),
    3: QuasiPoly({-2: Poly((1, 1)), -4: Poly.from_ints((-2, -4, -3), 2)}),
    4: QuasiPoly(
        {
            -3: Poly.from_ints((-2, -4, -3), 2),
            -5: Poly.from_ints((3, 9, 12, 8), 3),
        }
    ),
}


_EXAMPLE69_BLOCKS = (
    [[1, 4, 5], [2, 3], [6]],
    [[1, 4, 5], [2], [3], [6]],
    [[1], [2, 3, 6], [4, 5]],
    [[1], [2, 3], [4, 5], [6]],
    [[1], [2, 6], [3], [4, 5]],
)


SUITES = {}  # name -> fn(args) -> (cases, failures), in the order the suites run
SIZES = {}  # name -> (default size, "module.CONSTANT" capping --max-n); None for prop6.7-cross


def _suite(name: str, size: int | None = None, bound: str | None = None):
    """Register the suite body(n, args) under name, where n is --max-n or
    else size.  bound is the cap of the route that n sizes (a word length, a
    ground size or an order) or a budget cap of the suite; run_suites reads
    it when it runs, so a value patched after import is the one that applies."""

    def register(body):
        def run_suite(args) -> tuple:
            cases, failures = 0, []
            for case in body(args.max_n or size, args):
                cases += 1
                failures += [(inp, str(want), str(got)) for inp, want, got in case if want != got]
            return cases, failures

        SUITES[name] = run_suite
        SIZES[name] = size, bound
        return body

    return register


def _claim(inp, phrase, holds: bool, seen) -> tuple:
    return inp, phrase, phrase if holds else seen


def _all_words(cap: int) -> Iterator[Word]:
    """Every word of length 1..cap; within a length, letter i is 1 where bit i is set."""
    from .moments import Word

    for n in range(1, cap + 1):
        for bits in range(2 ** n):
            yield Word(tuple(1 if (bits >> i) & 1 else -1 for i in range(n)))


@_suite("ncpart-lattice", 6, "ncpart.MAX_GROUND_SIZE")
def _suite_ncpart_lattice(max_n, args):
    from .ncpart import (
        NCPartition,
        catalan,
        enumerate_nc,
        kreweras,
        moebius_from_zero,
        moebius_to_one,
    )

    for n in range(1, max_n + 1):
        count = moebius_sum = 0
        case = []
        # streamed, and a partition's check is kept only when it fails:
        # NC(14) holds 2.7M partitions
        for p in enumerate_nc(n):
            count += 1
            moebius_sum += moebius_from_zero(p)
            blocks = p.num_blocks + kreweras(p).num_blocks
            if blocks != n + 1:
                case.append((f"n={n} pi={p}", f"{n + 1} blocks with complement", blocks))
        want = 1 if n == 1 else 0
        a = moebius_to_one(NCPartition.zero(n))
        b = moebius_from_zero(NCPartition.one(n))
        yield case + [
            (f"n={n}", f"count {catalan(n)}", f"count {count}"),
            _claim(f"n={n}", f"moebius sum {want}", moebius_sum == want, moebius_sum),
            _claim(f"n={n}", f"endpoint moebius {b}", a == b, a),
        ]


# the Moebius oracle, which Z_LIMIT caps
@_suite("z-two-path", 7, "cumulants.Z_LIMIT")
def _suite_z_two_path(n, args):
    from .cumulants import z_mobius, z_recursive

    for w in _all_words(n):
        yield [(str(w), z_mobius(w).value, z_recursive(w).value)]


# thm3.7, prop6.2 and thm6.3 run the recursion, which has no cap; they keep
# Z_LIMIT because they check all 2^n words of each length n, so the word
# count is what bounds them (8190 words at 12)
@_suite("thm3.7", 7, "cumulants.Z_LIMIT")
def _suite_thm37(n, args):
    from .cumulants import z_recursive

    for w in _all_words(n):
        holds = z_recursive(w).switch_bound_holds()
        yield [_claim(str(w), "grades beyond the switch bound vanish", holds, "nonzero grade")]


@_suite("prop6.2", 7, "cumulants.Z_LIMIT")
def _suite_prop62(n, args):
    from .cumulants import z_recursive
    from .moments import haar_cumulant

    for w in _all_words(n):
        # compared as polynomials, so a grade that is not constant fails
        yield [(str(w), Poly((haar_cumulant(w),)), z_recursive(w).grade(0))]


@_suite("thm6.3", 7, "cumulants.Z_LIMIT")
def _suite_thm63(n, args):
    from .cumulants import z_recursive
    from .moments import haar_first_order

    for w in _all_words(n):
        yield [(str(w), Poly((haar_first_order(w),)), z_recursive(w).grade(1))]


@_suite("laplace-cross", 8, "verify.LAPLACE_LIMIT")
def _suite_laplace_cross(cap, args):
    from fractions import Fraction

    from .cumulants import z_recursive
    from .laplace import u_poly, v_k1_closed, v_poly, z_from_laplace

    for k in range(1, cap):
        for l in range(1, cap + 1 - k):
            closed = z_from_laplace(k, l).value
            generic = z_recursive("1" * k + "*" * l).value
            case = [(f"k={k} l={l}", generic, closed)]
            for name, p in (("U", u_poly(k, l)), ("V", v_poly(k, l))):
                integral = all(c.denominator == 1 for c in p.coeffs)
                case.append(_claim(f"{name} k={k} l={l}", "integer coefficients", integral, p))
            yield case
    for k in range(1, cap):
        holds = u_poly(k, 1) == v_poly(k + 1, 1) * Fraction(-1, k)
        yield [_claim(f"k={k}", "U(k,1) = -(1/k) V(k+1,1)", holds, "mismatch")]
    for k in range(1, cap + 1):
        closed = v_k1_closed(k)
        yield [(f"k={k}", v_poly(k, 1), closed)]


@_suite("remark4.5", 7, "verify.LAPLACE_LIMIT")
def _suite_remark45(n, args):
    from .cumulants import z_recursive
    from .laplace import suffix_star_cumulant

    for k in range(1, n + 1):
        closed = suffix_star_cumulant(k)
        yield [(f"k={k}", z_recursive("1" * k + "*").value, closed)]
    for k, row in _SUFFIX_STAR_ROWS.items():
        yield [(f"frozen k={k}", row, suffix_star_cumulant(k))]


@_suite("xi-three-path", 6, "verify.XI_THREE_PATH_LIMIT")
def _suite_xi_three_path(n_inv, args):
    from .alternating import lambda_series, xi_by_inversion, xi_by_mobius, xi_by_recursion

    n_mob = min(n_inv, 5)
    rec = xi_by_recursion(n_inv)
    inv = xi_by_inversion(n_inv)
    mob = xi_by_mobius(n_mob)
    for n in range(1, n_inv + 1):
        yield [(f"xi_{n}", rec.xi(n), inv.xi(n))]
    for n in range(1, n_mob + 1):
        yield [(f"xi_{n}", rec.xi(n), mob.xi(n))]
    for n, row in _XI_ROWS.items():
        if n <= n_inv:
            yield [(f"frozen xi_{n}", row, rec.xi(n))]
    lam = lambda_series(2)
    for n, row in _LAMBDA_ROWS.items():
        yield [(f"frozen lambda_{n}", row, lam.coeff(n))]


@_suite("pde-coeff", 6, "alternating.PDE_LIMIT")
def _suite_pde_coeff(n, args):
    from .alternating import pde_residual

    report = pde_residual(n)
    for j, coeff in enumerate(report.coefficients[:n], start=1):
        yield [(f"z^{j}", 0, coeff)]
    yield [("defect order", n + 1, report.defect_order)]
    if n >= 6:
        small = report.max_residual < 1e-15
        yield [_claim("max residual", "< 1e-15", small, f"{report.max_residual:.3e}")]


@_suite("chi-roundtrip", 6, "alternating.CHI_ORDER_LIMIT")
def _suite_chi_roundtrip(order, args):
    from .alternating import chi_expansion, chi_roundtrip_defect, lagrange_lambda, lambda_series

    defect = chi_roundtrip_defect(order)
    for n in range(order + 1):
        yield [(f"z^{n}", 0, defect.coeff(n))]
    tri = lambda_series(order)
    lag = lagrange_lambda(order)
    for n in range(1, order + 1):
        yield [(f"lambda_{n}", tri.coeff(n), lag.coeff(n))]
    chi = chi_expansion(order)
    for n, row in _CHI_ROWS.items():
        if n <= order:
            yield [(f"frozen chi_{n}", row, chi.coeff(n))]


@_suite("prop6.7-cross")
def _suite_prop67_cross(_, args):
    from fractions import Fraction

    from .moments import _signed_catalan
    from .rdiag import Distribution, beta_enumeration, beta_mobius, mixed_q_cumulant

    rng = Random(args.seed)
    for trial in range(20):
        d = Distribution.random_small(rng, 10)
        bm = beta_mobius(d, 3)
        for k, word in ((2, "1*1"), (3, "1*1*1")):
            yield [(f"trial={trial} k={k} d={d!r}", bm[k - 1], beta_enumeration(d, word))]
        beta2_direct = mixed_q_cumulant(d, (2, 1)) - mixed_q_cumulant(d, (2,)) * d.kappa(1)
        yield [(f"trial={trial} beta_2", beta2_direct, bm[1])]
    one = Distribution.point_mass_one(10)
    for k, value in enumerate(beta_mobius(one, 4), start=1):
        yield [(f"q=1 beta_{k}", Fraction(_signed_catalan(k)), value)]


@_suite("lemma6.11", 6, "rdiag.BRUTE_LIMIT")
def _suite_lemma611(n, args):
    from .moments import is_alternating
    from .rdiag import nc_omega

    # words that begin and end with 1; the one-letter word is alternating
    for w in _all_words(n):
        if w.letters[0] == w.letters[-1] == 1 and not is_alternating(w):
            found = len(nc_omega(w))
            yield [_claim(str(w), "empty support set", not found, f"{found} partitions")]


@_suite("example6.9", 3, "rdiag.STRUCTURED_LIMIT")
def _suite_example69(n, args):
    from .rdiag import nc_omega, nc_omega_structured

    got = [p.to_lists() for p in nc_omega("1*1").partitions]
    want = sorted(_EXAMPLE69_BLOCKS)
    yield [_claim("1*1", want, sorted(got) == want, got)]
    for k in range(1, n + 1):
        structured = nc_omega_structured(k)
        brute = nc_omega("1" + "*1" * (k - 1))
        filtered = f"{len(brute)} partitions (filter)"
        yield [_claim(f"k={k}", filtered, structured == brute, f"{len(structured)} (structured)")]
    found = len(nc_omega_structured(1))
    yield [_claim("k=1", "1 partition", found == 1, found)]


def run_suites(args) -> int:
    """Run args.suite, or every suite in order; exit code 0 if all pass, else 1."""
    names = [args.suite] if args.suite else list(SUITES)
    if args.max_n is not None:
        check_at_least("--max-n", args.max_n, 1)
        # named alone, a suite with no size refuses --max-n; among all, it runs its fixed cases
        if args.suite and SIZES[args.suite][0] is None:
            raise StructureError(f"suite {args.suite} has no size for --max-n to set")
        for name in names:
            bound = SIZES[name][1]
            if bound:
                module, const = bound.split(".")
                limit = getattr(import_module(f"{__package__}.{module}"), const)
                check_at_most(f"suite {name} --max-n", args.max_n, const, limit)
    passed = 0
    for name in names:
        start = time.monotonic()
        try:
            cases, failures = SUITES[name](args)
        except Exception as exc:  # a crash is a failed suite, not a crash of the harness
            cases, failures = 0, [("<exception>", "no exception", repr(exc))]
        seconds = time.monotonic() - start
        note = f" [seed={args.seed}]" if name == "prop6.7-cross" else ""
        if failures:
            print(f"suite {name}: FAIL ({len(failures)} of {cases} cases){note}")
            for inp, want, got in failures[:20]:
                print(f"  input={inp} expected={want} got={got}")
            if len(failures) > 20:
                print(f"  ... {len(failures) - 20} more")
        else:
            print(f"suite {name}: PASS ({cases} cases){note}")
        sys.stdout.flush()
        print(f"suite {name}: {seconds:.2f}s", file=sys.stderr)
        passed += not failures
    print(f"{passed}/{len(names)} suites passed")
    return 0 if passed == len(names) else 1
