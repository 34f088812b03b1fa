"""Command-line front end and the identity-verification harness.

Subcommands expose the library routes (zpoly, xi, special, fcheck,
pde-check, haar, alpha, beta, ncw, nc, moments) plus a verify harness
that runs named cross-check suites and reports pass/fail with
counterexamples.  Output on stdout is deterministic byte-for-byte for a
fixed invocation, and under --format json it is exactly one JSON object;
wall times go to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage or data error, 141 (128 + SIGPIPE) when the reader closes stdout
early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from random import Random
from typing import Iterator, Optional, Sequence

# Layers are imported by the handlers and suites that run them, so a
# request loads only its own code (and mpmath only when it evaluates).
from .errors import InsufficientDataError, SizeError, StructureError
from .qpoly import Poly, QuasiPoly, poly_text

DEFAULT_SEED = 20260813
DEFAULT_PREC = 128
MIN_PREC = 53  # an IEEE double; fewer bits print digits that are wrong
MAX_PREC = 16384  # pde-check --n 12 takes about 3 s; the cost grows faster than the bits

# Frozen reference rows used by the verify suites.
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
            -8: Poly((-119, -172, -96, Fraction(-64, 3))),
        }
    ),
}
_LAMBDA_ROWS = {
    1: QuasiPoly({-2: -2}),
    2: QuasiPoly({-2: 4, -4: Poly((-6, -4))}),
}
_CHI_ROWS = {
    1: QuasiPoly({2: Fraction(-1, 2)}),
    2: QuasiPoly({4: Fraction(1, 2), 2: Poly((Fraction(-3, 4), Fraction(-1, 2)))}),
}
_SUFFIX_STAR_ROWS = {
    1: QuasiPoly({0: 1, -2: -1}),
    2: QuasiPoly({-1: -1, -3: Poly((1, 1))}),
    3: QuasiPoly({-2: Poly((1, 1)), -4: Poly((-1, -2, Fraction(-3, 2)))}),
    4: QuasiPoly(
        {
            -3: Poly((-1, -2, Fraction(-3, 2))),
            -5: Poly((1, 3, 4, Fraction(8, 3))),
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


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise StructureError(f"cannot parse rational {text!r}: {exc}") from None


def _json(value):
    """The JSON form of a list of rationals, a Poly or a QuasiPoly."""
    if isinstance(value, list):
        return [str(v) for v in value]
    if isinstance(value, Poly):
        return {"coeffs": [str(c) for c in value.coeffs]}
    return value.to_json_dict()


def _show(value, fmt: str) -> str:
    """A Poly or a QuasiPoly in the output format fmt."""
    if fmt == "json":
        return json.dumps(_json(value), sort_keys=True)
    if isinstance(value, Poly):
        return poly_text(value, "x", latex=fmt == "latex")
    return value.to_latex() if fmt == "latex" else value.to_text()


def _print_value(value, args) -> int:
    """Print one value: a quasi-polynomial at t = --eval when given, else the
    value in --format."""
    if args.eval is None:
        print(_show(value, args.format))
        return 0
    import mpmath

    with mpmath.workprec(args.prec):
        number = value.eval(_parse_fraction(args.eval), args.prec)
        print(mpmath.nstr(number, max(8, int(args.prec * 0.301))))
    return 0


def _report(fmt: str, lines: Sequence[str], payload: dict) -> int:
    """Print the lines, or under --format json the payload as one JSON object."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def _verdict(fmt: str, values: dict, lines: Sequence[str]) -> int:
    """Report the value of each route and CONSISTENT or INCONSISTENT (under
    json, one key per route and "consistent"); exit 1 unless all agree."""
    first = next(iter(values.values()))
    consistent = all(v == first for v in values.values())
    payload = {name: _json(v) for name, v in values.items()}
    payload["consistent"] = consistent
    _report(fmt, [*lines, "CONSISTENT" if consistent else "INCONSISTENT"], payload)
    return 0 if consistent else 1


def _all_words(cap: int) -> Iterator[Word]:
    """Every word of length 1..cap; within a length, letter i is 1 where bit i is set."""
    from .moments import Word

    for n in range(1, cap + 1):
        for bits in range(2 ** n):
            yield Word(tuple(1 if (bits >> i) & 1 else -1 for i in range(n)))


def _load_distribution(path: str) -> Distribution:
    from .rdiag import Distribution

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data or not all(
        isinstance(s, str) for s in data
    ):
        raise StructureError(
            "q-cumulants file must be a non-empty JSON array of 'p/q' strings"
        )
    return Distribution(_parse_fraction(s) for s in data)


def _parse_partition(n: int, text: str) -> NCPartition:
    from .ncpart import NCPartition

    try:
        blocks = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"cannot parse partition {text!r}: {exc}") from None
    if not isinstance(blocks, list) or not all(
        isinstance(b, list) and all(type(e) is int for e in b) for b in blocks
    ):
        raise StructureError(f"partition {text!r} must be a JSON list of lists of integers")
    return NCPartition(n, blocks)


# ---------------------------------------------------------------------------
# verify harness
#
# A suite is a generator that yields one case at a time.  A case is a list
# of checks (input, expected, got); a check fails when its two sides differ
# and is reported as input, str(expected), str(got).  Where a suite asserts
# a property rather than a value, both sides are the phrase stating it and
# got becomes what was seen when the property fails (_claim).  _tally turns
# a suite into the fn(args) -> (cases, failures) held in SUITES.
# _cmd_verify looks each suite up in SUITES as it runs it, so a wrapper put
# there after import (a timer, say) is the one that runs.


def _tally(suite):
    def run_suite(args) -> tuple:
        cases, failures = 0, []
        for case in suite(args):
            cases += 1
            failures += [(inp, str(want), str(got)) for inp, want, got in case if want != got]
        return cases, failures

    return run_suite


def _claim(inp, phrase, holds: bool, seen) -> tuple:
    return inp, phrase, phrase if holds else seen


@_tally
def _suite_ncpart_lattice(args):
    from .ncpart import (
        NCPartition,
        catalan,
        enumerate_nc,
        kreweras,
        moebius_from_zero,
        moebius_to_one,
    )

    for n in range(1, (args.max_n or 6) + 1):
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


@_tally
def _suite_z_two_path(args):
    from .cumulants import z_mobius, z_recursive

    for w in _all_words(args.max_n or 7):
        yield [(str(w), z_mobius(w).value, z_recursive(w).value)]


@_tally
def _suite_thm37(args):
    from .cumulants import z_recursive

    for w in _all_words(args.max_n or 7):
        holds = z_recursive(w).switch_bound_holds()
        yield [_claim(str(w), "grades beyond the switch bound vanish", holds, "nonzero grade")]


@_tally
def _suite_prop62(args):
    from .cumulants import haar_limit, z_recursive

    for w in _all_words(args.max_n or 7):
        # compared as polynomials, so a grade that is not constant fails
        yield [(str(w), Poly((haar_limit(w),)), z_recursive(w).grade(0))]


@_tally
def _suite_thm63(args):
    from .cumulants import haar_derivative, z_recursive

    for w in _all_words(args.max_n or 7):
        yield [(str(w), Poly((haar_derivative(w),)), z_recursive(w).grade(1))]


@_tally
def _suite_laplace_cross(args):
    from .cumulants import z_recursive
    from .laplace import u_poly, v_k1_closed, v_poly, z_from_laplace

    cap = args.max_n or 8
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


@_tally
def _suite_remark45(args):
    from .cumulants import z_recursive
    from .laplace import suffix_star_cumulant

    for k in range(1, min(args.max_n or 7, 11) + 1):
        closed = suffix_star_cumulant(k)
        yield [(f"k={k}", z_recursive("1" * k + "*").value, closed)]
    for k, row in _SUFFIX_STAR_ROWS.items():
        yield [(f"frozen k={k}", row, suffix_star_cumulant(k))]


@_tally
def _suite_xi_three_path(args):
    from .alternating import lambda_series, xi_by_inversion, xi_by_mobius, xi_by_recursion

    n_inv = args.max_n or 6
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


@_tally
def _suite_pde_coeff(args):
    from .alternating import pde_residual, pde_z_coefficient, xi_by_recursion

    n = args.max_n or 6
    seq = xi_by_recursion(n)
    for j in range(1, n + 1):
        yield [(f"z^{j}", 0, pde_z_coefficient(seq.entries, j))]
    report = pde_residual(n, prec_bits=args.prec)
    yield [("defect order", n + 1, report.defect_order)]
    if n >= 6:
        small = report.max_residual < 1e-15
        yield [_claim("max residual", "< 1e-15", small, f"{report.max_residual:.3e}")]


@_tally
def _suite_chi_roundtrip(args):
    from .alternating import chi_expansion, chi_roundtrip_defect, lagrange_lambda, lambda_series

    order = args.max_n or 6
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


@_tally
def _suite_prop67_cross(args):
    from .ncpart import catalan
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
        yield [(f"q=1 beta_{k}", Fraction((-1) ** (k - 1) * catalan(k - 1)), value)]


@_tally
def _suite_lemma611(args):
    from .cumulants import is_alternating
    from .rdiag import nc_omega

    # words that begin and end with 1; the one-letter word is alternating
    for w in _all_words(min(args.max_n or 6, 6)):
        if w.letters[0] == w.letters[-1] == 1 and not is_alternating(w):
            found = len(nc_omega(w))
            yield [_claim(str(w), "empty support set", not found, f"{found} partitions")]


@_tally
def _suite_example69(args):
    from .rdiag import nc_omega, nc_omega_structured

    got = [p.to_lists() for p in nc_omega("1*1").partitions]
    want = sorted(_EXAMPLE69_BLOCKS)
    yield [_claim("1*1", want, sorted(got) == want, got)]
    for k in range(1, min(args.max_n or 3, 4) + 1):
        structured = nc_omega_structured(k)
        brute = nc_omega("1" + "*1" * (k - 1))
        filtered = f"{len(brute)} partitions (filter)"
        yield [_claim(f"k={k}", filtered, structured == brute, f"{len(structured)} (structured)")]
    found = len(nc_omega_structured(1))
    yield [_claim("k=1", "1 partition", found == 1, found)]


def _max_n_limits() -> dict:
    """Suite -> (name, value) of the route limit its --max-n may not pass.

    These suites feed --max-n to a size-capped route as a word length or a
    ground size.  z-two-path runs the Moebius oracle, which Z_LIMIT caps.
    The other word suites run the recursion, which has no cap; they keep
    Z_LIMIT because thm3.7, prop6.2 and thm6.3 check all 2^n words of each
    length n, so the word count is what bounds them (8190 words at 12).
    The table lives here, not on the SUITES entries, because those entries
    may be swapped for wrappers after import.
    """
    from .cumulants import Z_LIMIT
    from .ncpart import MAX_GROUND_SIZE

    z = ("Z_LIMIT", Z_LIMIT)
    return {
        "ncpart-lattice": ("MAX_GROUND_SIZE", MAX_GROUND_SIZE),
        "z-two-path": z,
        "thm3.7": z,
        "prop6.2": z,
        "thm6.3": z,
        "laplace-cross": z,
    }


SUITES = {
    "ncpart-lattice": _suite_ncpart_lattice,
    "z-two-path": _suite_z_two_path,
    "thm3.7": _suite_thm37,
    "prop6.2": _suite_prop62,
    "thm6.3": _suite_thm63,
    "laplace-cross": _suite_laplace_cross,
    "remark4.5": _suite_remark45,
    "xi-three-path": _suite_xi_three_path,
    "pde-coeff": _suite_pde_coeff,
    "chi-roundtrip": _suite_chi_roundtrip,
    "prop6.7-cross": _suite_prop67_cross,
    "lemma6.11": _suite_lemma611,
    "example6.9": _suite_example69,
}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_zpoly(args) -> int:
    from .cumulants import z_mobius, z_recursive
    from .moments import as_word

    word = as_word(args.word)
    if args.grade is not None and args.grade < 0:
        raise SizeError(f"--grade must be >= 0, got {args.grade}")
    if args.grade is not None and args.eval is not None:
        raise StructureError("--grade and --eval cannot be combined")
    if args.method == "both" and (args.grade is not None or args.eval is not None):
        raise StructureError("--grade and --eval take one method, not --method both")
    routes = {
        "mobius": lambda: z_mobius(word).value,
        "recursive": lambda: z_recursive(word).value,
    }
    if args.method != "both":
        value = routes[args.method]()
        return _print_value(value if args.grade is None else value.grade(args.grade), args)
    values = {name: fn() for name, fn in routes.items()}
    lines = [f"{name + ':':10} {_show(v, args.format)}" for name, v in values.items()]
    return _verdict(args.format, values, lines)


def _cmd_xi(args) -> int:
    from .alternating import xi_by_inversion, xi_by_mobius, xi_by_recursion

    n = args.n
    if n < 1:
        raise SizeError(f"--n must be >= 1, got {n}")
    if args.method == "all" and args.eval is not None:
        raise StructureError("--eval takes one method, not --method all")
    routes = {
        "recursion": lambda: xi_by_recursion(n).xi(n),
        "mobius": lambda: xi_by_mobius(n).xi(n),
        "inversion": lambda: xi_by_inversion(n).xi(n),
    }
    if args.method != "all":
        return _print_value(routes[args.method](), args)
    values = {name: fn() for name, fn in routes.items()}
    lines = [f"{name}: {_show(v, args.format)}" for name, v in values.items()]
    return _verdict(args.format, values, lines)


def _cmd_special(args) -> int:
    from .laplace import u_poly, v_poly, z_from_laplace

    k, l = args.k, args.l
    values = {"U": u_poly(k, l), "V": v_poly(k, l), "Z": z_from_laplace(k, l).value}
    lines = [f"{name} = {_show(v, args.format)}" for name, v in values.items()]
    payload = {"k": k, "l": l, **{name: _json(v) for name, v in values.items()}}
    return _report(args.format, lines, payload)


def _cmd_fcheck(args) -> int:
    from .laplace import check_f_identity

    ok, failures = check_f_identity(args.order)
    if ok:
        print(f"OK: cleared-form identity holds through order {args.order}")
        return 0
    for (i, j), got, expected in failures:
        print(f"coefficient ({i},{j}): expected {expected.to_text()}, got {got.to_text()}")
    return 1


def _cmd_pde_check(args) -> int:
    from .alternating import pde_residual, pde_z_coefficient, xi_by_recursion

    n = args.n
    seq = xi_by_recursion(n)
    bad = [
        j
        for j in range(1, n + 1)
        if not pde_z_coefficient(seq.entries, j).is_zero
    ]
    report = pde_residual(n, prec_bits=args.prec)
    if bad:
        for j in bad:
            print(f"coefficient z^{j}: nonzero")
    else:
        print(f"coefficients z^1..z^{n}: all zero")
    print(f"defect order: {report.defect_order}")
    print(f"max residual on default grids: {report.max_residual:.3e}")
    return 1 if bad else 0


def _cmd_haar(args) -> int:
    from .cumulants import haar_derivative, haar_limit
    from .moments import as_word

    word = as_word(args.word)
    limit, derivative = haar_limit(word), haar_derivative(word)
    payload = {"word": str(word), "limit": str(limit), "derivative": str(derivative)}
    return _report(args.format, [f"limit = {limit}", f"derivative = {derivative}"], payload)


def _cmd_alpha(args) -> int:
    from .rdiag import alpha_sequence

    values = alpha_sequence(_load_distribution(args.q_cumulants), args.k)
    lines = [f"alpha_{k} = {v}" for k, v in enumerate(values, start=1)]
    return _report(args.format, lines, {"alpha": _json(values)})


def _cmd_beta(args) -> int:
    from .rdiag import STRUCTURED_LIMIT, beta_enumeration, beta_mobius, check_cumulants
    from .rdiag import nc_omega_structured

    # refuse before any sum, so --method both runs no Moebius sum it cannot cross-check
    if args.k < 1:
        raise SizeError(f"--k must be >= 1, got {args.k}")
    if args.method != "mobius" and args.k > STRUCTURED_LIMIT:
        raise SizeError(
            f"--method {args.method} needs k <= {STRUCTURED_LIMIT}, got {args.k}: "
            f"the structured support sets stop at STRUCTURED_LIMIT = {STRUCTURED_LIMIT}"
        )
    d = _load_distribution(args.q_cumulants)
    check_cumulants(d, args.k, marked=True)
    routes = {
        "mobius": lambda: beta_mobius(d, args.k),
        "enumeration": lambda: [
            beta_enumeration(d, "1" + "*1" * (k - 1), partitions=nc_omega_structured(k))
            for k in range(1, args.k + 1)
        ],
    }
    names = list(routes) if args.method == "both" else [args.method]
    values = {name: routes[name]() for name in names}
    lines = [f"beta_{k} ({name}) = {v}" for name, seq in values.items()
             for k, v in enumerate(seq, start=1)]
    if args.method == "both":
        return _verdict(args.format, values, lines)
    return _report(args.format, lines, {name: _json(seq) for name, seq in values.items()})


def _cmd_ncw(args) -> int:
    from .rdiag import nc_omega

    onc = nc_omega(args.word)
    lines = [f"count = {len(onc)}"]
    payload = {"word": str(onc.word), "count": len(onc)}
    if not args.count_only:
        lines += [str(p) for p in onc.partitions]
        payload["partitions"] = [p.to_lists() for p in onc.partitions]
    return _report(args.format, lines, payload)


def _cmd_nc(args) -> int:
    from .ncpart import catalan, check_ground_size, enumerate_nc, kreweras, moebius_to_one

    n = args.n
    if args.kreweras is not None:
        p = _parse_partition(n, args.kreweras)
        print(str(kreweras(p)))
        return 0
    if args.moebius is not None:
        p = _parse_partition(n, args.moebius)
        print(moebius_to_one(p))
        return 0
    if args.list:
        for p in enumerate_nc(n):
            print(str(p))
        return 0
    check_ground_size(n)
    print(f"count = {catalan(n)}")
    return 0


def _cmd_moments(args) -> int:
    from .moments import as_word, m_poly

    return _print_value(m_poly(as_word(args.word)), args)


def _cmd_verify(args) -> int:
    if args.max_n is not None and args.max_n < 1:
        raise SizeError(f"--max-n must be >= 1, got {args.max_n}")
    names = [args.suite] if args.suite else list(SUITES)
    if args.max_n is not None:
        limits = _max_n_limits()
        for name in names:
            if name in limits and args.max_n > limits[name][1]:
                const, limit = limits[name]
                raise SizeError(
                    f"--max-n {args.max_n} exceeds the limit of suite {name}: {const} = {limit}"
                )
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


# ---------------------------------------------------------------------------
# parser


def _add_format(p: argparse.ArgumentParser, choices=("text", "latex", "json")) -> None:
    p.add_argument(
        "--format",
        choices=choices,
        default="text",
        help="output format (default text)",
    )


def _prec_bits(text: str) -> int:
    bits = int(text)
    if bits < MIN_PREC:
        raise argparse.ArgumentTypeError(f"must be at least {MIN_PREC} bits, got {bits}")
    if bits > MAX_PREC:
        raise argparse.ArgumentTypeError(f"must be at most MAX_PREC = {MAX_PREC} bits, got {bits}")
    return bits


def _add_prec(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--prec",
        type=_prec_bits,
        default=DEFAULT_PREC,
        help=f"working precision in bits (default {DEFAULT_PREC})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeunitary",
        description="Exact joint cumulants of a free unitary flow and its adjoint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zpoly", help="cumulant quasi-polynomial of a word")
    p.add_argument("word", help="word over {1,*}, e.g. '1*1' or 'uu*u'")
    p.add_argument(
        "--method",
        choices=("mobius", "recursive", "both"),
        default="recursive",
        help="computation route (mobius is the oracle, for words up to Z_LIMIT letters); "
        "both cross-checks and exits 1 on mismatch",
    )
    p.add_argument("--eval", metavar="T", help="evaluate at t = T (rational)")
    p.add_argument("--grade", type=int, metavar="M", help="emit the y^M coefficient")
    _add_format(p)
    _add_prec(p)
    p.set_defaults(func=_cmd_zpoly)

    p = sub.add_parser("xi", help="alternating cumulant xi_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method",
        choices=("recursion", "mobius", "inversion", "all"),
        default="recursion",
    )
    p.add_argument("--eval", metavar="T", help="evaluate at t = T (rational)")
    _add_format(p)
    _add_prec(p)
    p.set_defaults(func=_cmd_xi)

    p = sub.add_parser("special", help="closed two-term form for 1^k *^l words")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_special)

    p = sub.add_parser("fcheck", help="cleared-form functional identity check")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_fcheck)

    p = sub.add_parser("pde-check", help="PDE coefficient and residual check")
    p.add_argument("--n", type=int, required=True)
    _add_prec(p)
    p.set_defaults(func=_cmd_pde_check)

    p = sub.add_parser("haar", help="stationary limit and first-order coefficient")
    p.add_argument("--word", required=True)
    _add_format(p, ("text", "json"))
    p.set_defaults(func=_cmd_haar)

    p = sub.add_parser("alpha", help="determining sequence from q-cumulants")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q-cumulants", required=True, metavar="FILE")
    _add_format(p, ("text", "json"))
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("beta", help="infinitesimal determining sequence")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q-cumulants", required=True, metavar="FILE")
    p.add_argument(
        "--method",
        choices=("mobius", "enumeration", "both"),
        default="mobius",
    )
    _add_format(p, ("text", "json"))
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("ncw", help="supporting partitions of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--count-only", action="store_true")
    _add_format(p, ("text", "json"))
    p.set_defaults(func=_cmd_ncw)

    p = sub.add_parser("nc", help="non-crossing partition lattice utilities")
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", help="list all partitions")
    mode.add_argument("--kreweras", metavar="P", help="complement of P, e.g. '[[1,4],[2,3]]'")
    mode.add_argument("--moebius", metavar="P", help="Moebius weight of P against the full block")
    p.set_defaults(func=_cmd_nc)

    p = sub.add_parser("moments", help="moment quasi-polynomial of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--eval", metavar="T", help="evaluate at t = T (rational)")
    _add_format(p)
    _add_prec(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("--suite", choices=sorted(SUITES), help="run one suite (default all)")
    p.add_argument("--max-n", type=int, default=None, help="override the suite size knob")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_prec(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (SizeError, StructureError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout, which is not bad input.  Point stdout
        # at the null device so the flush at exit does not fail again.
        sys.stdout = open(os.devnull, "w")
        return 141
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
