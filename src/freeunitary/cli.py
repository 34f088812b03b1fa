"""Command-line front end and the identity-verification harness.

Subcommands expose the library routes (zpoly, xi, special, fcheck,
pde-check, haar, alpha, beta, ncw, nc, moments) plus a verify harness
that runs named cross-check suites and reports pass/fail with
counterexamples.  Output on stdout is deterministic byte-for-byte for a
fixed invocation; wall times go to stderr.  Exit codes: 0 success, 1
verification failure, 2 usage or data error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from random import Random
from typing import Iterator, Optional, Sequence

from .alternating import (
    chi_expansion,
    chi_roundtrip_defect,
    lagrange_lambda,
    lambda_series,
    pde_residual,
    pde_z_coefficient,
    xi_by_inversion,
    xi_by_mobius,
    xi_by_recursion,
)
from .cumulants import haar_cumulant, z_mobius, z_recursive
from .errors import InsufficientDataError, SizeError, StructureError
from .laplace import (
    check_f_identity,
    suffix_star_cumulant,
    u_poly,
    v_k1_closed,
    v_poly,
    z_from_laplace,
)
from .moments import Word, as_word, m_poly
from .ncpart import (
    NCPartition,
    catalan,
    enumerate_nc,
    kreweras,
    moebius_from_zero,
    moebius_to_one,
)
from .qpoly import Poly, QuasiPoly, poly_text
from .rdiag import (
    Distribution,
    beta_enumeration,
    beta_mobius,
    alpha_sequence,
    haar_derivative,
    haar_limit,
    is_alternating,
    mixed_q_cumulant,
    nc_omega,
    nc_omega_structured,
)

DEFAULT_SEED = 20260813
DEFAULT_PREC = 128
MIN_PREC = 53  # an IEEE double; fewer bits print digits that are wrong

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


def _poly_json(p: Poly) -> dict:
    return {"coeffs": [str(c) for c in p.coeffs]}


def _emit_quasipoly(q: QuasiPoly, fmt: str) -> str:
    if fmt == "latex":
        return q.to_latex()
    if fmt == "json":
        return json.dumps(q.to_json_dict(), sort_keys=True)
    return q.to_text()


def _emit_poly(p: Poly, fmt: str) -> str:
    if fmt == "latex":
        return poly_text(p, "x", latex=True)
    if fmt == "json":
        return json.dumps(_poly_json(p), sort_keys=True)
    return poly_text(p, "x")


def _eval_str(q: QuasiPoly, t: Fraction, prec_bits: int) -> str:
    import mpmath

    with mpmath.workprec(prec_bits):
        val = q.eval(t, prec_bits)
        return mpmath.nstr(val, max(8, int(prec_bits * 0.301)))


def _all_words(n: int) -> Iterator[Word]:
    for bits in range(2 ** n):
        yield Word(tuple(1 if (bits >> i) & 1 else -1 for i in range(n)))


def _derivative_formula(word: Word) -> int:
    if word.n % 2 == 0 or not is_alternating(word):
        return 0
    k = (word.n + 1) // 2
    return (-1) ** (k - 1) * catalan(k - 1)


def _load_distribution(path: str) -> Distribution:
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


class VerifyReport:
    """Outcome of one identity suite."""

    __slots__ = ("suite", "cases", "failures", "seconds", "note")

    def __init__(self, suite, cases, failures, seconds, note=""):
        self.suite = suite
        self.cases = cases
        self.failures = list(failures)
        self.seconds = seconds
        self.note = note

    @property
    def ok(self) -> bool:
        return not self.failures


def _suite_ncpart_lattice(args) -> tuple:
    cap = args.max_n or 6
    failures = []
    cases = 0
    for n in range(1, cap + 1):
        cases += 1
        count = 0
        moebius_sum = 0
        for p in enumerate_nc(n):
            count += 1
            moebius_sum += moebius_from_zero(p)
            kr = kreweras(p)
            if p.num_blocks + kr.num_blocks != n + 1:
                failures.append(
                    (f"n={n} pi={p}", f"{n + 1} blocks with complement", str(p.num_blocks + kr.num_blocks))
                )
        if count != catalan(n):
            failures.append((f"n={n}", f"count {catalan(n)}", f"count {count}"))
        want = 1 if n == 1 else 0
        if moebius_sum != want:
            failures.append((f"n={n}", f"moebius sum {want}", str(moebius_sum)))
        a = moebius_to_one(NCPartition.zero(n))
        b = moebius_from_zero(NCPartition.one(n))
        if a != b:
            failures.append((f"n={n}", f"endpoint moebius {b}", str(a)))
    return cases, failures


def _suite_z_two_path(args) -> tuple:
    cap = args.max_n or 7
    failures = []
    cases = 0
    for n in range(1, cap + 1):
        for w in _all_words(n):
            cases += 1
            a = z_mobius(w).value
            b = z_recursive(w).value
            if a != b:
                failures.append((str(w), a.to_text(), b.to_text()))
    return cases, failures


def _suite_thm37(args) -> tuple:
    cap = args.max_n or 7
    failures = []
    cases = 0
    for n in range(1, cap + 1):
        for w in _all_words(n):
            cases += 1
            if not z_mobius(w).switch_bound_holds():
                failures.append(
                    (str(w), "grades beyond the switch bound vanish", "nonzero grade")
                )
    return cases, failures


def _suite_prop62(args) -> tuple:
    cap = args.max_n or 7
    failures = []
    cases = 0
    for n in range(1, cap + 1):
        for w in _all_words(n):
            cases += 1
            want = Fraction(haar_cumulant(w))
            got = haar_limit(w)
            if got != want:
                failures.append((str(w), str(want), str(got)))
    return cases, failures


def _suite_thm63(args) -> tuple:
    cap = args.max_n or 7
    failures = []
    cases = 0
    for n in range(1, cap + 1):
        for w in _all_words(n):
            cases += 1
            grade1 = z_mobius(w).grade(1)
            if grade1.degree > 0:
                failures.append((str(w), "constant grade-1 part", poly_text(grade1)))
                continue
            want = Fraction(_derivative_formula(w))
            got = haar_derivative(w)
            if got != want:
                failures.append((str(w), str(want), str(got)))
    return cases, failures


def _suite_laplace_cross(args) -> tuple:
    cap = args.max_n or 8
    failures = []
    cases = 0
    for k in range(1, cap):
        for l in range(1, cap + 1 - k):
            cases += 1
            closed = z_from_laplace(k, l).value
            generic = z_mobius("1" * k + "*" * l).value
            if closed != generic:
                failures.append((f"k={k} l={l}", generic.to_text(), closed.to_text()))
            for name, p in (("U", u_poly(k, l)), ("V", v_poly(k, l))):
                if any(c.denominator != 1 for c in p.coeffs):
                    failures.append(
                        (f"{name} k={k} l={l}", "integer coefficients", poly_text(p))
                    )
    for k in range(1, cap):
        cases += 1
        if u_poly(k, 1) != v_poly(k + 1, 1) * Fraction(-1, k):
            failures.append((f"k={k}", "U(k,1) = -(1/k) V(k+1,1)", "mismatch"))
    for k in range(1, cap + 1):
        cases += 1
        if v_k1_closed(k) != v_poly(k, 1):
            failures.append(
                (f"k={k}", poly_text(v_poly(k, 1)), poly_text(v_k1_closed(k)))
            )
    return cases, failures


def _suite_remark45(args) -> tuple:
    cap = min(args.max_n or 7, 11)
    failures = []
    cases = 0
    for k in range(1, cap + 1):
        cases += 1
        closed = suffix_star_cumulant(k)
        generic = z_mobius("1" * k + "*").value
        if closed != generic:
            failures.append((f"k={k}", generic.to_text(), closed.to_text()))
    for k, row in _SUFFIX_STAR_ROWS.items():
        cases += 1
        got = suffix_star_cumulant(k)
        if got != row:
            failures.append((f"frozen k={k}", row.to_text(), got.to_text()))
    return cases, failures


def _suite_xi_three_path(args) -> tuple:
    n_inv = args.max_n or 6
    n_mob = min(n_inv, 5)
    failures = []
    cases = 0
    rec = xi_by_recursion(n_inv)
    inv = xi_by_inversion(n_inv)
    mob = xi_by_mobius(n_mob)
    for n in range(1, n_inv + 1):
        cases += 1
        if rec.xi(n) != inv.xi(n):
            failures.append((f"xi_{n}", rec.xi(n).to_text(), inv.xi(n).to_text()))
    for n in range(1, n_mob + 1):
        cases += 1
        if rec.xi(n) != mob.xi(n):
            failures.append((f"xi_{n}", rec.xi(n).to_text(), mob.xi(n).to_text()))
    for n, row in _XI_ROWS.items():
        if n > n_inv:
            continue
        cases += 1
        if rec.xi(n) != row:
            failures.append((f"frozen xi_{n}", row.to_text(), rec.xi(n).to_text()))
    lam = lambda_series(2)
    for n, row in _LAMBDA_ROWS.items():
        cases += 1
        if lam.coeff(n) != row:
            failures.append((f"frozen lambda_{n}", row.to_text(), lam.coeff(n).to_text()))
    return cases, failures


def _suite_pde_coeff(args) -> tuple:
    n = args.max_n or 6
    failures = []
    cases = 0
    seq = xi_by_recursion(n)
    for j in range(1, n + 1):
        cases += 1
        c = pde_z_coefficient(seq.entries, j)
        if not c.is_zero:
            failures.append((f"z^{j}", "0", c.to_text()))
    report = pde_residual(n, prec_bits=args.prec)
    cases += 1
    if report.defect_order != n + 1:
        failures.append(
            ("defect order", str(n + 1), str(report.defect_order))
        )
    if n >= 6:
        cases += 1
        if not report.max_residual < 1e-15:
            failures.append(
                ("max residual", "< 1e-15", f"{report.max_residual:.3e}")
            )
    return cases, failures


def _suite_chi_roundtrip(args) -> tuple:
    order = args.max_n or 6
    failures = []
    cases = 0
    defect = chi_roundtrip_defect(order)
    for n in range(order + 1):
        cases += 1
        if not defect.coeff(n).is_zero:
            failures.append((f"z^{n}", "0", defect.coeff(n).to_text()))
    tri = lambda_series(order)
    lag = lagrange_lambda(order)
    for n in range(1, order + 1):
        cases += 1
        if tri.coeff(n) != lag.coeff(n):
            failures.append(
                (f"lambda_{n}", tri.coeff(n).to_text(), lag.coeff(n).to_text())
            )
    chi = chi_expansion(order)
    for n, row in _CHI_ROWS.items():
        cases += 1
        if chi.coeff(n) != row:
            failures.append((f"frozen chi_{n}", row.to_text(), chi.coeff(n).to_text()))
    return cases, failures


def _suite_prop67_cross(args) -> tuple:
    rng = Random(args.seed)
    failures = []
    cases = 0
    for trial in range(20):
        d = Distribution.random_small(rng, 10)
        bm = beta_mobius(d, 3)
        for k, word in ((2, "1*1"), (3, "1*1*1")):
            cases += 1
            got = beta_enumeration(d, word)
            if got != bm[k - 1]:
                failures.append(
                    (f"trial={trial} k={k} d={d!r}", str(bm[k - 1]), str(got))
                )
        cases += 1
        beta2_direct = mixed_q_cumulant(d, (2, 1)) - mixed_q_cumulant(d, (2,)) * d.kappa(1)
        if bm[1] != beta2_direct:
            failures.append((f"trial={trial} beta_2", str(beta2_direct), str(bm[1])))
    one = Distribution.point_mass_one(10)
    for k, value in enumerate(beta_mobius(one, 4), start=1):
        cases += 1
        want = Fraction((-1) ** (k - 1) * catalan(k - 1))
        if value != want:
            failures.append((f"q=1 beta_{k}", str(want), str(value)))
    return cases, failures


def _suite_lemma611(args) -> tuple:
    cap = min(args.max_n or 6, 6)
    failures = []
    cases = 0
    for n in range(2, cap + 1):
        for bits in range(2 ** max(n - 2, 0)):
            mid = tuple(1 if (bits >> i) & 1 else -1 for i in range(n - 2))
            word = Word((1,) + mid + (1,))
            if is_alternating(word):
                continue
            cases += 1
            found = len(nc_omega(word))
            if found != 0:
                failures.append((str(word), "empty support set", f"{found} partitions"))
    return cases, failures


def _suite_example69(args) -> tuple:
    cap = min(args.max_n or 3, 4)
    failures = []
    cases = 1
    got = [p.to_lists() for p in nc_omega("1*1").partitions]
    want = sorted(_EXAMPLE69_BLOCKS)
    if sorted(got) != want:
        failures.append(("1*1", str(want), str(got)))
    for k in range(1, cap + 1):
        cases += 1
        word = "1" + "*1" * (k - 1)
        structured = nc_omega_structured(k)
        brute = nc_omega(word)
        if structured != brute:
            failures.append(
                (f"k={k}", f"{len(brute)} partitions (filter)", f"{len(structured)} (structured)")
            )
    cases += 1
    if len(nc_omega_structured(1)) != 1:
        failures.append(("k=1", "1 partition", str(len(nc_omega_structured(1)))))
    return cases, failures


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


def verify_all(names: Sequence[str], args) -> list:
    reports = []
    for name in names:
        fn = SUITES[name]
        note = f"seed={args.seed}" if name == "prop6.7-cross" else ""
        start = time.monotonic()
        try:
            cases, failures = fn(args)
        except Exception as exc:  # a crash is a failed suite, not a crash of the harness
            cases, failures = 0, [("<exception>", "no exception", repr(exc))]
        reports.append(
            VerifyReport(name, cases, failures, time.monotonic() - start, note)
        )
    return reports


def _print_report(report: VerifyReport) -> None:
    suffix = f" [{report.note}]" if report.note else ""
    if report.ok:
        print(f"suite {report.suite}: PASS ({report.cases} cases){suffix}", flush=True)
    else:
        print(
            f"suite {report.suite}: FAIL ({len(report.failures)} of {report.cases} cases){suffix}"
        )
        shown = report.failures[:20]
        for inp, want, got in shown:
            print(f"  input={inp} expected={want} got={got}")
        if len(report.failures) > len(shown):
            print(f"  ... {len(report.failures) - len(shown)} more")
        sys.stdout.flush()
    print(f"suite {report.suite}: {report.seconds:.2f}s", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_zpoly(args) -> int:
    word = as_word(args.word)
    if args.grade is not None and args.eval is not None:
        raise StructureError("--grade and --eval cannot be combined")
    values = {}
    if args.method in ("mobius", "both"):
        values["mobius"] = z_mobius(word).value
    if args.method in ("recursive", "both"):
        values["recursive"] = z_recursive(word).value
    if args.method == "both":
        a, b = values["mobius"], values["recursive"]
        print(f"mobius:    {_emit_quasipoly(a, args.format)}")
        print(f"recursive: {_emit_quasipoly(b, args.format)}")
        if a == b:
            print("CONSISTENT")
            return 0
        print("INCONSISTENT")
        return 1
    value = values[args.method]
    if args.grade is not None:
        print(_emit_poly(value.grade(args.grade), args.format))
        return 0
    if args.eval is not None:
        print(_eval_str(value, _parse_fraction(args.eval), args.prec))
        return 0
    print(_emit_quasipoly(value, args.format))
    return 0


def _cmd_xi(args) -> int:
    n = args.n
    if n < 1:
        raise SizeError(f"--n must be >= 1, got {n}")
    routes = {
        "recursion": lambda: xi_by_recursion(n).xi(n),
        "mobius": lambda: xi_by_mobius(n).xi(n),
        "inversion": lambda: xi_by_inversion(n).xi(n),
    }
    if args.method != "all":
        value = routes[args.method]()
        if args.eval is not None:
            print(_eval_str(value, _parse_fraction(args.eval), args.prec))
            return 0
        print(_emit_quasipoly(value, args.format))
        return 0
    values = {name: fn() for name, fn in routes.items()}
    for name in ("recursion", "mobius", "inversion"):
        print(f"{name}: {_emit_quasipoly(values[name], args.format)}")
    if len(set(values.values())) == 1:
        print("CONSISTENT")
        return 0
    print("INCONSISTENT")
    return 1


def _cmd_special(args) -> int:
    k, l = args.k, args.l
    u = u_poly(k, l)
    v = v_poly(k, l)
    z = z_from_laplace(k, l).value
    if args.format == "json":
        payload = {
            "k": k,
            "l": l,
            "U": _poly_json(u),
            "V": _poly_json(v),
            "Z": z.to_json_dict(),
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    latex = args.format == "latex"
    print(f"U = {poly_text(u, 'x', latex=latex)}")
    print(f"V = {poly_text(v, 'x', latex=latex)}")
    print(f"Z = {z.to_latex() if latex else z.to_text()}")
    return 0


def _cmd_fcheck(args) -> int:
    ok, failures = check_f_identity(args.order)
    if ok:
        print(f"OK: cleared-form identity holds through order {args.order}")
        return 0
    for (i, j), got, expected in failures:
        print(f"coefficient ({i},{j}): expected {expected.to_text()}, got {got.to_text()}")
    return 1


def _cmd_pde_check(args) -> int:
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
    word = as_word(args.word)
    limit = haar_limit(word)
    derivative = haar_derivative(word)
    if args.format == "json":
        payload = {
            "word": str(word),
            "limit": str(limit),
            "derivative": str(derivative),
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"limit = {limit}")
    print(f"derivative = {derivative}")
    return 0


def _cmd_alpha(args) -> int:
    d = _load_distribution(args.q_cumulants)
    values = alpha_sequence(d, args.k)
    if args.format == "json":
        print(json.dumps({"alpha": [str(v) for v in values]}, sort_keys=True))
        return 0
    for k, v in enumerate(values, start=1):
        print(f"alpha_{k} = {v}")
    return 0


def _cmd_beta(args) -> int:
    d = _load_distribution(args.q_cumulants)
    results = {}
    if args.method in ("mobius", "both"):
        results["mobius"] = beta_mobius(d, args.k)
    if args.method in ("enumeration", "both"):
        values = []
        for k in range(1, args.k + 1):
            word = "1" + "*1" * (k - 1)
            values.append(beta_enumeration(d, word, partitions=nc_omega_structured(k)))
        results["enumeration"] = values
    if args.format == "json":
        payload = {
            method: [str(v) for v in values] for method, values in results.items()
        }
        if args.method == "both":
            payload["consistent"] = results["mobius"] == results["enumeration"]
        print(json.dumps(payload, sort_keys=True))
        return 0 if args.method != "both" or payload["consistent"] else 1
    for method, values in results.items():
        for k, v in enumerate(values, start=1):
            print(f"beta_{k} ({method}) = {v}")
    if args.method == "both":
        if results["mobius"] == results["enumeration"]:
            print("CONSISTENT")
            return 0
        print("INCONSISTENT")
        return 1
    return 0


def _cmd_ncw(args) -> int:
    onc = nc_omega(args.word)
    if args.format == "json":
        payload = {"word": str(onc.word), "count": len(onc)}
        if not args.count_only:
            payload["partitions"] = [p.to_lists() for p in onc.partitions]
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"count = {len(onc)}")
    if not args.count_only:
        for p in onc.partitions:
            print(str(p))
    return 0


def _cmd_nc(args) -> int:
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
    count = sum(1 for _ in enumerate_nc(n))
    print(f"count = {count}")
    return 0


def _cmd_moments(args) -> int:
    value = m_poly(as_word(args.word))
    if args.eval is not None:
        print(_eval_str(value, _parse_fraction(args.eval), args.prec))
        return 0
    print(_emit_quasipoly(value, args.format))
    return 0


def _cmd_verify(args) -> int:
    if args.max_n is not None and args.max_n < 1:
        raise SizeError(f"--max-n must be >= 1, got {args.max_n}")
    names = [args.suite] if args.suite else list(SUITES)
    passed = 0
    for name in names:
        report = verify_all([name], args)[0]
        _print_report(report)
        passed += report.ok
    print(f"{passed}/{len(names)} suites passed")
    return 0 if passed == len(names) else 1


# ---------------------------------------------------------------------------
# parser


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("text", "latex", "json"),
        default="text",
        help="output format (default text)",
    )


def _prec_bits(text: str) -> int:
    bits = int(text)
    if bits < MIN_PREC:
        raise argparse.ArgumentTypeError(f"must be at least {MIN_PREC} bits, got {bits}")
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
        default="mobius",
        help="computation route; both cross-checks and exits 1 on mismatch",
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
    _add_format(p)
    p.set_defaults(func=_cmd_haar)

    p = sub.add_parser("alpha", help="determining sequence from q-cumulants")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q-cumulants", required=True, metavar="FILE")
    _add_format(p)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("beta", help="infinitesimal determining sequence")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q-cumulants", required=True, metavar="FILE")
    p.add_argument(
        "--method",
        choices=("mobius", "enumeration", "both"),
        default="mobius",
    )
    _add_format(p)
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("ncw", help="supporting partitions of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--count-only", action="store_true")
    _add_format(p)
    p.set_defaults(func=_cmd_ncw)

    p = sub.add_parser("nc", help="non-crossing partition lattice utilities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true", help="list all partitions")
    p.add_argument("--kreweras", metavar="P", help="complement of P, e.g. '[[1,4],[2,3]]'")
    p.add_argument("--moebius", metavar="P", help="Moebius weight of P against the full block")
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
        return args.func(args)
    except (SizeError, StructureError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
