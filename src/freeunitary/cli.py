"""Command-line front end.

Subcommands expose the library routes (zpoly, xi, special, fcheck,
pde-check, haar, alpha, beta, ncw, nc, moments) and the verify harness of
freeunitary.verify.  Output on stdout is deterministic byte-for-byte for a
fixed invocation, and under --format json it is exactly one JSON object;
wall times go to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage or data error, 141 (128 + SIGPIPE) when the reader closes stdout
early.

A request compiles and imports only the code its subcommand runs, which
matters when no bytecode is cached (PYTHONDONTWRITEBYTECODE): it builds
only its own subparser, each handler imports its layers (and mpmath only
when it evaluates), and the output helpers import json, fractions and
qpoly when they are called.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InsufficientDataError, SizeError, StructureError

DEFAULT_SEED = 20260813
DEFAULT_PREC = 128
MIN_PREC = 53  # an IEEE double; fewer bits print digits that are wrong
MAX_PREC = 16384  # bits of --eval; xi --n 12 --eval 1 at MAX_PREC: about 0.2 s from a fresh process
MAX_EXPONENT = 4300  # of a decimal rational, as Python caps int digits; 1e9999999 took 5.7 s
MAX_DIGITS = 4300  # of an integer read or printed, as Python caps int-to-text conversion
MAX_EVAL_EXPONENT = 300  # |T| of --eval; at MAX_PREC xi --n 12 takes 1.5 s at 1e300, 0.07 s at 1


def __getattr__(name: str):
    # Temporary forward: perfbench/ reads cli.SUITES and cli._XI_ROWS.  The
    # benchmark change that imports them from freeunitary.verify deletes it.
    if name in ("SUITES", "_XI_ROWS"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_fraction(text: str) -> Fraction:
    from fractions import Fraction

    mantissa, e, exponent = text.lower().partition("e")
    try:  # before Fraction, which expands the exponent in full
        too_long = bool(e) and abs(int(exponent)) > MAX_EXPONENT
    except ValueError:  # no integer exponent: Fraction refuses the text
        too_long = False
    if too_long:
        raise SizeError(f"rational {text!r} has an exponent beyond MAX_EXPONENT = {MAX_EXPONENT}")
    if any(sum(c.isdigit() for c in part) > MAX_DIGITS for part in mantissa.split("/")):
        raise SizeError(f"rational with more than MAX_DIGITS = {MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise StructureError(f"cannot parse rational {text!r}: {exc}") from None


def _check_printable(values) -> None:
    """Refuse rationals whose numerator or denominator has more than
    MAX_DIGITS digits, before any of them is turned into text."""
    bound = 10**MAX_DIGITS
    for v in values:
        if abs(v.numerator) >= bound or v.denominator >= bound:
            raise SizeError(f"a result has more than MAX_DIGITS = {MAX_DIGITS} digits")


def _json(value):
    """The JSON form of a list of rationals, a Poly or a QuasiPoly."""
    if isinstance(value, list):  # before qpoly, which a list of rationals does not need
        return [str(v) for v in value]
    from .qpoly import Poly

    if isinstance(value, Poly):
        return {"coeffs": [str(c) for c in value.coeffs]}
    return value.to_json_dict()


def _show(value, fmt: str) -> str:
    """A Poly or a QuasiPoly in the output format fmt."""
    if fmt == "json":
        import json

        return json.dumps(_json(value), sort_keys=True)
    from .qpoly import Poly, poly_text

    if isinstance(value, Poly):
        return poly_text(value, latex=fmt == "latex")
    return value.to_latex() if fmt == "latex" else value.to_text()


def _print_value(value, args) -> int:
    """Print one value: a quasi-polynomial at t = --eval when given, else the
    value in --format."""
    if args.eval is None:
        print(_show(value, args.format))
        return 0
    import mpmath

    print(mpmath.nstr(value.eval(args.eval, args.prec), max(8, int(args.prec * 0.301))))
    return 0


def _report(fmt: str, lines: Sequence[str], payload: dict) -> int:
    """Print the lines, or under --format json the payload as one JSON object."""
    if fmt == "json":
        import json

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


def _load_distribution(path: str) -> Distribution:
    import json

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
    import json

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
    from .alternating import _xi_closed, check_mobius_size, check_xi, xi_by_mobius, xi_by_recursion

    n = args.n
    if n < 1:
        raise SizeError(f"--n must be >= 1, got {n}")
    if args.method == "all" and args.eval is not None:
        raise StructureError("--eval takes one method, not --method all")
    if args.method == "all":
        check_mobius_size(n)  # before the recursion runs, not after
    routes = {
        "recursion": lambda: xi_by_recursion(n).xi(n),
        "mobius": lambda: xi_by_mobius(n).xi(n),
        "inversion": lambda: check_xi(n, _xi_closed(n)),  # no xi_m for m < n
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
    from .alternating import pde_residual

    n = args.n
    report = pde_residual(n)
    bad = [j for j, c in enumerate(report.coefficients[:n], start=1) if not c.is_zero]
    if bad:
        for j in bad:
            print(f"coefficient z^{j}: nonzero")
    else:
        print(f"coefficients z^1..z^{n}: all zero")
    print(f"defect order: {report.defect_order}")
    print(f"max residual on default grids: {report.max_residual:.3e}")
    return 1 if bad else 0


def _cmd_haar(args) -> int:
    from .moments import as_word, haar_derivative, haar_limit

    word = as_word(args.word)
    limit, derivative = haar_limit(word), haar_derivative(word)
    payload = {"word": str(word), "limit": str(limit), "derivative": str(derivative)}
    return _report(args.format, [f"limit = {limit}", f"derivative = {derivative}"], payload)


def _cmd_alpha(args) -> int:
    from .rdiag import alpha_sequence

    values = alpha_sequence(_load_distribution(args.q_cumulants), args.k)
    _check_printable(values)
    lines = [f"alpha_{k} = {v}" for k, v in enumerate(values, start=1)]
    return _report(args.format, lines, {"alpha": _json(values)})


def _cmd_beta(args) -> int:
    from .rdiag import beta_enumeration, beta_mobius, check_cumulants, check_structured_size
    from .rdiag import nc_omega_structured

    # refuse before any sum, so --method both runs no Moebius sum it cannot cross-check
    if args.k < 1:
        raise SizeError(f"--k must be >= 1, got {args.k}")
    if args.method != "mobius":
        check_structured_size(args.k)
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
    _check_printable(v for seq in values.values() for v in seq)
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
        raise argparse.ArgumentTypeError(f"must be at least MIN_PREC = {MIN_PREC} bits, got {bits}")
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of command alone, or with all of them
    when command is None or names no subcommand, so that the top-level help
    and the errors that list the subcommands read the same."""
    parser = argparse.ArgumentParser(
        prog="freeunitary",
        description="Exact joint cumulants of a free unitary flow and its adjoint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command in (None, "zpoly"):
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
    if command in (None, "xi"):
        p = sub.add_parser("xi", help="alternating cumulant xi_n")
        p.add_argument("--n", type=int, required=True)
        p.add_argument(
            "--method",
            choices=("recursion", "mobius", "inversion", "all"),
            default="inversion",
            help="computation route (inversion, one closed sum per n, is the fastest; recursion "
            "is its oracle; mobius reaches n <= Z_LIMIT/2); all cross-checks and exits 1 on "
            "mismatch",
        )
        p.add_argument("--eval", metavar="T", help="evaluate at t = T (rational)")
        _add_format(p)
        _add_prec(p)
        p.set_defaults(func=_cmd_xi)
    if command in (None, "special"):
        p = sub.add_parser("special", help="closed two-term form for 1^k *^l words")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--l", type=int, required=True)
        _add_format(p)
        p.set_defaults(func=_cmd_special)
    if command in (None, "fcheck"):
        p = sub.add_parser("fcheck", help="cleared-form functional identity check")
        p.add_argument("--order", type=int, required=True)
        p.set_defaults(func=_cmd_fcheck)
    if command in (None, "pde-check"):
        p = sub.add_parser("pde-check", help="PDE coefficient and residual check")
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(func=_cmd_pde_check)
    if command in (None, "haar"):
        p = sub.add_parser("haar", help="stationary limit and first-order coefficient")
        p.add_argument("--word", required=True)
        _add_format(p, ("text", "json"))
        p.set_defaults(func=_cmd_haar)
    if command in (None, "alpha"):
        p = sub.add_parser("alpha", help="determining sequence from q-cumulants")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--q-cumulants", required=True, metavar="FILE")
        _add_format(p, ("text", "json"))
        p.set_defaults(func=_cmd_alpha)
    if command in (None, "beta"):
        p = sub.add_parser("beta", help="infinitesimal determining sequence")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--q-cumulants", required=True, metavar="FILE")
        p.add_argument(
            "--method",
            choices=("mobius", "enumeration", "both"),
            default="mobius",
            help="computation route (mobius, the default, sums over NC(k); enumeration sums "
            "over the support sets, for k up to STRUCTURED_LIMIT); both cross-checks and exits "
            "1 on mismatch",
        )
        _add_format(p, ("text", "json"))
        p.set_defaults(func=_cmd_beta)
    if command in (None, "ncw"):
        p = sub.add_parser("ncw", help="supporting partitions of a word")
        p.add_argument("--word", required=True)
        p.add_argument("--count-only", action="store_true")
        _add_format(p, ("text", "json"))
        p.set_defaults(func=_cmd_ncw)
    if command in (None, "nc"):
        p = sub.add_parser("nc", help="non-crossing partition lattice utilities")
        p.add_argument("--n", type=int, required=True)
        add = p.add_mutually_exclusive_group().add_argument
        add("--list", action="store_true", help="list all partitions")
        add("--kreweras", metavar="P", help="complement of P, e.g. '[[1,4],[2,3]]'")
        add("--moebius", metavar="P", help="Moebius weight of P against the full block")
        p.set_defaults(func=_cmd_nc)
    if command in (None, "moments"):
        p = sub.add_parser("moments", help="moment quasi-polynomial of a word")
        p.add_argument("--word", required=True)
        p.add_argument("--eval", metavar="T", help="evaluate at t = T (rational)")
        _add_format(p)
        _add_prec(p)
        p.set_defaults(func=_cmd_moments)
    if command in (None, "verify"):
        from .verify import SUITES, run_suites

        p = sub.add_parser("verify", help="run identity suites")
        p.add_argument("--suite", choices=sorted(SUITES), help="run one suite (default all)")
        p.add_argument("--max-n", type=int, default=None, help="override the suite size knob")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.set_defaults(func=run_suites)
    if not sub.choices:  # command names no subcommand
        return build_parser()
    if command is not None:  # a top-level error, such as an unknown option, lists them all
        parser.error = lambda message: build_parser().error(message)
    return parser


def _join_eval(argv: Sequence[str]) -> list[str]:
    """The arguments with --eval T (or an abbreviation such as --ev T)
    written as --eval=T when T is negative.

    argparse reads a value that starts with - as an option unless it is a
    plain negative decimal, so -1/2 and -1e-3 would leave --eval without one.
    """
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (flag[:3] == "--e" and "--eval".startswith(flag)
                and arg[:1] == "-" and arg[1:2] in tuple("0123456789.")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv: Sequence[str] | None = None) -> int:
    argv = _join_eval(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if getattr(args, "eval", None) is not None:  # before any sum runs
            if args.format != "text":
                raise StructureError(f"--eval and --format {args.format} cannot be combined")
            args.eval = _parse_fraction(args.eval)
            if abs(args.eval) > 10**MAX_EVAL_EXPONENT:
                raise SizeError(f"--eval |T| > 10^MAX_EVAL_EXPONENT = 10^{MAX_EVAL_EXPONENT}")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout, which is not bad input.  Point stdout
        # at the null device so the flush at exit does not fail again.
        sys.stdout = open(os.devnull, "w")
        return 141
    except (InsufficientDataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
