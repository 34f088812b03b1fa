"""The subcommands of the CLI, and the readers and writers they share.

The readers parse rationals (--eval, q-cumulants files), JSON documents
(nc partitions, q-cumulants files) and partitions.  The output side holds
the output options, the digit checks before printing, and the text, LaTeX
and JSON output.  A quasi-polynomial prints from its integer numerators
and denominator (qpoly), so printing one loads no fractions; and a request
builds only the output its --format prints.

SUBCOMMANDS lists each subcommand with its help, the function that adds
its arguments to its subparser and its handler.  A handler imports the
layers it runs when it runs, so a request loads only the layers of its
subcommand, and mpmath only when it evaluates.  The caps are read off
freeunitary.cli when a helper runs, so a patched cap applies.  This module
does not import freeunitary.cli.__main__, the entry of `python -m
freeunitary.cli`: -m runs that file as __main__, so importing it would
run the dispatcher a second time.
"""

from __future__ import annotations

import argparse
from collections.abc import Callable, Iterable
from itertools import chain

from .. import cli
from ..errors import QUOTE_LIMIT, SizeError, StructureError, check_at_least, check_at_most, quote

# ---------------------------------------------------------------------------
# readers


def _parse_fraction(text: str) -> Fraction:
    import re
    from fractions import Fraction

    mantissa, e, exponent = text.lower().partition("e")
    # read off the digit string, before Fraction, which expands the exponent
    # in full, and before int(), which refuses more than 4300 digits
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > len(str(cli.MAX_EXPONENT))
                                     or int(digits) > cli.MAX_EXPONENT):
        raise SizeError(f"rational {quote(text)} has an exponent beyond MAX_EXPONENT = {cli.MAX_EXPONENT}")
    if any(sum(c.isdigit() for c in part) > cli.MAX_DIGITS for part in mantissa.split("/")):
        raise SizeError(f"rational with more than MAX_DIGITS = {cli.MAX_DIGITS} digits")
    literal = text
    if len(exponent) > cli.MAX_DIGITS:  # Fraction runs int() on all of it, leading zeros too
        # the leading zeros shrink to 0, or to 0_0 when underscores split
        # them, so the literal parses on just the Pythons where it did
        literal = re.sub(r"(?<=[eE])([-+]?)(0+(?:_0+)*)(?=_?\d)",
                         lambda m: m[1] + ("0_0" if "_" in m[2] else "0"), text, count=1)
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:  # its message may repeat all of text
        detail = f": {exc}" if len(text) <= QUOTE_LIMIT else ""
        raise StructureError(f"cannot parse rational {quote(text)}{detail}") from None


def _decode_json(text: str, what: str):
    """The JSON value of text; malformed or too deeply nested text is
    refused as a StructureError that names what was read."""
    import json

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise StructureError(f"cannot parse {what}: {exc}") from None


def _load_distribution(path: str) -> Distribution:
    from ..rdiag import Distribution

    with open(path, "r", encoding="utf-8") as fh:
        data = _decode_json(fh.read(), f"q-cumulants file {path!r}")
    if not isinstance(data, list) or not data or not all(
        isinstance(s, str) for s in data
    ):
        raise StructureError(
            "q-cumulants file must be a non-empty JSON array of 'p/q' strings"
        )
    return Distribution(_parse_fraction(s) for s in data)


def _parse_partition(n: int, text: str) -> NCPartition:
    from ..ncpart import NCPartition

    blocks = _decode_json(text, f"partition {quote(text)}")
    if not isinstance(blocks, list) or not all(
        isinstance(b, list) and all(type(e) is int for e in b) for b in blocks
    ):
        raise StructureError(f"partition {quote(text)} must be a JSON list of lists of integers")
    return NCPartition(n, blocks)


# ---------------------------------------------------------------------------
# output


def _check_printable(values) -> None:
    """Refuse rationals whose numerator or denominator has more than
    MAX_DIGITS digits, before any of them is turned into text."""
    bound = 10**cli.MAX_DIGITS
    for v in values:
        if abs(v.numerator) >= bound or v.denominator >= bound:
            raise SizeError(f"a result has more than MAX_DIGITS = {cli.MAX_DIGITS} digits")


def _check_poly(value) -> None:
    """_check_printable on the coefficients of a Poly or a QuasiPoly, in the
    lowest terms in which they print.  They are formed only when its height
    passes MAX_DIGITS, which can happen while they print: so it is for Q_1283."""
    from ..qpoly import Poly

    if value.height >= 10**cli.MAX_DIGITS:
        polys = [value] if isinstance(value, Poly) else value.terms.values()
        _check_printable(c for p in polys for c in p.coeffs)


def _json(value):
    """The JSON form of a list of rationals, a Poly or a QuasiPoly."""
    if isinstance(value, list):  # before qpoly, which a list of rationals does not need
        return [str(v) for v in value]
    from ..qpoly import Poly, _coeff_strs

    _check_poly(value)
    if isinstance(value, Poly):
        return {"coeffs": _coeff_strs(value)}
    return value.to_json_dict()


def _show(value, fmt: str) -> str:
    """A Poly or a QuasiPoly in the output format fmt."""
    if fmt == "json":
        import json

        return json.dumps(_json(value), sort_keys=True)
    from ..qpoly import Poly, poly_text

    _check_poly(value)
    if isinstance(value, Poly):
        return poly_text(value, latex=fmt == "latex")
    return value.to_latex() if fmt == "latex" else value.to_text()


def _print_value(value, args) -> int:
    """Print one value: a quasi-polynomial at t = --eval when given, else the
    value in --format."""
    if args.eval is None:
        print(_show(value, args.format))
        return 0
    # eval imports mpmath as well; neither order moves the request's peak memory
    import mpmath

    number = value.eval(args.eval, args.prec)
    print(mpmath.nstr(number, max(8, int(args.prec * 0.301))))
    return 0


def _report(fmt: str, lines: Iterable[str], payload: Callable[[], dict]) -> int:
    """Print the lines, or under --format json payload() as one JSON object.
    Only the side that prints is formed; the lines may be a generator, and
    all of them are formed before the first prints, so a refusal prints none."""
    if fmt == "json":
        import json

        print(json.dumps(payload(), sort_keys=True))
    else:
        for line in list(lines):
            print(line)
    return 0


def _verdict(fmt: str, values: dict, lines: Iterable[str]) -> int:
    """Report the value of each route and CONSISTENT or INCONSISTENT (under
    json, one key per route and "consistent"); exit 1 unless all agree."""
    first = next(iter(values.values()))
    consistent = all(v == first for v in values.values())
    verdict = "CONSISTENT" if consistent else "INCONSISTENT"
    _report(fmt, chain(lines, [verdict]),
            lambda: {**{name: _json(v) for name, v in values.items()}, "consistent": consistent})
    return 0 if consistent else 1


def _run_routes(args, routes: dict, every: str, label: str) -> int:
    """Print the value of the route that --method names, or when it names
    every route, one line per route, label.format(name + ":", value), and
    the verdict."""
    if args.method != every:
        return _print_value(routes[args.method](), args)
    values = {name: fn() for name, fn in routes.items()}
    lines = (label.format(name + ":", _show(v, args.format)) for name, v in values.items())
    return _verdict(args.format, values, lines)


# ---------------------------------------------------------------------------
# options shared by several subcommands


def _add_format(p: argparse.ArgumentParser, choices=("text", "latex", "json")) -> None:
    p.add_argument(
        "--format",
        choices=choices,
        default="text",
        help="output format (default text)",
    )


def _prec_bits(text: str) -> int:
    bits = int(text)
    if bits < cli.MIN_PREC:
        raise argparse.ArgumentTypeError(f"must be at least MIN_PREC = {cli.MIN_PREC} bits, got {bits}")
    if bits > cli.MAX_PREC:
        raise argparse.ArgumentTypeError(f"must be at most MAX_PREC = {cli.MAX_PREC} bits, got {bits}")
    return bits


def _add_value_options(p: argparse.ArgumentParser, grade: bool = False, **method) -> None:
    """The options of a value request (zpoly, xi, moments): --method when
    its arguments are given, --eval, --grade when asked for, --format and
    --prec."""
    if method:
        p.add_argument("--method", **method)
    p.add_argument("--eval", metavar="T", help="evaluate at t = T (rational)")
    if grade:
        p.add_argument("--grade", type=int, metavar="M", help="emit the y^M coefficient")
    _add_format(p)
    p.add_argument(
        "--prec",
        type=_prec_bits,
        default=cli.DEFAULT_PREC,
        help=f"working precision in bits (default {cli.DEFAULT_PREC})",
    )


def _add_sequence_options(p: argparse.ArgumentParser, **method) -> None:
    """The options of a sequence request (alpha, beta): --k, --q-cumulants,
    --method when its arguments are given, and --format text or json."""
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q-cumulants", required=True, metavar="FILE")
    if method:
        p.add_argument("--method", **method)
    _add_format(p, ("text", "json"))


# ---------------------------------------------------------------------------
# the subcommands: the arguments of each, then its handler


def _zpoly_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("word", help="word over {1,*}, e.g. '1*1' or 'uu*u'")
    _add_value_options(
        p,
        grade=True,
        choices=("mobius", "recursive", "both"),
        default="recursive",
        help="computation route (mobius is the oracle, for words up to Z_LIMIT letters); "
        "both cross-checks and exits 1 on mismatch",
    )


def _zpoly(args) -> int:
    from ..cumulants import z_mobius, z_recursive
    from ..moments import as_word

    word = as_word(args.word)
    if args.grade is not None:
        check_at_least("--grade", args.grade, 0)
    if args.grade is not None and args.eval is not None:
        raise StructureError("--grade and --eval cannot be combined")
    if args.method == "both" and (args.grade is not None or args.eval is not None):
        raise StructureError("--grade and --eval take one method, not --method both")
    routes = {
        "mobius": lambda: z_mobius(word).value,
        "recursive": lambda: z_recursive(word).value,
    }
    if args.grade is not None:
        routes = {name: lambda fn=fn: fn().grade(args.grade) for name, fn in routes.items()}
    return _run_routes(args, routes, "both", "{:10} {}")


def _xi_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    _add_value_options(
        p,
        choices=("recursion", "mobius", "inversion", "all"),
        default="inversion",
        help="computation route (inversion, one closed sum per n, is the fastest; recursion "
        "is its oracle; mobius reaches n <= Z_LIMIT/2); all cross-checks and exits 1 on "
        "mismatch",
    )


def _xi(args) -> int:
    from ..alternating import _xi_closed, check_mobius_size, check_xi, xi_by_mobius, xi_by_recursion

    n = args.n
    check_at_least("--n", n, 1)
    check_at_most("--n", n, "MAX_XI_N", cli.MAX_XI_N)
    if args.method == "recursion":
        check_at_most("--n", n, "MAX_XI_RECURSION_N", cli.MAX_XI_RECURSION_N)
    if args.method == "all" and args.eval is not None:
        raise StructureError("--eval takes one method, not --method all")
    if args.method == "all":  # xi_by_mobius's own check, before the recursion runs
        check_mobius_size(n)
    routes = {
        "recursion": lambda: xi_by_recursion(n).xi(n),
        "mobius": lambda: xi_by_mobius(n).xi(n),
        "inversion": lambda: check_xi(n, _xi_closed(n)),  # no xi_m for m < n
    }
    return _run_routes(args, routes, "all", "{} {}")


def _special_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_format(p)


def _special(args) -> int:
    from ..laplace import u_poly, v_poly, z_from_uv

    k, l = args.k, args.l
    u, v = u_poly(k, l), v_poly(k, l)
    values = {"U": u, "V": v, "Z": z_from_uv(k, l, u, v).value}
    lines = (f"{name} = {_show(v, args.format)}" for name, v in values.items())
    return _report(args.format, lines,
                   lambda: {"k": k, "l": l, **{name: _json(v) for name, v in values.items()}})


def _fcheck_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, required=True)


def _fcheck(args) -> int:
    from ..laplace import check_f_identity

    ok, failures = check_f_identity(args.order)
    if ok:
        print(f"OK: cleared-form identity holds through order {args.order}")
        return 0
    for (i, j), got, expected in failures:
        print(f"coefficient ({i},{j}): expected {expected.to_text()}, got {got.to_text()}")
    return 1


def _pde_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)


def _pde_check(args) -> int:
    from ..alternating import pde_residual

    n = args.n
    check_at_least("--n", n, 1)
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


def _haar_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", required=True)
    _add_format(p, ("text", "json"))


def _haar(args) -> int:
    # both values are integers, printed as such, so the request loads no fractions
    from ..moments import as_word, haar_cumulant, haar_first_order

    word = as_word(args.word)
    limit, derivative = haar_cumulant(word), haar_first_order(word)
    _check_printable((limit, derivative))
    return _report(args.format, [f"limit = {limit}", f"derivative = {derivative}"],
                   lambda: {"word": str(word), "limit": str(limit), "derivative": str(derivative)})


def _alpha(args) -> int:
    from ..rdiag import alpha_sequence

    check_at_least("--k", args.k, 1)  # before the q-cumulants file is read
    values = alpha_sequence(_load_distribution(args.q_cumulants), args.k)
    _check_printable(values)
    lines = [f"alpha_{k} = {v}" for k, v in enumerate(values, start=1)]
    return _report(args.format, lines, lambda: {"alpha": _json(values)})


def _beta_args(p: argparse.ArgumentParser) -> None:
    _add_sequence_options(
        p,
        choices=("mobius", "enumeration", "both"),
        default="mobius",
        help="computation route (mobius, the default, sums over NC(k); enumeration sums "
        "over the support sets, for k up to STRUCTURED_LIMIT); both cross-checks and exits "
        "1 on mismatch",
    )


def _beta(args) -> int:
    from ..rdiag import beta_enumeration, beta_mobius, check_cumulants, check_structured_size
    from ..rdiag import nc_omega_structured

    # refuse before any sum, so --method both runs no Moebius sum it cannot cross-check
    check_at_least("--k", args.k, 1)
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
    return _report(args.format, lines, lambda: {name: _json(seq) for name, seq in values.items()})


def _ncw_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", required=True)
    p.add_argument("--count-only", action="store_true")
    _add_format(p, ("text", "json"))


def _ncw(args) -> int:
    from ..rdiag import nc_omega

    onc = nc_omega(args.word)
    parts = () if args.count_only else onc.partitions

    def payload() -> dict:
        out = {"word": str(onc.word), "count": len(onc)}
        if not args.count_only:
            out["partitions"] = [p.to_lists() for p in parts]
        return out

    return _report(args.format, chain([f"count = {len(onc)}"], map(str, parts)), payload)


def _nc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group().add_argument
    mode("--list", action="store_true", help="list all partitions")
    mode("--kreweras", metavar="P", help="complement of P, e.g. '[[1,4],[2,3]]'")
    mode("--moebius", metavar="P", help="Moebius weight of P against the full block")


def _nc(args) -> int:
    from ..ncpart import catalan, check_ground_size, enumerate_nc, kreweras, moebius_to_one

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
        check_at_most("--list --n", n, "MAX_LIST_SIZE", cli.MAX_LIST_SIZE)
        for p in enumerate_nc(n):
            print(str(p))
        return 0
    check_ground_size(n)
    print(f"count = {catalan(n)}")
    return 0


def _moments_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", required=True)
    _add_value_options(p)


def _moments(args) -> int:
    from ..moments import as_word, m_poly

    return _print_value(m_poly(as_word(args.word)), args)


def _verify_args(p: argparse.ArgumentParser) -> None:
    from ..verify import SUITES

    p.add_argument("--suite", choices=sorted(SUITES), help="run one suite (default all)")
    p.add_argument("--max-n", type=int, default=None, help="override the suite size knob")
    p.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)


def _verify(args) -> int:
    from ..verify import run_suites

    return run_suites(args)


# name: (help, add_arguments(parser), handle(args) -> exit code), in the
# order of cli.COMMANDS
SUBCOMMANDS = {
    "zpoly": ("cumulant quasi-polynomial of a word", _zpoly_args, _zpoly),
    "xi": ("alternating cumulant xi_n", _xi_args, _xi),
    "special": ("closed two-term form for 1^k *^l words", _special_args, _special),
    "fcheck": ("cleared-form functional identity check", _fcheck_args, _fcheck),
    "pde-check": ("PDE coefficient and residual check", _pde_check_args, _pde_check),
    "haar": ("stationary limit and first-order coefficient", _haar_args, _haar),
    "alpha": ("determining sequence from q-cumulants", _add_sequence_options, _alpha),
    "beta": ("infinitesimal determining sequence", _beta_args, _beta),
    "ncw": ("supporting partitions of a word", _ncw_args, _ncw),
    "nc": ("non-crossing partition lattice utilities", _nc_args, _nc),
    "moments": ("moment quasi-polynomial of a word", _moments_args, _moments),
    "verify": ("run identity suites", _verify_args, _verify),
}
