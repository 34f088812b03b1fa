"""What the commands share: the readers of their input and the writers of their output.

The readers parse rationals (--eval, q-cumulants files), JSON documents
(nc partitions, q-cumulants files) and the options of a sequence request.
The output side holds the output options, the digit checks before
printing, and the text, LaTeX and JSON output.  A quasi-polynomial prints
from its integer numerators and denominator (qpoly), so printing one loads
no fractions; and a request builds only the output its --format prints.
The caps are read off freeunitary.cli when a helper runs, so a patched cap
applies."""

from __future__ import annotations

import argparse
from itertools import chain

from .. import cli
from ..errors import QUOTE_LIMIT, SizeError, StructureError, quote


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


def _add_sequence_options(p: argparse.ArgumentParser, **method) -> None:
    """The options of a sequence request (alpha, beta): --k, --q-cumulants,
    --method when its arguments are given, and --format text or json."""
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q-cumulants", required=True, metavar="FILE")
    if method:
        p.add_argument("--method", **method)
    _add_format(p, ("text", "json"))
