"""The readers of CLI input: rationals (--eval, q-cumulants files), JSON
documents (nc partitions, q-cumulants files) and the options of a
sequence request.  Only the requests that read such input import this
module, and it imports freeunitary.cli.common only to add a --format, so
nc reads a partition without loading the output helpers.  The caps are
read off freeunitary.cli when a reader runs, so a patched cap applies."""

from __future__ import annotations

from .. import cli
from ..errors import QUOTE_LIMIT, SizeError, StructureError, quote


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
    from .common import _add_format  # alpha and beta print through it too

    _add_format(p, ("text", "json"))
