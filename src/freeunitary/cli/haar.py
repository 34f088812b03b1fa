"""freeunitary haar: the stationary limit of a word's cumulant and its
first-order coefficient.  Both are integers, printed as such, so the
request loads no fractions."""

from __future__ import annotations

from .common import _add_format, _check_printable, _report

HELP = "stationary limit and first-order coefficient"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", required=True)
    _add_format(p, ("text", "json"))


def handle(args) -> int:
    from ..moments import as_word, haar_cumulant, haar_first_order

    word = as_word(args.word)
    limit, derivative = haar_cumulant(word), haar_first_order(word)
    _check_printable((limit, derivative))
    return _report(args.format, [f"limit = {limit}", f"derivative = {derivative}"],
                   lambda: {"word": str(word), "limit": str(limit), "derivative": str(derivative)})
