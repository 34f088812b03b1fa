"""freeunitary haar: the stationary limit of a word's cumulant and its
first-order coefficient."""

from __future__ import annotations

from .common import _add_format, _check_printable, _report

HELP = "stationary limit and first-order coefficient"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", required=True)
    _add_format(p, ("text", "json"))


def handle(args) -> int:
    from ..moments import as_word, haar_derivative, haar_limit

    word = as_word(args.word)
    limit, derivative = haar_limit(word), haar_derivative(word)
    _check_printable((limit, derivative))
    payload = {"word": str(word), "limit": str(limit), "derivative": str(derivative)}
    return _report(args.format, [f"limit = {limit}", f"derivative = {derivative}"], payload)
