"""freeunitary moments: the moment quasi-polynomial of a word."""

from __future__ import annotations

from .common import _add_value_options, _print_value

HELP = "moment quasi-polynomial of a word"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", required=True)
    _add_value_options(p)


def handle(args) -> int:
    from ..moments import as_word, m_poly

    return _print_value(m_poly(as_word(args.word)), args)
