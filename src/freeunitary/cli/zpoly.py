"""freeunitary zpoly: the cumulant quasi-polynomial of a word."""

from __future__ import annotations

from ..errors import StructureError, check_at_least
from .common import _add_value_options, _run_routes

HELP = "cumulant quasi-polynomial of a word"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("word", help="word over {1,*}, e.g. '1*1' or 'uu*u'")
    _add_value_options(
        p,
        grade=True,
        choices=("mobius", "recursive", "both"),
        default="recursive",
        help="computation route (mobius is the oracle, for words up to Z_LIMIT letters); "
        "both cross-checks and exits 1 on mismatch",
    )


def handle(args) -> int:
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
