"""Command-line front end.

Subcommands expose the library routes (zpoly, xi, special, fcheck,
pde-check, haar, alpha, beta, ncw, nc, moments) and the verify harness of
freeunitary.verify.  Output on stdout is deterministic byte-for-byte for a
fixed invocation, and under --format json it is exactly one JSON object;
wall times go to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage or data error, 141 (128 + SIGPIPE) when the reader closes stdout
early.

This package holds the dispatcher; each subcommand has a module of its own
here, named after it with - as _, that defines HELP, add_arguments(parser)
and handle(args).  build_parser imports the module of the requested
subcommand alone, and its handler imports the layers it runs, each of
which imports the layers it uses at its top; so a request loads only the
layers of its subcommand, and mpmath only when it evaluates.  The commands
that print a value or read a rational or JSON input (--eval, alpha, beta,
and nc with a partition) import freeunitary.cli.common, the helpers they
share.  The command modules read the caps below off this package when
they run, so a patched cap applies.  No command module imports freeunitary.cli.__main__,
the entry of `python -m freeunitary.cli`: -m runs that file as __main__,
so importing it would run the dispatcher a second time.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

from ..errors import InsufficientDataError, SizeError, StructureError

DEFAULT_SEED = 20260813
DEFAULT_PREC = 128
MIN_PREC = 53  # an IEEE double; fewer bits print digits that are wrong
MAX_PREC = 16384  # bits of --eval; xi --n 12 --eval 1 at MAX_PREC: about 0.2 s from a fresh process
MAX_EXPONENT = 4300  # of a decimal rational, as Python caps int digits; 1e9999999 took 5.7 s
MAX_DIGITS = 4300  # of an integer read or printed, as Python caps int-to-text conversion
MAX_EVAL_EXPONENT = 300  # |T| of --eval; at MAX_PREC xi --n 12 takes 2.2-3.9 s at 1e300, 0.1 s at 1
MAX_XI_N = 350  # xi --n: 3.7 s and 39 MB of text at 350, 6.9 s and 60 MB at 400
MAX_XI_RECURSION_N = 60  # xi --n of --method recursion: 6.9 s at 56, 9 to 10 s at 60, 14 s at 64
MAX_LIST_SIZE = 12  # nc --n with --list: 208,012 lines in 3.1 s at 12, 742,900 in 12.9 s at 13

# the subcommands, in the order the top-level help lists them
COMMANDS = ("zpoly", "xi", "special", "fcheck", "pde-check", "haar", "alpha", "beta", "ncw",
            "nc", "moments", "verify")


def __getattr__(name: str):
    # Temporary forward: perfbench/ reads cli.SUITES and cli._XI_ROWS.  The
    # benchmark change that imports them from freeunitary.verify deletes it.
    if name in ("SUITES", "_XI_ROWS"):
        from .. import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of command alone, or with all of them
    when command is None or names no subcommand, so that the top-level help
    and the errors that list the subcommands read the same."""
    parser = argparse.ArgumentParser(
        prog="freeunitary",
        description="Exact joint cumulants of a free unitary flow and its adjoint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    alone = command in COMMANDS
    for name in (command,) if alone else COMMANDS:
        module = import_module(f".{name.replace('-', '_')}", __name__)
        p = sub.add_parser(name, help=module.HELP)
        p.set_defaults(func=module.handle)
        module.add_arguments(p)
    if alone:  # a top-level error, such as an unknown option, lists them all
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
            from .common import _parse_fraction

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
