"""Command-line front end.

Subcommands expose the library routes (zpoly, xi, special, fcheck,
pde-check, haar, alpha, beta, ncw, nc, moments) and the verify harness of
freeunitary.verify.  Output on stdout is deterministic byte-for-byte for a
fixed invocation, and under --format json it is exactly one JSON object;
wall times go to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage or data error, 141 (128 + SIGPIPE) when the reader closes stdout
early.  run(argv) is the in-process entry: it returns the exit code.
main(), the console script and `python -m freeunitary.cli`, ends the
process as soon as the output is flushed: the atexit callbacks run, but
the interpreter does not tear down its modules and objects, which a
one-shot request does not need.  Under a tracer, a profiler, a debugger
or -i, main() exits normally, so they report after the run.

This package holds the dispatcher.  The subcommands, and the readers and
writers they share, are in freeunitary.cli.commands, which build_parser
imports when it runs, so importing the CLI loads none of them; it builds
the subparser of the requested subcommand alone.  A handler imports the
layers it runs, each of which imports the layers it uses at its top; so a
request loads only the layers of its subcommand, and mpmath only when it
evaluates.  The commands read the caps below off this package when they
run, so a patched cap applies.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from collections.abc import Sequence

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
    from .commands import SUBCOMMANDS

    parser = argparse.ArgumentParser(
        prog="freeunitary",
        description="Exact joint cumulants of a free unitary flow and its adjoint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    alone = command in COMMANDS
    for name in (command,) if alone else COMMANDS:
        summary, add_arguments, handle = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=handle)
        add_arguments(p)
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
            from .commands import _parse_fraction

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


def _watched() -> bool:
    """Whether a tracer, a profiler or a debugger watches this process, or
    -i asks for a prompt after the run.  cProfile and coverage's tracer set
    sys.setprofile or sys.settrace, or from 3.12 claim a sys.monitoring
    tool; pdb drops its trace when it continues with no breakpoint, so a
    loaded bdb, its base, counts."""
    monitoring = getattr(sys, "monitoring", None)
    return bool(sys.gettrace() or sys.getprofile() or sys.flags.inspect or "bdb" in sys.modules
                or monitoring and any(map(monitoring.get_tool, range(6))))  # tool ids 0-5


def main() -> None:
    """Run the request of sys.argv and end the process with its exit code
    once the output is flushed, skipping the interpreter's teardown of
    every module and object, which a one-shot request does not need.  The
    atexit callbacks still run, so a site hook such as coverage's saves its
    data.  A tracer, a profiler, a debugger or -i reports after the run, so
    under one main() exits normally."""
    code = run(sys.argv[1:])
    if _watched():
        sys.exit(code)
    atexit._run_exitfuncs()  # before the flush, as the interpreter runs them
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:  # as in run(): the reader closed stdout
        code = 141
    except OSError as exc:  # a full disk, say, which run() reports if its flush saw it
        if code == 0:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    os._exit(code)
