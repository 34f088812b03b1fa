"""freeunitary alpha: the determining sequence alpha_k from q-cumulants."""

from __future__ import annotations

from .common import _add_sequence_options, _check_printable, _json, _load_distribution, _report

HELP = "determining sequence from q-cumulants"


def add_arguments(p: argparse.ArgumentParser) -> None:
    _add_sequence_options(p)


def handle(args) -> int:
    from ..rdiag import alpha_sequence

    values = alpha_sequence(_load_distribution(args.q_cumulants), args.k)
    _check_printable(values)
    lines = [f"alpha_{k} = {v}" for k, v in enumerate(values, start=1)]
    return _report(args.format, lines, {"alpha": _json(values)})
