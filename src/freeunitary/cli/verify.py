"""freeunitary verify: the arguments of the verify harness, whose suites
and handler live in freeunitary.verify."""

from __future__ import annotations

from .. import cli
from ..verify import SUITES, run_suites as handle

HELP = "run identity suites"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=sorted(SUITES), help="run one suite (default all)")
    p.add_argument("--max-n", type=int, default=None, help="override the suite size knob")
    p.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
