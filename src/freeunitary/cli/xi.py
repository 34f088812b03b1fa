"""freeunitary xi: the alternating cumulant xi_n."""

from __future__ import annotations

from .. import cli
from ..errors import StructureError, check_at_least, check_at_most
from .common import _add_value_options, _run_routes

HELP = "alternating cumulant xi_n"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    _add_value_options(
        p,
        choices=("recursion", "mobius", "inversion", "all"),
        default="inversion",
        help="computation route (inversion, one closed sum per n, is the fastest; recursion "
        "is its oracle; mobius reaches n <= Z_LIMIT/2); all cross-checks and exits 1 on "
        "mismatch",
    )


def handle(args) -> int:
    from ..alternating import _xi_closed, check_mobius_size, check_xi, xi_by_mobius, xi_by_recursion

    n = args.n
    check_at_least("--n", n, 1)
    check_at_most("--n", n, "MAX_XI_N", cli.MAX_XI_N)
    if args.method == "recursion":
        check_at_most("--n", n, "MAX_XI_RECURSION_N", cli.MAX_XI_RECURSION_N)
    if args.method == "all" and args.eval is not None:
        raise StructureError("--eval takes one method, not --method all")
    if args.method == "all":  # xi_by_mobius's own check, before the recursion runs
        check_mobius_size(n)
    routes = {
        "recursion": lambda: xi_by_recursion(n).xi(n),
        "mobius": lambda: xi_by_mobius(n).xi(n),
        "inversion": lambda: check_xi(n, _xi_closed(n)),  # no xi_m for m < n
    }
    return _run_routes(args, routes, "all", "{} {}")
