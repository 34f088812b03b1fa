"""freeunitary beta: the infinitesimal determining sequence beta_k."""

from __future__ import annotations

from ..errors import check_at_least
from .common import _add_sequence_options, _check_printable, _json, _load_distribution
from .common import _report, _verdict

HELP = "infinitesimal determining sequence"


def add_arguments(p: argparse.ArgumentParser) -> None:
    _add_sequence_options(
        p,
        choices=("mobius", "enumeration", "both"),
        default="mobius",
        help="computation route (mobius, the default, sums over NC(k); enumeration sums "
        "over the support sets, for k up to STRUCTURED_LIMIT); both cross-checks and exits "
        "1 on mismatch",
    )


def handle(args) -> int:
    from ..rdiag import beta_enumeration, beta_mobius, check_cumulants, check_structured_size
    from ..rdiag import nc_omega_structured

    # refuse before any sum, so --method both runs no Moebius sum it cannot cross-check
    check_at_least("--k", args.k, 1)
    if args.method != "mobius":
        check_structured_size(args.k)
    d = _load_distribution(args.q_cumulants)
    check_cumulants(d, args.k, marked=True)
    routes = {
        "mobius": lambda: beta_mobius(d, args.k),
        "enumeration": lambda: [
            beta_enumeration(d, "1" + "*1" * (k - 1), partitions=nc_omega_structured(k))
            for k in range(1, args.k + 1)
        ],
    }
    names = list(routes) if args.method == "both" else [args.method]
    values = {name: routes[name]() for name in names}
    _check_printable(v for seq in values.values() for v in seq)
    lines = [f"beta_{k} ({name}) = {v}" for name, seq in values.items()
             for k, v in enumerate(seq, start=1)]
    if args.method == "both":
        return _verdict(args.format, values, lines)
    return _report(args.format, lines, {name: _json(seq) for name, seq in values.items()})
