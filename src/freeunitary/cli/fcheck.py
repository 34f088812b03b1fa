"""freeunitary fcheck: the cleared-form functional identity, order by order."""

from __future__ import annotations

HELP = "cleared-form functional identity check"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, required=True)


def handle(args) -> int:
    from ..laplace import check_f_identity

    ok, failures = check_f_identity(args.order)
    if ok:
        print(f"OK: cleared-form identity holds through order {args.order}")
        return 0
    for (i, j), got, expected in failures:
        print(f"coefficient ({i},{j}): expected {expected.to_text()}, got {got.to_text()}")
    return 1
