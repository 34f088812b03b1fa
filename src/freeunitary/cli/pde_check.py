"""freeunitary pde-check: the PDE coefficients of the closed xi_n and the
residual on the default grids."""

from __future__ import annotations

HELP = "PDE coefficient and residual check"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)


def handle(args) -> int:
    from ..alternating import pde_residual

    n = args.n
    report = pde_residual(n)
    bad = [j for j, c in enumerate(report.coefficients[:n], start=1) if not c.is_zero]
    if bad:
        for j in bad:
            print(f"coefficient z^{j}: nonzero")
    else:
        print(f"coefficients z^1..z^{n}: all zero")
    print(f"defect order: {report.defect_order}")
    print(f"max residual on default grids: {report.max_residual:.3e}")
    return 1 if bad else 0
