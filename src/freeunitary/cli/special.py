"""freeunitary special: the closed two-term form of the words 1^k *^l."""

from __future__ import annotations

from .common import _add_format, _json, _report, _show

HELP = "closed two-term form for 1^k *^l words"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_format(p)


def handle(args) -> int:
    from ..laplace import u_poly, v_poly, z_from_uv

    k, l = args.k, args.l
    u, v = u_poly(k, l), v_poly(k, l)
    values = {"U": u, "V": v, "Z": z_from_uv(k, l, u, v).value}
    lines = (f"{name} = {_show(v, args.format)}" for name, v in values.items())
    return _report(args.format, lines,
                   lambda: {"k": k, "l": l, **{name: _json(v) for name, v in values.items()}})
