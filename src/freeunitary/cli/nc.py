"""freeunitary nc: non-crossing partition lattice utilities."""

from __future__ import annotations

from .. import cli
from ..errors import StructureError, check_at_most, quote

HELP = "non-crossing partition lattice utilities"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group().add_argument
    mode("--list", action="store_true", help="list all partitions")
    mode("--kreweras", metavar="P", help="complement of P, e.g. '[[1,4],[2,3]]'")
    mode("--moebius", metavar="P", help="Moebius weight of P against the full block")


def _parse_partition(n: int, text: str) -> NCPartition:
    from ..ncpart import NCPartition
    from .common import _decode_json  # only here: the count and --list read no input

    blocks = _decode_json(text, f"partition {quote(text)}")
    if not isinstance(blocks, list) or not all(
        isinstance(b, list) and all(type(e) is int for e in b) for b in blocks
    ):
        raise StructureError(f"partition {quote(text)} must be a JSON list of lists of integers")
    return NCPartition(n, blocks)


def handle(args) -> int:
    from ..ncpart import catalan, check_ground_size, enumerate_nc, kreweras, moebius_to_one

    n = args.n
    if args.kreweras is not None:
        p = _parse_partition(n, args.kreweras)
        print(str(kreweras(p)))
        return 0
    if args.moebius is not None:
        p = _parse_partition(n, args.moebius)
        print(moebius_to_one(p))
        return 0
    if args.list:
        check_at_most("--list --n", n, "MAX_LIST_SIZE", cli.MAX_LIST_SIZE)
        for p in enumerate_nc(n):
            print(str(p))
        return 0
    check_ground_size(n)
    print(f"count = {catalan(n)}")
    return 0
