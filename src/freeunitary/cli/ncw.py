"""freeunitary ncw: the supporting partitions of a word.  It prints counts
and partitions, no value, so it reads nothing of freeunitary.cli.common."""

from __future__ import annotations

HELP = "supporting partitions of a word"


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default text)")


def handle(args) -> int:
    from ..rdiag import nc_omega

    onc = nc_omega(args.word)
    if args.format == "json":
        import json

        payload = {"word": str(onc.word), "count": len(onc)}
        if not args.count_only:
            payload["partitions"] = [p.to_lists() for p in onc.partitions]
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"count = {len(onc)}")
    if not args.count_only:
        for p in onc.partitions:
            print(p)
    return 0
