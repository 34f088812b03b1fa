"""Run one freeunitary CLI request with timers around it.

    python3 perfbench/cli_shim.py [--layers] STATS_FILE ARGS...

Stdout and the exit code are those of `freeunitary ARGS...`.  One JSON line
is appended to STATS_FILE: the import time of freeunitary.cli, the time of
cli.run, the seconds of every verify suite that ran (all wall-clock seconds), and
with --layers the raw per-layer table of tracer.py.
"""

from __future__ import annotations

import json
import sys
import time


def main():
    argv = sys.argv[1:]
    layers = argv[0] == "--layers"
    if layers:
        argv = argv[1:]
    stats_path, argv = argv[0], argv[1:]

    t0 = time.perf_counter()
    from freeunitary import cli

    import_s = time.perf_counter() - t0
    suites = {}

    def timed(name, fn):
        def suite(args):
            start = time.perf_counter()
            try:
                return fn(args)
            finally:
                suites[name] = time.perf_counter() - start

        return suite

    for name, fn in list(cli.SUITES.items()):
        cli.SUITES[name] = timed(name, fn)
    trace = None
    if layers:
        import tracer

        trace = tracer.Tracer()
        trace.install()
    t1 = time.perf_counter()
    code = cli.run(argv)
    request_s = time.perf_counter() - t1
    sys.stdout.flush()
    record = {"import_s": import_s, "request_s": request_s, "suites": suites}
    if trace:
        trace.snapshot_caches()
        record["raw"] = trace.raw
    with open(stats_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
