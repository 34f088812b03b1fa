"""One closed-loop run of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --cycles C
        [--trace | --cli-trace]

run.py starts this with PYTHONPATH pointing at the checkout's src/, so the
module caches of freeunitary start cold, as they do for a user.  Tasks run
one at a time and each is timed on the wall clock (time.perf_counter),
from the call into the program until its result is back; for a CLI request
that is the child's whole life.  Before each task, and after the last, the
host's speed is calibrated (hostspeed.py); `latencies` are the task times
scaled to the reference speed, `wall_latencies` the times as measured.
The run does exactly C cycles of the workload, so every run of a seed does
the same work whatever the speed of the machine or of the program.  The
last stdout line is JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from random import Random

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

REQUEST_TIMEOUT = 120


class Context:
    """What CLI tasks need: a temporary directory and a way to launch a request."""

    def __init__(self, tmpdir=None, stats=None):
        self.tmpdir, self.stats = tmpdir, stats
        self.peak_rss_kb = 0
        self._spawner = None

    def launch(self, argv):
        if self.stats is None:
            cmd = [sys.executable, "-m", "freeunitary.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "cli_shim.py"), "--layers", str(self.stats), *argv]
        if self._spawner is None:
            self._spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                             text=True)
        self._spawner.stdin.write(json.dumps({"argv": cmd}) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
        return reply["code"], reply["stdout"]

    def close(self):
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait(timeout=REQUEST_TIMEOUT)
            self._spawner.stdout.close()


def fingerprint(workload, seed, cycles=8):
    """Hash of the first cycles of inputs; equal seeds give equal fingerprints."""
    import workloads

    stream = workloads.WORKLOADS[workload](Random(seed), Context())
    digest = hashlib.sha256()
    for _ in range(cycles):
        for task in next(stream):
            digest.update(f"{task.kind}|{task.desc}\n".encode())
    return digest.hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycles", type=int, required=True)
    ap.add_argument("--trace", action="store_true", help="trace layers in this process")
    ap.add_argument("--cli-trace", action="store_true", help="trace layers in CLI children")
    args = ap.parse_args(argv)

    import freeunitary
    import freeunitary.cli  # noqa: F401  (workloads call into the CLI module)

    if not Path(freeunitary.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"freeunitary imported from {freeunitary.__file__}, not from src/")
    import tracer
    import workloads

    tmpdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    stats = Path(tmpdir) / "stats.jsonl" if args.cli_trace else None
    ctx = Context(tmpdir, stats)
    try:
        result = loop(args, ctx, tracer, workloads)
        if stats is not None:
            raws = [json.loads(line)["raw"] for line in stats.read_text().splitlines()]
            result["raw"] = tracer.merge(raws)
    finally:
        ctx.close()
        shutil.rmtree(tmpdir, ignore_errors=True)
    if args.workload == "cli_requests":
        result["peak_rss_mb"] = ctx.peak_rss_kb / 1024
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["fingerprint"] = fingerprint(args.workload, args.seed)
    print(json.dumps(result))


def loop(args, ctx, tracer, workloads):
    canary = workloads.canary(args.workload, ctx)
    raw = canary.run()
    gate_ok = (workloads.check(canary, raw) is None
               and workloads.check(canary, raw, corrupt=True) is not None)
    workloads.cold()  # the canary must not warm the caches of the timed tasks

    trace = tracer.Tracer() if args.trace else None
    if trace:
        trace.install()
    stream = workloads.WORKLOADS[args.workload](Random(args.seed), ctx)
    latencies, calibrations, failures, cycle_ends = [], [], [], []
    for _ in range(args.cycles):
        for task in next(stream):
            if task.setup:
                task.setup()
            calibrations.append(hostspeed.calibrate())
            t0 = time.perf_counter()
            try:
                raw = task.run()
                error = None
            except Exception as exc:  # a crash is a failed task, not a crashed run
                raw, error = None, f"{task.kind} {task.desc}: {exc!r}"
            latencies.append(time.perf_counter() - t0)
            if error is None:
                try:
                    error = workloads.check(task, raw)
                except Exception as exc:
                    error = f"{task.kind} {task.desc}: check raised {exc!r}"
            if error:
                failures.append(error)
                print("FAIL " + error, file=sys.stderr)
        cycle_ends.append(len(latencies))
    calibrations.append(hostspeed.calibrate())
    scaled = [hostspeed.scaled(lat, before, after)
              for lat, before, after in zip(latencies, calibrations, calibrations[1:])]
    result = {"latencies": scaled, "wall_latencies": latencies, "cycle_ends": cycle_ends,
              "calibration_s": statistics.median(calibrations), "failures": failures[:20],
              "failed": len(failures), "busy_s": sum(scaled), "gate_ok": gate_ok}
    if trace:
        trace.snapshot_caches()
        result["raw"] = trace.raw
    return result


if __name__ == "__main__":
    main()
