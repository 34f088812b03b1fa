"""freeunitary benchmark: one seeded, exact-checked workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the last stdout line carries the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics.  The line before it
reports the seed, a fingerprint of the generated inputs, the tail
percentile with its task counts, and any failures.  Exit code 0 means the
run finished and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Wall-clock seconds one cycle of each workload takes on the reference
# machine (see README.md).  A run does round(--seconds / this) cycles, at
# least MIN_CYCLES, so it measures about --seconds there, and every run with
# the same --seconds does the same work on any machine and any commit.
CYCLE_SECONDS = {"series_routes": 7.9, "cli_requests": 3.8}
MIN_CYCLES = 2
TAIL_BEYOND = 10  # the tail is the slowest task with this many tasks beyond it
SETUP_SAMPLES = 15
FRONTIER_BUDGET_S = 1.0
CLI_PROBE = (["zpoly", "1*1*"], ["xi", "--n", "3", "--method", "all"], ["nc", "--n", "6"])
CHILD_TIMEOUT = 170


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(args, env, timeout=CHILD_TIMEOUT, stderr=None):
    return subprocess.run([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                          stderr=stderr, text=True, timeout=timeout, cwd=ROOT)


def _last_json(proc, what):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{what} exited with {proc.returncode}")
    return json.loads(lines[-1])


def setup_seconds(env):
    """Median time from starting a fresh interpreter until freeunitary.cli is imported,
    scaled to the reference host speed, and the same median unscaled.

    perf_counter reads the system-wide monotonic clock, so the parent's
    reading before the start and the child's after the import compare."""
    code = "import freeunitary.cli, time; print(repr(time.perf_counter()))"
    samples, wall = [], []
    for i in range(SETUP_SAMPLES + 1):
        before = hostspeed.calibrate()
        start = time.perf_counter()
        done = float(_last_json(_python(["-c", code], env), "import freeunitary.cli"))
        after = hostspeed.calibrate()
        if i:  # the first start may compile bytecode; a user's install has it
            samples.append(hostspeed.scaled(done - start, before, after))
            wall.append(done - start)
    return statistics.median(samples), statistics.median(wall)


def worker(env, workload, seed, cycles, *flags):
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--cycles", str(cycles), *map(str, flags)]
    return _last_json(_python(args, env), f"worker {workload}")


def tail(latencies):
    """The slowest task with TAIL_BEYOND tasks beyond it, its percentile and that count."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100 * rank / len(ordered), len(ordered) - rank


def cycle_rates(res, key="latencies"):
    """Tasks per second of task time, for each cycle of a run."""
    lat, ends = res[key], res["cycle_ends"]
    return [(end - start) / sum(lat[start:end]) for start, end in zip([0, *ends], ends)]


def end_to_end(res, setup, setup_wall):
    lat, wall = res["latencies"], res["wall_latencies"]
    tail_s, percentile, beyond = tail(lat)
    metrics = {
        "setup_s": setup,
        # the median cycle, so a few cycles that the host slowed, or that
        # a run of memo hits sped up, do not move the run's figure
        "tasks_per_s": statistics.median(cycle_rates(res)),
        "task_p50_s": statistics.median(lat),
        "task_tail_s": tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1 - res["failed"] / len(lat),
    }
    # the unscaled wall-clock figures, and the host speed they were scaled by
    measured = {"setup_s": setup_wall,
                "tasks_per_s": statistics.median(cycle_rates(res, "wall_latencies")),
                "task_p50_s": statistics.median(wall), "task_tail_s": tail(wall)[0],
                "calibration_s": res["calibration_s"]}
    return metrics, {"tasks": len(lat), "tail_percentile": round(percentile, 2),
                     "tasks_beyond_tail": beyond, "wall_clock": measured}


def shim(env, stats, argv):
    """One CLI request through cli_shim.py; returns (stats record, stderr)."""
    proc = _python([str(HERE / "cli_shim.py"), str(stats), *argv], env,
                   stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError(f"freeunitary {' '.join(argv)} exited with {proc.returncode}")
    record = json.loads(Path(stats).read_text().splitlines()[-1])
    return record, proc.stderr


def cli_layer(env, tmp):
    """Full verify plus the fixed probe requests, layers untraced."""
    stats = Path(tmp) / "cli.jsonl"
    out = {}
    verify, stderr = shim(env, stats, ["verify"])
    reported = set(re.findall(r"^suite (\S+): [0-9.]+s$", stderr, re.M))
    if reported != set(verify["suites"]):
        raise RuntimeError("verify did not report seconds for every suite on stderr")
    for suite, seconds in verify["suites"].items():
        out[f"cli.verify.{suite}.s"] = seconds
    out["cli.verify.total_s"] = verify["request_s"]
    probes = [shim(env, stats, argv)[0] for argv in CLI_PROBE]
    out["cli.import_s"] = statistics.median(r["import_s"] for r in [verify, *probes])
    out["cli.request.s"] = statistics.median(r["request_s"] for r in probes)
    return out


def per_layer(env, workload, seed, cycles):
    import tracer

    # the traced pass runs the whole workload; the untraced pass runs its
    # first quarter, and the overhead compares the two over those cycles
    prefix = max(1, cycles // 4)
    flag = "--cli-trace" if workload == "cli_requests" else "--trace"
    base = worker(env, workload, seed, prefix)
    traced = worker(env, workload, seed, cycles, flag)
    metrics = tracer.layer_metrics(traced["raw"])
    traced_prefix = sum(traced["latencies"][:traced["cycle_ends"][prefix - 1]])
    metrics["trace.overhead_frac"] = traced_prefix / base["busy_s"] - 1
    probe = _last_json(_python([str(HERE / "probe.py"), str(FRONTIER_BUDGET_S)], env), "probe")
    metrics.update(probe)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        metrics.update(cli_layer(env, tmp))
    return metrics, [base, traced]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CYCLE_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "freeunitary" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/freeunitary package or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    env = _env()
    sys.path.insert(0, str(HERE))

    cycles = max(MIN_CYCLES, round(args.seconds / CYCLE_SECONDS[args.workload]))
    if args.trace:
        values, runs = per_layer(env, args.workload, args.seed, cycles)
        wanted = spec["per_layer"]
        info = {}
    else:
        setup, setup_wall = setup_seconds(env)
        res = worker(env, args.workload, args.seed, cycles)
        runs = [res]
        values, info = end_to_end(res, setup, setup_wall)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(values):
        raise RuntimeError(f"metrics computed {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json")
    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["gate_ok"] for r in runs)
    info.update({"workload": args.workload, "seed": args.seed, "cycles": cycles,
                 "fingerprint": runs[0]["fingerprint"], "gate_bites": all(r["gate_ok"] for r in runs),
                 "failures": [f for r in runs for f in r["failures"]]})
    print(json.dumps(info))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
