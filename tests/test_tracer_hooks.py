"""The private names perfbench/tracer.py wraps still exist and are the ones called,
and perfbench/cli_shim.py still times and traces a CLI request.

The tracer finds its targets by module and attribute name, and the shim
wraps the suites it finds in cli.SUITES, so renaming one of them would
otherwise surface only in a traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_INSTALL = """
import json
import sys

sys.path.insert(0, sys.argv[1])
import tracer

import freeunitary

trace = tracer.Tracer()
trace.install()
freeunitary.z_mobius("1*1*1*")
freeunitary.nc_omega("1*1")
trace.snapshot_caches()
unwrapped = [
    name
    for name, (mod, attr) in tracer.SPANS.items()
    if not hasattr(getattr(getattr(freeunitary, mod), attr), "__wrapped__")
]
print(json.dumps({"unwrapped": unwrapped, "calls": trace.raw["calls"],
                  "count": trace.raw["count"]}))
"""


def test_tracer_installs_on_every_span_target():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["unwrapped"] == []
    # the Moebius sum reaches the Kreweras complement through the wrapped name
    assert report["calls"]["ncpart.kreweras"] > 0
    assert report["calls"]["cumulants.z_mobius"] == 1
    assert report["calls"]["ncpart.weight_table"] > 0
    # nc_omega enumerates through the wrapped generator, so its candidates count
    assert report["count"]["enumerated@rdiag.nc_omega"] > 0


def test_cli_shim_times_and_traces_a_verify_suite(tmp_path):
    # cli_shim.py wraps the suites in cli.SUITES before the request runs;
    # the harness must run those wrappers, and the suite's calls must reach
    # the names the tracer wrapped
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    stats = tmp_path / "stats.jsonl"
    argv = [sys.executable, str(ROOT / "perfbench" / "cli_shim.py"), "--layers", str(stats),
            "verify", "--suite", "thm3.7"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "suite thm3.7: PASS (254 cases)\n1/1 suites passed\n"
    [record] = [json.loads(line) for line in stats.read_text().splitlines()]
    assert list(record["suites"]) == ["thm3.7"]
    assert record["raw"]["calls"]["cumulants.z_recursive"] == 254
