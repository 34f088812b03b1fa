"""The private names perfbench/tracer.py wraps still exist and are the ones called.

The tracer finds its targets by module and attribute name, so renaming one
of them would otherwise surface only in a traced benchmark run.
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
    # nc_omega enumerates through the wrapped generator, so its candidates count
    assert report["count"]["enumerated@rdiag.nc_omega"] > 0
