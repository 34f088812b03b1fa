"""Start CLI requests from a small process, one at a time.

A child inherits the peak RSS of the process that forks it, so a request
forked straight from the worker, which holds freeunitary and its caches,
would report the worker's memory as its own.  The worker starts this
process first, while it is small, and asks it for each request: one JSON
line {"argv": [...]} in, one JSON line {"code", "stdout", "maxrss_kb"} out.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys


def main():
    for line in sys.stdin:
        argv = json.loads(line)["argv"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True) as proc:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "stdout": stdout, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
