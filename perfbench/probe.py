"""Size frontier and fixed-size rows, every call from cold caches.

    python3 perfbench/probe.py BUDGET_SECONDS

For each route the size steps up from 1.  The frontier is the largest size
whose single cold call finishes within the budget of wall-clock seconds;
stepping stops at the first call that runs over the budget (it is
interrupted there) or that the program refuses with SizeError, its
advertised cap.  The last stdout line is JSON: per route the frontier
size, whether the cap stopped it (1) or the budget (0), and the seconds of
the frontier call; then the rows.  A row that does not finish within
ROW_BUDGET_S ends the probe with an error, so a slow row cannot read as a
fast one.
"""

from __future__ import annotations

import gc
import json
import signal
import sys
import time
from fractions import Fraction

import freeunitary as fu
from freeunitary.errors import SizeError
from workloads import cold


class OverBudget(BaseException):
    """Raised by the timer; BaseException so no handler in the program eats it."""


def _alarm(signum, frame):
    raise OverBudget


def cold_call(fn, budget):
    """(seconds, None) if fn() finished within budget, else (None, 'budget' | 'cap')."""
    cold()
    gc.collect()
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.perf_counter() - t0
    except OverBudget:
        return None, "budget"
    except SizeError:
        return None, "cap"
    return (dt, None) if dt <= budget else (None, "budget")


def _alternating(n):
    return ("1*" * n)[:n]


# kappa_1..kappa_24 of a fixed q, enough data for k <= 12
_KAPPAS = tuple(Fraction(((7 * j) % 13) - 6, (j % 5) + 1) for j in range(1, 25))
_D = fu.Distribution(_KAPPAS)

ROUTES = {
    "z_mobius": ("n", lambda n: fu.z_mobius(_alternating(n))),
    "z_recursive": ("n", lambda n: fu.z_recursive(_alternating(n))),
    "xi_by_recursion": ("n", fu.xi_by_recursion),
    "xi_by_inversion": ("n", fu.xi_by_inversion),
    "alpha_sequence": ("k", lambda k: fu.alpha_sequence(_D, k)),
    "beta_mobius": ("k", lambda k: fu.beta_mobius(_D, k)),
    "nc_omega": ("n", lambda n: fu.nc_omega(_alternating(n))),
}

# rows of the re-anchor table in ROADMAP.md that take well under a second
ROW_BUDGET_S = 20.0
ROWS = {
    "alternating.xi_by_recursion_16.s": lambda: fu.xi_by_recursion(16),
    "alternating.xi_by_inversion_10.s": lambda: fu.xi_by_inversion(10),
    "rdiag.nc_omega_structured_4.s": lambda: fu.nc_omega_structured(4),
}

MAX_SIZE = 64


def frontier(fn, budget):
    best, best_s, stop = 0, 0.0, "budget"
    for size in range(1, MAX_SIZE + 1):
        dt, stop = cold_call(lambda: fn(size), budget)
        if dt is None:
            break
        best, best_s = size, dt
    return best, stop == "cap", best_s


def main():
    budget = float(sys.argv[1])
    signal.signal(signal.SIGALRM, _alarm)
    out = {}
    for route, (var, fn) in ROUTES.items():
        size, capped, seconds = frontier(fn, budget)
        out[f"frontier.{route}.{var}"] = size
        out[f"frontier.{route}.capped"] = int(capped)
        out[f"frontier.{route}.s"] = seconds
    for name, fn in ROWS.items():
        dt, stop = cold_call(fn, ROW_BUDGET_S)
        if dt is None:
            sys.exit(f"probe: {name} stopped by its {stop} ({ROW_BUDGET_S} s)")
        out[name] = dt
    print(json.dumps(out))


if __name__ == "__main__":
    main()
