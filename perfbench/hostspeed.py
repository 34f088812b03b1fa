"""Host-speed calibration: scale wall times to a reference host speed.

A shared host changes speed by up to half for seconds at a time, on both
CPUs at once, and every kind of pure-Python work slows alike.  So beside
every timed task the benchmark times `calibrate()`, a fixed loop of
standard-library work (Fraction arithmetic, big integers, dicts and
tuples) that runs no freeunitary code, and reports the task's wall time
times REF_S / (the calibration time measured beside it).  The result is
the time the task would take on a host that runs the loop in REF_S: a
slower program still reads slower, and a host that slows both the task
and the loop cancels out.
"""

from __future__ import annotations

import time
from fractions import Fraction

# a round figure for calibrate() on the reference machine of README.md,
# where it took 8.7 ms while the host ran fast and up to 15 ms while it ran slow
REF_S = 0.0100


def calibrate():
    """Wall seconds of one fixed pass of standard-library work."""
    t0 = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 1400):
        total += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - t0


def scaled(seconds, before, after):
    """`seconds` at reference speed, from the calibrations just before and after it."""
    return seconds * 2 * REF_S / (before + after)
