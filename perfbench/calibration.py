"""Machine speed, measured by timing a fixed piece of pure-Python work.

The benchmark's machine shares its cores with other work, and its speed
swings by tens of percent within a second, in wall and CPU time alike,
and differs between processes running at the same moment.  calibrate(),
timed in the process that runs an operation and just before it, measures
the speed that operation ran at, so that its time can be scaled to one
reference speed.

Run as a script, it runs one ``ribbonfold.cli`` command in a process of
its own, as ``python -m ribbonfold.cli`` does, after timing calibrate()
twice in that process.  It writes the seconds of the second call, made
once the first has paid for the new process's first allocations, and of
both calls, to the named file:

    python3 perfbench/calibration.py <file for the seconds> <cli arguments>...
"""

from __future__ import annotations

import runpy
import sys
import time
from fractions import Fraction

# Reported times are seconds on a machine where calibrate() takes this long.
CALIBRATION_S = 0.001


def calibrate() -> float:
    """Seconds taken by a fixed mix of dict, list, float and Fraction work."""
    start = time.perf_counter()
    counts = {}
    values = []
    for i in range(2000):
        x = (i * 7919) % 1009
        counts[x] = counts.get(x, 0) + 1
        values.append(x * 0.5)
    values.sort()
    harmonic = Fraction(0)
    for i in range(1, 120):
        harmonic += Fraction(1, i)
    return time.perf_counter() - start


def run_cli_command(seconds_path: str) -> None:
    first = calibrate()
    second = calibrate()
    with open(seconds_path, "w", encoding="utf-8") as handle:
        handle.write("%r %r" % (second, first + second))
    runpy.run_module("ribbonfold.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    path = sys.argv.pop(1)
    run_cli_command(path)
