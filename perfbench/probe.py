"""CPU speed probe that runs next to the benchmark, on the same CPU.

    python3 perfbench/probe.py OUTFILE

The shared host runs each virtual CPU at one of several speeds, switching
every few seconds; two CPUs switch independently.  Every ``PERIOD_S`` the
probe times two fixed pure-Python loops by its own CPU time and appends
``(perf_counter at the start, geometric mean of the two loops' CPU
seconds)`` as two doubles to OUTFILE, so the benchmark can rescale the CPU
time of anything that ran in the same window to one reference speed.  It
inherits the benchmark's CPU affinity and exits when its parent does.

Interpreted arithmetic on Fractions and complex numbers slows about 1.4
times as much as the integer loop when the host slows, and numpy passes
over large arrays about as much; the mean of the two loops sits between,
so neither kind of op is corrected far from its own change.  The loops
are the probe's own code, so a faster library does not change them.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import time
from fractions import Fraction

PERIOD_S = 0.02
LOOP = 5000  # integer steps: 0.4 to 0.7 ms on a 2 GHz Xeon, by the host's load
# (p, q) turns summed as unit complex numbers at 6 powers: 0.4 to 1 ms
ATOMS = [(p, 40) for p in range(1, 41)]
POWERS = range(3, 9)


def loops() -> float:
    """CPU seconds of both loops, as their geometric mean."""
    cpu = time.thread_time()
    x = 0
    for i in range(LOOP):
        x += i * i % 7
    mid = time.thread_time()
    total = 0j
    for k in POWERS:
        for p, q in ATOMS:
            turn = float(Fraction(p * k % q, q))
            total += complex(math.cos(2.0 * math.pi * turn), math.sin(2.0 * math.pi * turn))
    return math.sqrt((mid - cpu) * (time.thread_time() - mid))


def main() -> int:
    parent = os.getppid()
    fd = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    while os.getppid() == parent:
        start = time.perf_counter()
        os.write(fd, struct.pack("dd", start, loops()))
        time.sleep(PERIOD_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
