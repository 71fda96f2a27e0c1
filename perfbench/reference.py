"""A fixed pure-Python loop that tells how fast the host runs right now.

On a shared host the speed of a core changes by a third from minute to
minute, in phases longer than a run, and such phases move every timing of
a run together. Timing this loop next to each measurement and scaling the
measurement by it takes most of that out (NOTES.md gives the spreads).

The loop slows more than instab does when the host is busy: over 39 runs
on a 2-vCPU VM, the log of a run's median repetition time rose by 0.66 to
0.82 times the log of the loop's median time, depending on the workload,
and the log of a set-up time by 0.71 times that of the loop time before
it. Measurements are therefore scaled by the loop's speed to the power
``ELASTICITY``.

The loop is the benchmark's own code, so a change to instab leaves it as
it is.
"""

from __future__ import annotations

import time

LOOPS = 1_500_000
NOMINAL_S = 0.2  # the loop's time on that VM; scaled times are in its seconds
ELASTICITY = 0.75


def loop_s():
    """Wall time of one pass of the fixed loop."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(LOOPS):
        total += (i * 7) % 13
        table[i & 1023] = total
    return time.perf_counter() - start


def scaled(seconds, reference_s):
    """``seconds`` measured while the loop took ``reference_s``, rescaled to
    the host speed at which the loop takes ``NOMINAL_S``."""
    return seconds * (NOMINAL_S / reference_s) ** ELASTICITY
