"""Host speed probe used to calibrate every timing of the benchmark.

On a 2-vCPU virtual machine on a shared Xeon host (Python 3.11.7) the same
pure-Python work runs at two or more speeds up to 1.9x apart, switching
every few seconds to every half minute (a fixed kernel timed for five
minutes: 30-second window medians spread by an interquartile range of 30%
of their median).  Raw times of one run then say more about the host's
state than about the code.  Every timed op is bracketed by two probes of a
fixed kernel, and the op's time is scaled by ``REFERENCE_S`` over the mean
of the two probe times: the result is in seconds at the speed at which the
kernel takes ``REFERENCE_S``.  Raw times are reported next to the
calibrated ones.
"""

import time

# Kernel time at the fast state of that virtual machine.  Any constant
# works: it only sets the unit.
REFERENCE_S = 0.00085


def _kernel() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i % 7
    table = {}
    for i in range(1_500):
        table[i] = str(i)
    return time.perf_counter() - started


def probe() -> float:
    """Kernel time now; the lower of two runs drops a one-off interrupt."""
    return min(_kernel(), _kernel())


def calibrated(seconds: float, before: float, after: float) -> float:
    return seconds * REFERENCE_S / ((before + after) / 2)
