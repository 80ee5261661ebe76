"""Host clock calibration for the benchmark's time figures.

On a shared host the same code slows by up to 1.9x for tens of seconds at a
time, most likely as the host's CPU clock drops when neighbours load it.
A slow spell can cover a whole run, so no statistic over one run's own
timings removes it. The benchmark therefore runs a short pure-Python kernel,
which shares no code with pqc_lens, next to the timed work, and converts
each time to the reference clock at which the kernel takes KERNEL_REF_S:

    time at reference clock = measured time * KERNEL_REF_S / kernel time

A slow spell stretches the measured time and the kernel time alike and
cancels out. A slower or faster pqc_lens does not move the kernel.
"""
from __future__ import annotations

import time

KERNEL_LOOPS = 20_000
# the kernel's time on the development host (2.1 GHz Intel Xeon vCPU,
# Python 3.11) at full clock; any constant would do, this one keeps
# reported times close to that host's unloaded wall times
KERNEL_REF_S = 1.0e-3


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i
    return time.perf_counter() - start


def at_reference_clock(seconds: float, kernel: float) -> float:
    """``seconds`` measured while the kernel took ``kernel`` seconds,
    converted to the reference clock."""
    return seconds * KERNEL_REF_S / kernel
