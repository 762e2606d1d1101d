"""Correct measured times for the speed the host runs at right now.

The machine the benchmark was defined on is a small share of a busy host.
Its speed drifts by up to 1.7x from one second to the next, in CPU time as
in wall time.  A time measured there says as much about the
host at that moment as about the program.

So the benchmark times a fixed kernel of its own, which never changes
with the program, right before and right after each measured stretch.  The
kernel mixes interpreter work (a loop, a list and a dict) with calls into
``math``, as the program does.  The stretch's wall time is then scaled by
``REFERENCE_S`` over the kernel's mean time at its two ends:

    corrected = wall * REFERENCE_S / mean(kernel before, kernel after)

A corrected time reads as the time the stretch would have taken on a host
where one kernel call takes ``REFERENCE_S``.  A program change shows in
full, because the kernel does not change with it.
"""

from __future__ import annotations

import math
import time

# The kernel's median time on the machine the benchmark was defined on
# (2 Xeon CPUs, Python 3.11), so corrected times read like that machine's.
REFERENCE_S = 1.0e-4


def kernel() -> float:
    acc = 0.0
    xs = []
    for i in range(1, 150):
        x = i * 0.37
        acc += math.exp(-x) * x + math.log1p(x) + math.lgamma(1.0 + x * 0.1)
        xs.append(acc)
    last = {}
    for v in xs:
        last[int(v) & 15] = v
    return acc + sum(last.values())


def kernel_s() -> float:
    """Seconds one kernel call takes now."""
    perf = time.perf_counter
    t0 = perf()
    kernel()
    return perf() - t0


def corrected(wall_s: float, before_s: float, after_s: float) -> float:
    """wall_s as it would read on a host where one kernel call takes REFERENCE_S."""
    return wall_s * REFERENCE_S * 2.0 / (before_s + after_s)
