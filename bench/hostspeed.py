"""Host-speed reference: scales measured times to a nominal host.

The shared CPUs the benchmark runs on change speed by up to 2x within a
minute, and the same fixed loop takes twice as long in one stretch as in
the next; CPU time moves with wall time, so it does not help. The timed
loops therefore run a fixed unit of stdlib-only work (Fraction arithmetic
and dict updates, close to the workloads' own instruction mix) between
ops, and each time is scaled by NOMINAL_S over the unit's local wall time.
A time reads as it would on a host where the unit takes NOMINAL_S. The
unit runs no drazinkit code, so a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.010


def reference_s() -> float:
    """Wall seconds of one reference unit."""
    t0 = time.perf_counter()
    s, d = Fraction(0), {}
    for i in range(1, 1200):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        d[i % 31] = (d.get(i % 31, 0) * 3 + i) % 1000003
    return time.perf_counter() - t0


def scale(refs: list[float], slot: int, half: int) -> float:
    """Factor from wall to nominal seconds for the work after reference
    ``slot``: the median of the ``2 * half`` references around it."""
    return NOMINAL_S / statistics.median(refs[max(0, slot - half + 1) : slot + half + 1])


def timed(fn):
    """Run ``fn`` between two reference units; (result, wall s, nominal s)."""
    before = reference_s()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, wall * scale([before, reference_s()], 0, 1)
