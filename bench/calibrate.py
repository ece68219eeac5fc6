"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by up to
a factor of two for tens of seconds at a time, in CPU time as much as in
wall time.  A fixed loop of interpreter work, timed right before and right
after each timed interval, measures the speed the interval ran at.  Every
timing the benchmark reports is scaled to a reference speed:

    reference seconds = wall seconds * REFERENCE_S / loop seconds

so a drift in the machine's speed cancels out, while a change in the
program's own work does not: the loop is the benchmark's own code and
calls nothing in ``gfgcover``.  The raw wall times are printed beside the
scaled ones.

REFERENCE_S is the loop's time on one core of an unloaded 2.1 GHz x86-64
virtual machine, so there reference seconds are wall seconds.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.0025
SAMPLES = 3
_PERMS = tuple(tuple((i * k + 1) % 11 for i in range(11)) for k in (2, 3, 5, 7))


def _loop(rounds: int = 120) -> int:
    """Tuple building, free reduction, dict counting and sorting: the kinds
    of work gfgcover does, on data of its own."""
    seen = {}
    p = tuple(range(11))
    for _ in range(rounds):
        for q in _PERMS:
            p = tuple(q[i] for i in p)
            w = []
            for x in p:
                if w and w[-1] == -x:
                    w.pop()
                else:
                    w.append(x)
            seen[p] = seen.get(p, 0) + len(w)
        sorted(seen.items())[:3]
    return len(seen)


def loop_seconds() -> float:
    """The loop's time now: the fastest of SAMPLES runs, which drops runs
    an interrupt landed in.  The garbage collector is off meanwhile, so
    the objects a job left behind cannot slow the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(SAMPLES):
            start = perf_counter()
            _loop()
            best = min(best, perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for an interval with
    loop times ``before`` and ``after``; the interval's speed is taken as
    their mean."""
    return REFERENCE_S * 2.0 / (before + after)
