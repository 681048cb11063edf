"""Calibrated operation times, steady on a shared host.

On a host shared with other tenants the speed of one core drifts by up to
about 1.8x from one stretch of seconds to the next, and a 20-second run can
fall wholly inside a slow or a fast stretch.  Best-of or median times then
differ between runs of the same code by more than any useful bound.

So a pass runs a short calibration kernel between its operations (before
each CLI command, before every CHUNK oneshot requests, and once more when
the pass ends).  The kernel is fixed pure-Python work that shares no code
with nbhd but is made of the same stuff: dict updates with small tuples,
lists and strings, then method calls on a small object, comprehensions,
frozensets, sorting and joins.  A kernel of bare integer arithmetic
tracked the program's speed two to four times worse.

An operation's time is its measured time scaled by NOMINAL_NS over the
mean of the two calibrations around it: the time the operation would take
on a reference core where the kernel takes exactly NOMINAL_NS.  On a 2-core
x86-64 cloud VM with CPython 3.11 the kernel took 5 to 10 ms, depending on
the load of the host, so scaled times there read up to twice the raw ones.

Speed changes of the program itself scale only the operation, not the
kernel, and move the scaled time in full.  What the scaling removes is a
change of core speed that slows nbhd and the kernel alike.  (A program
that kept a thread of its own busy between calls would slow the kernel as
well and hide part of that cost; nbhd starts no threads.)
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

NOMINAL_NS = 10_000_000
TABLE_ITERATIONS = 5_000
OBJECT_ITERATIONS = 750


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi

    def meet(self, mask: int) -> int:
        return (self.lo & mask) | (self.hi >> 1)


def calibrate() -> int:
    """Nanoseconds the calibration kernel takes now.  The collector is off
    while it runs, so the kernel does not pay for the caller's heap."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter_ns()
    table: dict = {}
    for i in range(TABLE_ITERATIONS):
        table[i, i & 7] = [i, str(i)]
        if i & 3 == 0:
            table.pop((i - 4, (i - 4) & 7), None)
    acc = 0
    for i in range(OBJECT_ITERATIONS):
        pair = _Pair(i, 3 * i)
        rows = [pair.meet(mask) for mask in range(8)]
        low = frozenset(row & 15 for row in rows)
        acc += len(low) + max(rows) + len(",".join(map(str, sorted(low))))
    took = perf_counter_ns() - start
    if enabled:
        gc.enable()
    return took


class Clock:
    """Collects one pass's operation times and calibrations."""

    def __init__(self) -> None:
        self.calibrations: list[int] = []
        self.raw: list[tuple[int, int]] = []  # (ns, calibrations taken before it)

    def split(self) -> None:
        """Calibrate; the operations added next are scaled by this
        calibration and the one after them."""
        self.calibrations.append(calibrate())

    def add(self, ns: int) -> None:
        if not self.calibrations:
            raise RuntimeError("Clock.add before the first Clock.split")
        self.raw.append((ns, len(self.calibrations)))

    def take(self) -> tuple[list[int], list[float]]:
        """End the pass: calibrate once more and return the raw and the
        scaled time of every operation, in order, in ns.  Resets the clock."""
        self.split()
        cal = self.calibrations
        raw = [ns for ns, _ in self.raw]
        scaled = [ns * 2 * NOMINAL_NS / (cal[i - 1] + cal[i]) for ns, i in self.raw]
        self.calibrations, self.raw = [], []
        return raw, scaled
