"""Machine-speed probes: rescale measured times to a fixed reference speed.

The speed of the small shared VMs this benchmark runs on swings by up to
2x over periods of seconds to minutes: a fixed pure-Python loop took 21 to
38 ms, and a fixed staged-closure round took 250 to 490 ms, within one
minute on a 2-core VM.  Runs that differ only in when they ran would then
differ by more than any bound worth setting.  So the client runs a fixed
probe, which contains no flatgeom code, between jobs, and multiplies each
time by ``reference / p``, where p is the median probe time around it.
The result is the time the work would have taken at the speed where the
probe takes ``reference``.  Probe time is counted in no job's latency.

Two probes exist, each resembling the work it rescales: ``in_process``
(frozenset algebra, dict counting, modular row reduction) for library
calls, and ``child_process`` (start an interpreter that imports the
standard modules the CLI imports) for CLI commands, whose time is mostly
process start and imports.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Callable


def probe_work() -> int:
    """Fixed work resembling flatgeom's inner loops."""
    base = [frozenset(range(i, i + 4)) for i in range(30)]
    counts: dict[frozenset, int] = {}
    for a in base:
        for b in base:
            s = a | b
            counts[s] = counts.get(s, 0) + len(a & b)
    rows = [[(i * j + 3) % 7 for j in range(8)] for i in range(8)]
    for c in range(8):
        piv = next((r for r in range(c, 8) if rows[r][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], 5, 7)
        for r in range(8):
            if r != c and rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [(x - f * y) % 7 for x, y in zip(rows[r], rows[c])]
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], sorted(kv[0])))
    return len(ranked) + sum(map(sum, rows))


def _time_in_process() -> float:
    """The faster of two runs of ``probe_work``."""
    t0 = perf_counter()
    probe_work()
    t1 = perf_counter()
    probe_work()
    return min(t1 - t0, perf_counter() - t1)


def _time_child() -> float:
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import argparse, dataclasses, json, random, typing"],
        check=True, capture_output=True, timeout=60,
    )
    return perf_counter() - start


class SpeedProbe:
    def __init__(self, measure: Callable[[], float], reference: float, every: float, window: float):
        self.measure = measure
        #: Probe time at the reference speed.
        self.reference = reference
        #: Longest time between two probes while jobs run.
        self.every = every
        #: Probes this close to a timed interval count for it.
        self.window = window
        self.times: list[float] = []
        self.probes: list[float] = []

    def probe(self) -> None:
        p = self.measure()
        self.times.append(perf_counter())
        self.probes.append(p)

    def tick(self) -> None:
        """Probe if the last probe is older than ``every``."""
        if not self.times or perf_counter() - self.times[-1] >= self.every:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """``reference`` over the median probe time around [start, end]: the
        latest probe before it, every probe within ``window`` of it, and the
        first probe after it."""
        lo = bisect.bisect_left(self.times, start - self.window)
        hi = bisect.bisect_right(self.times, end + self.window)
        before = bisect.bisect_left(self.times, start) - 1
        after = bisect.bisect_right(self.times, end)
        lo = min(lo, max(before, 0))
        hi = max(hi, min(after + 1, len(self.times)))
        return self.reference / statistics.median(self.probes[lo:hi])


def in_process() -> SpeedProbe:
    # The references are about each probe's median on a 2-core Xeon VM
    # with Python 3.11.
    return SpeedProbe(_time_in_process, reference=0.0015, every=0.025, window=0.5)


def child_process() -> SpeedProbe:
    return SpeedProbe(_time_child, reference=0.08, every=1.0, window=4.0)
