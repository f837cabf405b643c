"""Machine-speed meter: job times reported at a fixed reference speed.

The measuring machine is a shared host whose processor speed drifts by up to
~40% in phases of tens of seconds to minutes (a fixed loop's rate swings
that much while its CPU time tracks wall time, so no time is stolen from the
process). Raw wall times of the same job on the same code then spread more
between runs than any useful regression bound.

The meter times a fixed reference computation (one *slice*: plain Python
`Fraction` arithmetic, written here and never changed by the program) next
to every job: a few slices before and after each job, and, for jobs that
run in this process, one slice every PERIOD_S of wall time while the job
runs, from a SIGALRM interval timer. The slices' time is excluded from the
job's time. A job's time at the reference speed is

    wall time of the job * NOMINAL_SLICE_S / mean slice time around and during it

that is, its wall time on a machine on which one slice takes
NOMINAL_SLICE_S. A change to the program moves this figure exactly as it
moves wall time; a phase of the machine moves job and slices alike and
cancels. Raw wall times are reported beside it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Work of one slice, and its time at the reference speed: about a slice's
# median time on a 2-core Intel Xeon (2.1 GHz) container.
SLICE_STEPS = 400
NOMINAL_SLICE_S = 0.0025
EDGE_SLICES = 4  # slices before and after each job
PERIOD_S = 0.1  # one slice per this much wall time inside an in-process job


def reference_slice() -> float:
    """Seconds taken by one fixed reference computation (garbage collection
    held off, so leftovers of the program's own allocations do not land in it)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = Fraction(1, 3)
        for i in range(SLICE_STEPS):
            x = x * Fraction(i + 1, i + 2) + Fraction(1, 7)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def slices(n: int = EDGE_SLICES) -> list[float]:
    return [reference_slice() for _ in range(n)]


def factor(samples: list[float]) -> float:
    """Speed factor: reference-speed seconds per wall second."""
    return NOMINAL_SLICE_S / statistics.fmean(samples)


class Meter:
    """Samples the machine's speed around and during each job.

    Use: edge() once before the first job; then per job start_job(), the
    job, and stop_job(), which returns (slice seconds spent inside the job,
    speed factor). A job's time at reference speed is (wall time - spent) *
    factor. on_inner(seconds), when given, is told of each slice taken
    inside a job (the span recorder excludes it from open spans).
    """

    def __init__(self, on_inner=None):
        self.on_inner = on_inner
        self.all_slices: list[float] = []
        self._edge: list[float] = []
        self._inner: list[float] = []
        self._timed = False

    def edge(self):
        self._edge = slices()
        self.all_slices.extend(self._edge)

    def _tick(self, signum, frame):
        spent = reference_slice()
        self._inner.append(spent)
        self.all_slices.append(spent)
        if self.on_inner is not None:
            self.on_inner(spent)

    def start_job(self, in_process: bool):
        """in_process: the job runs in this process, so slices may interrupt
        it; a job in a child process is only sampled at its edges."""
        self._inner = []
        self._timed = in_process
        if in_process:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop_job(self) -> tuple[float, float]:
        if self._timed:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        inner, before = self._inner, self._edge
        self.edge()
        return sum(inner), factor(before + inner + self._edge)
