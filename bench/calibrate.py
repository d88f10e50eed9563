"""Calibration of CPU time against a fixed reference computation.

On a shared host the speed of this guest's CPUs drifts by tens of per cent
within seconds, even in CPU time: other guests on the hyperthread siblings and
in the shared caches slow every instruction.  Every kind of interpreter work
slows together, so the benchmark keeps running a fixed piece of pure Python of
its own, also in the middle of operations, and scales each operation's CPU
time by how slowly that reference ran during it.  The reference does the kind
of work ``semforge`` does (recursive backtracking over sets, churn of dicts,
tuples and frozensets, sorting), none of it by calling ``semforge``, so a
change to the program cannot change the scale.

A calibrated time reads as CPU seconds on a machine where one reference run
takes ``REF_SECONDS`` of CPU time.
"""

from __future__ import annotations

import bisect
import random
import resource
import signal
import statistics
import time

# About the reference's CPU time on the 2-vCPU Xeon VM (Python 3.11.7) the
# benchmark was written on.  It only fixes the scale of calibrated times.
REF_SECONDS = 0.002
# While sampling, the reference runs once per this much CPU time of the
# process (its own included), so it takes about a tenth of the CPU.
INTERVAL = 0.02
# Reference runs up to this many seconds before an operation starts or after
# it ends describe the machine's speed during it, besides those inside it.
WINDOW = 0.5


def cpu_clock() -> float:
    """CPU seconds of this thread and the process's waited-for children.

    While the hypervisor runs other guests, this guest's CPUs stand still; the
    kernel counts that time as steal, not as CPU time.  The benchmark and the
    program run in one thread.  The thread's clock is read, not the
    process's: while ``ITIMER_PROF`` is armed, Linux serves the process clock
    from a sum it updates only now and then, and a 2 ms reference run inside
    the timer's handler read as 0 on it.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


def reference() -> int:
    """The fixed computation: about 2 ms of interpreter work."""
    n = 6
    cols: set = set()
    diag: set = set()
    anti: set = set()
    found = 0

    def place(row: int) -> None:
        nonlocal found
        if row == n:
            found += 1
            return
        for c in range(n):
            if c in cols or row + c in diag or row - c in anti:
                continue
            cols.add(c)
            diag.add(row + c)
            anti.add(row - c)
            place(row + 1)
            cols.discard(c)
            diag.discard(row + c)
            anti.discard(row - c)

    place(0)
    rng = random.Random(5)
    seen: dict = {}
    for _ in range(200):
        key = frozenset((rng.randrange(40), rng.randrange(40)) for _ in range(6))
        seen[key] = seen.get(key, 0) + 1
    return found + sorted(map(len, seen))[0]


class Calibration:
    """Reference runs, with the elapsed-time midpoint and CPU time of each.

    Used as a context manager, it runs the reference from a ``SIGPROF``
    handler every ``INTERVAL`` of CPU time, between any two bytecodes of the
    program.  ``clock`` leaves the CPU time of the reference runs out.
    """

    def __init__(self):
        self.at: list[float] = []
        self.cpu: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _run_once(self) -> None:
        self._busy = True
        t0, c0 = time.perf_counter(), time.thread_time()
        reference()
        c1, t1 = time.thread_time(), time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.cpu.append(c1 - c0)
        self.spent += c1 - c0
        self._busy = False

    def run(self, seconds: float) -> None:
        """Run the reference for about ``seconds`` of elapsed time (at least once)."""
        stop = time.perf_counter() + seconds
        self._run_once()
        while time.perf_counter() < stop:
            self._run_once()

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._run_once()

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def clock(self) -> float:
        """``cpu_clock`` without the reference runs."""
        while True:
            spent = self.spent
            now = cpu_clock()
            if spent == self.spent:  # no reference run in between
                return now - spent

    def scale(self, start: float, end: float) -> float:
        """Factor from CPU seconds spent between ``start`` and ``end`` (elapsed
        time) to calibrated seconds."""
        lo = bisect.bisect_left(self.at, start - WINDOW)
        # The benchmark runs the reference once more after its last operation,
        # so an empty window means the process got no CPU for all of it; then
        # the next run after it stands in.
        hi = max(bisect.bisect_right(self.at, end + WINDOW), lo + 1)
        return REF_SECONDS / statistics.median(self.cpu[lo:hi])
