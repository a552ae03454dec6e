"""Host-speed sampling, so run times compare across a shared host's phases.

On a shared virtual machine the vCPUs are, for seconds to minutes at a
time, descheduled (wall time grows, CPU time does not) or slowed (both
grow, by up to 2x).  The benchmark therefore times runs in process CPU
seconds, which removes the first kind, and divides them by the host's
slowdown during the run, which removes most of the second.

:class:`HostSpeed` measures that slowdown by timing :func:`reference_kernel`,
a fixed pure-Python event loop that uses no program code, with the sampling
thread's own CPU clock: five times before and after the run and, during it,
every ``INTERVAL`` -- in a ``SIGPROF`` handler on the simulating thread for
the single-threaded workloads, in a sampling thread for the threaded one
(whose main thread only waits in ``join``).  The slowdown is the mean sample
over ``REFERENCE_SECONDS``.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import threading
import time

__all__ = ["HostSpeed", "reference_kernel", "REFERENCE_SECONDS"]

#: seconds between samples (process CPU time for the signal, wall time for
#: the sampling thread)
INTERVAL = 0.05
#: samples taken right before and right after a run
BRACKET = 5
#: :func:`reference_kernel` duration at the reference speed (the fast phase
#: of a 2-vCPU cloud VM); only scales the normalised times
REFERENCE_SECONDS = 0.0009
_STEPS = 1500


def _worker(steps: int, table: dict):
    for i in range(steps):
        table[i % 17] = table.get(i % 13, 0) + 1
        yield 0.001 * ((i * 7) % 5), [i]


def reference_kernel(steps: int = _STEPS) -> int:
    """A small generator-driven event loop: heap, dict and allocation work
    in the proportions a discrete-event simulation has."""
    table: dict = {}
    heap = []
    seq = 0
    for _ in range(8):
        heap.append((0.0, seq, _worker(steps // 8, table)))
        seq += 1
    heapq.heapify(heap)
    while heap:
        now, _seq, gen = heapq.heappop(heap)
        try:
            delay, _payload = next(gen)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, seq, gen))
        seq += 1
    return seq


class HostSpeed:
    """Context manager sampling the host speed around and during one run."""

    def __init__(self, threaded: bool = False) -> None:
        #: samples taken inside the run (their time is part of its wall time)
        self.samples = []
        #: samples taken just before and after the run
        self.bracket = []
        self._threaded = threaded
        self._previous = None
        self._stop = threading.Event()
        self._sampler = None

    def _sample(self, _signum, _frame, into=None) -> None:
        # keep the collector out of the sample
        collecting = gc.isenabled()
        gc.disable()
        try:
            # CPU time of this thread: a wait for the interpreter lock
            # does not count, a slow CPU does
            start = time.thread_time()
            reference_kernel()
            (self.samples if into is None else into).append(
                time.thread_time() - start
            )
        finally:
            if collecting:
                gc.enable()

    def calibrate(self) -> None:
        """Take ``BRACKET`` samples now, outside any run."""
        for _ in range(BRACKET):
            self._sample(None, None, self.bracket)

    def __enter__(self) -> "HostSpeed":
        self.calibrate()
        if self._threaded:
            self._sampler = threading.Thread(target=self._sample_loop)
            self._sampler.start()
        else:
            self._previous = signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def _sample_loop(self) -> None:
        while not self._stop.wait(INTERVAL):
            self._sample(None, None)

    def __exit__(self, *exc) -> None:
        if self._threaded:
            self._stop.set()
            self._sampler.join()
        else:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, self._previous)
        self.calibrate()

    def slowdown(self) -> float:
        """Mean sample over the reference: how much slower than the
        reference speed the host ran."""
        return statistics.mean(self.samples + self.bracket) / REFERENCE_SECONDS

    def normalise(self, seconds: float) -> float:
        """``seconds`` of the run (which contained the in-run samples) at
        the reference speed."""
        return (seconds - sum(self.samples)) / self.slowdown()
