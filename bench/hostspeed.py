"""How fast the host runs at the moment, so that timings can hold still.

On a shared host, other tenants slow the processor itself.  On the 2-vCPU
host this benchmark was written on, one simulator pair on identical inputs
took from 0.93 s to 1.96 s within 90 s, with its CPU time equal to its wall
time and no steal time.  The slowdown comes and goes within tenths of a
second, and differs between the two CPUs.  Neither wall time nor CPU time
can then resolve a regression of 25%.

So the benchmark samples the host's *slowness* many times a second on each
CPU it uses, and divides every timing by the slowness of the stretch it was
measured in.  A sample times a short fixed *reference loop* and divides by
:data:`REFERENCE_S`, the loop's time on the quiet host.  The loop is a small
cache simulation in plain Python, close in kind to the program (interpreted
dict, list and heap work) and never changed by it.  A timing metric is then
the time the work would have taken at the reference speed.

Samples are taken where they cannot delay the measured work: the simulator
workloads take them on a timer signal and subtract the time spent
(:class:`TimerSamples`); the service workloads take them while every caller
waits with no call in flight (``svcwork``).

With two CPUs or more the bench process keeps the first CPU and a server
process gets the second (:meth:`HostSpeed.pin`), so that each side's
slowness is measured on the CPU it runs on.
"""

from __future__ import annotations

import heapq
import os
import random
import signal
from time import perf_counter as clock

#: the reference loop's time on the quiet host (2-vCPU Intel Xeon, Python
#: 3.11); a different host changes every adjusted timing by one constant
#: factor, which cancels when two commits are compared on it
REFERENCE_S = 0.0011


class _Set:
    """One LRU set: tag -> time of last use."""

    __slots__ = ("tags", "stamp")

    def __init__(self):
        self.tags = {}
        self.stamp = 0

    def access(self, tag: int, ways: int) -> bool:
        self.stamp += 1
        tags = self.tags
        if tag in tags:
            tags[tag] = self.stamp
            return True
        if len(tags) >= ways:
            del tags[min(tags, key=tags.get)]
        tags[tag] = self.stamp
        return False


class _Cache:
    def __init__(self, sets: int, ways: int):
        self.sets = [_Set() for _ in range(sets)]
        self.mask = sets - 1
        self.ways = ways
        self.hits = 0

    def access(self, addr: int) -> bool:
        line = addr >> 6
        hit = self.sets[line & self.mask].access(line >> 8, self.ways)
        self.hits += hit
        return hit


class ReferenceLoop:
    """Four cores replaying a fixed address stream through two cache levels.

    The caches persist between passes and the stream is the same each
    pass, so after the warm-up every pass does the same work.
    """

    REFS = 600
    CORES = 4

    def __init__(self, warmup: int = 20):
        rng = random.Random(11)
        self.addrs = [(rng.randrange(1 << 22) if rng.random() < 0.7
                       else rng.randrange(1 << 28)) << 6
                      for _ in range(self.REFS)]
        self.gaps = [rng.randrange(8) for _ in range(self.REFS)]
        self.l1 = _Cache(64, 4)
        self.l2 = _Cache(8192, 8)
        for _ in range(warmup):
            self._pass()

    def _pass(self) -> int:
        l1, l2 = self.l1, self.l2
        addrs, gaps = self.addrs, self.gaps
        share = self.REFS // self.CORES
        idx = [c * share for c in range(self.CORES)]
        heap = [(0, c) for c in range(self.CORES)]
        heapq.heapify(heap)
        total = 0
        while heap:
            t, c = heapq.heappop(heap)
            i = idx[c]
            t += gaps[i]
            if not l1.access(addrs[i]):
                t += 10 if l2.access(addrs[i]) else 200
            t += 1
            total += t & 7
            idx[c] = i = i + 1
            if i < (c + 1) * share:
                heapq.heappush(heap, (t, c))
        return total

    def seconds(self) -> float:
        """Host seconds of one pass."""
        t0 = clock()
        self._pass()
        return clock() - t0


def _allowed_cpus() -> list:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux: no pinning
        return []


def _set_cpu(pid: int, cpu) -> None:
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


class HostSpeed:
    """The host's slowness on the CPUs of the bench and server processes.

    Creating one pins the calling process to the first allowed CPU.
    """

    def __init__(self):
        cpus = _allowed_cpus()
        self.bench_cpu = cpus[0] if cpus else None
        self.server_cpu = cpus[1] if len(cpus) > 1 else self.bench_cpu
        _set_cpu(0, self.bench_cpu)
        self._loop = ReferenceLoop()

    def pin(self, pid: int) -> None:
        """Keep process ``pid`` (a server) on the server CPU."""
        _set_cpu(pid, self.server_cpu)

    def slowness(self, server: bool = False) -> float:
        """One sample: the reference loop's time now ÷ REFERENCE_S, on the
        bench CPU or, with ``server``, on the server CPU."""
        if not server or self.server_cpu == self.bench_cpu:
            return self._loop.seconds() / REFERENCE_S
        _set_cpu(0, self.server_cpu)
        try:
            return self._loop.seconds() / REFERENCE_S
        finally:
            _set_cpu(0, self.bench_cpu)


class TimerSamples:
    """Samples of this process's CPU taken every ``interval`` seconds on
    SIGALRM.

    Python runs the handler between two bytecodes of the main thread, so
    samples land in the middle of the work.  ``spent`` is the time the
    handler took, to be subtracted from the work's wall and CPU time.
    Use as a context manager around the measured work; an ``interval``
    of 0 takes no samples.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.count = 0
        self.total = 0.0
        self.spent = 0.0
        self._previous = None
        # a loop of its own: the handler may interrupt a HostSpeed sample
        self._loop = ReferenceLoop()
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that came while the last one ran
            return
        self._busy = True
        t0 = clock()
        self.total += self._loop.seconds() / REFERENCE_S
        self.count += 1
        self.spent += clock() - t0
        self._busy = False

    def reading(self) -> tuple:
        """(samples, sum of their slowness, seconds spent) so far."""
        return self.count, self.total, self.spent

    def __enter__(self) -> "TimerSamples":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
