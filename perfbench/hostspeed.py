"""Host-speed normalisation of measured op times.

On a shared host the speed of one core flips between states up to 1.8x
apart, within a fraction of a second and over minutes, while a benchmark
run lasts 30 s.  Raw times would measure the host's state as much as the
program.  A ``Clock`` therefore times a fixed reference kernel right
after every op, and every ``EVERY_S`` seconds from a SIGALRM handler, so
samples land next to short ops and inside long ones.  The handler's time
is taken out of every op it interrupts, and each op is rescaled to the
host speed the kernel showed while it ran:

    normalised = raw * mean(REF_KERNEL_S / kernel seconds near the op)

The kernel is written here and shares no code with circmd, so any change
to circmd moves the normalised times exactly as it moves the raw ones;
only the host's speed is divided out.  It does what circmd's inner loops
do (tuple keys into a dict, list indexing modulo n, small-int arithmetic,
method calls and recursion), because a kernel with another instruction
mix tracks the host's slow states less closely.  The raw times are kept
beside the normalised ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Seconds of one kernel call at which normalised times are expressed: a
# typical kernel time on the machine the bounds in BENCHMARK.json were set
# on (2 vCPUs of a shared Intel Xeon host, Python 3.11), where it ran in
# 1.1 to 2.0 ms.
REF_KERNEL_S = 0.0015

# Seconds between timer samples (each takes about 1.5 ms), and samples
# used on each side of an op, beyond those inside it.
EVERY_S = 0.025
NEIGHBOURS = 1

_N = 89
_ROW = [min(d, _N - d) for d in range(_N)]


def _refine() -> int:
    """Partition refinement: tuple keys into a dict, list indexing mod n."""
    labels = [0] * _N
    for x in range(27):
        keys: dict = {}
        new = [0] * _N
        for v in range(_N):
            new[v] = keys.setdefault((labels[v], _ROW[(v - x) % _N]), len(keys))
        labels = new if len(keys) < _N // 2 else [0] * _N
    return len(keys)


def _arith() -> int:
    """Small-int arithmetic over a list."""
    acc = 0
    for _ in range(45):
        for v in range(_N):
            acc = (acc * 31 + _ROW[v] + v) & 0xFFFFF
    return acc


class _Stack:
    __slots__ = ("depth", "chosen")

    def __init__(self):
        self.depth = 0
        self.chosen: list[int] = []

    def push(self, x: int) -> None:
        self.chosen.append(x)
        self.depth += 1

    def pop(self) -> None:
        self.chosen.pop()
        self.depth -= 1

    def allows(self, x: int) -> bool:
        return x % 3 != 0 or self.depth < 2


def _backtrack() -> int:
    """Recursive enumeration of 4-subsets of 14 through method calls."""
    stack = _Stack()

    def extend(start: int, left: int) -> int:
        if left == 0:
            return 1
        found = 0
        for x in range(start, 14):
            if stack.allows(x):
                stack.push(x)
                found += extend(x + 1, left - 1)
                stack.pop()
        return found

    return extend(0, 4)


def kernel() -> int:
    """A fixed amount of work: 0.4 of its time in dict and tuple work, 0.3
    in int arithmetic and 0.3 in calls.  In that mix its slowdown on a
    loaded host is within 10% of that of every circmd op the workloads
    time; dict work alone overstates it and arithmetic alone understates
    it."""
    return _refine() + _arith() + _backtrack()


def _mean_scale(kernel_s: list) -> float:
    """Mean of REF_KERNEL_S / kernel seconds, dropping the highest and the
    lowest tenth once there are ten samples; the median below that."""
    scales = sorted(REF_KERNEL_S / s for s in kernel_s)
    if len(scales) < 10:
        return statistics.median(scales)
    cut = len(scales) // 10
    return statistics.fmean(scales[cut:len(scales) - cut])


class Clock:
    """A context that samples the kernel while it is open and times ops;
    after it closes, ``scaled`` gives each op's normalised time.

    Not re-entrant, and it owns SIGALRM while open.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of kernel runs
        self.ops: list[tuple[float, float]] = []  # (start, end) of ops
        self._busy = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))
        self._busy = False

    def __enter__(self):
        for _ in range(NEIGHBOURS):
            self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(NEIGHBOURS):
            self._tick()

    def op(self, fn, *args):
        """Run one op; (output, raw seconds without kernel samples).  A
        raising op is recorded too, so op indices match the caller's."""
        first = len(self.samples)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            t1 = time.perf_counter()
            self.ops.append((t0, t1))
        paused = sum(min(e, t1) - max(s, t0) for s, e in self.samples[first:]
                     if s < t1 and e > t0)
        self._tick()
        return out, t1 - t0 - paused

    def scales(self) -> list[float]:
        """The mean host-speed factor over each op: from the samples inside
        it and NEIGHBOURS on either side."""
        starts = [s for s, _ in self.samples]
        out = []
        for t0, t1 in self.ops:
            lo = max(0, bisect.bisect_left(starts, t0) - NEIGHBOURS)
            hi = bisect.bisect_left(starts, t1) + NEIGHBOURS
            out.append(_mean_scale([e - s for s, e in self.samples[lo:hi]]))
        return out

    def scaled(self, raw: list) -> list:
        """Normalised times of ops timed by this clock; None stays None."""
        return [None if t is None else t * s for t, s in zip(raw, self.scales())]

    def kernel_s(self) -> float:
        """Seconds spent in kernel samples."""
        return sum(e - s for s, e in self.samples)

    def slowdown(self) -> float:
        """Median kernel time over REF_KERNEL_S: how slow the host ran."""
        return statistics.median(e - s for s, e in self.samples) / REF_KERNEL_S
