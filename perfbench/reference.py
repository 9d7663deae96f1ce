"""Machine-speed reference that benchmark times are scaled by.

On small shared machines the speed of a core changes by tens of percent
from one moment to the next (ten times the reference loop below took 2.3 ms
and 4.2 ms in alternation, while the same `run` of 2,205 points took 0.65 s
and 0.87 s), in CPU time as well as wall time. A reported time is therefore
scaled to a nominal machine: the reference loop runs right before and right
after a measured call, and every INTERVAL seconds during it, from a SIGALRM
handler in the same thread. The call's time, less the time those samples
took, is multiplied by REF_SECONDS / (mean sample time). Sampling during the
call, and not only at its edges, matters for calls longer than a few
reference periods: over 43 runs each of two kernel documents, the
IQR/median of the scaled times was 0.03-0.06 with samples inside the call
and 0.24-0.25 with the same samples at its edges only (0.09-0.14 with a
ten times longer reference at the edges, in another window).

The reference is pure Python of the same kind as dlw's hot path (small
objects, dual-number arithmetic, math calls, a dict), shares no code with
dlw, and must stay unchanged so that runs of different commits stay
comparable.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL = 5e-3
# Median reference time on a 2-core x86-64 container with CPython 3.11, in
# its fast state: scaled times read as seconds on that machine.
REF_SECONDS = 2.2e-4


class _Dual:
    __slots__ = ("value", "deriv")

    def __init__(self, value: float, deriv: float):
        self.value = value
        self.deriv = deriv

    def __add__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.value + other.value, self.deriv + other.deriv)

    def __mul__(self, other: "_Dual") -> "_Dual":
        return _Dual(
            self.value * other.value,
            self.value * other.deriv + self.deriv * other.value,
        )


def _tanh(arg: _Dual) -> _Dual:
    t = math.tanh(arg.value)
    return _Dual(t, (1.0 - t * t) * arg.deriv)


def _work() -> float:
    half, one = _Dual(0.5, 0.0), _Dual(1.0, 0.0)
    acc = 0.0
    seen = {}
    for i in range(150):
        y = _Dual(i * 1e-2, 1.0)
        v = _tanh(y * half + one) * y
        seen[i & 31] = (v.value, v.deriv)
        acc += v.value + math.exp(-v.deriv)
    return acc


def reference_seconds() -> float:
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(seconds: float, reference: float) -> float:
    """`seconds` measured next to a `reference` time, on the nominal machine."""
    return seconds * REF_SECONDS / reference


class Meter:
    """Times the block it guards, with reference samples around and in it.

    After the block, `seconds` is its wall time less the samples taken in
    it, and `scaled` is that time on the nominal machine. With
    `sample=False` the block is timed plainly and `scaled` is None.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.seconds = 0.0
        self.scaled: float | None = None
        self._samples: list[float] = []
        self._spent = 0.0

    def _take(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _work()
        self._samples.append(time.perf_counter() - start)
        self._spent += time.perf_counter() - start

    def __enter__(self) -> "Meter":
        self._samples = []
        if self.sample:
            self._take()
            # Left installed after the block: a signal still pending when the
            # timer is disarmed then adds one more sample instead of killing
            # the process, as the default SIGALRM action would.
            signal.signal(signal.SIGALRM, self._take)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._spent = 0.0  # the edge sample above lies outside the block
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.seconds = time.perf_counter() - self._start - self._spent
        if self.sample:
            self._take()
            self.scaled = scale(self.seconds, statistics.fmean(self._samples))
        return False
