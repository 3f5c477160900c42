"""Host-speed calibration, so that timings survive a shared host's drift.

On the shared 2-core host where this benchmark was defined, the same CPU
work ran up to 2x faster or slower from one few-second stretch to the next
(2 s medians of one fixed build: 51 to 96 ms within a minute), alike for
every kind of work.  A calibration pass times a fixed mix of the kinds of
work lclab does, none of it lclab's code.  Measured times are divided by the
mean of the passes taken around and during them and multiplied by
REFERENCE_S, giving "reference seconds": the time the work would take with
the host at the speed it usually ran at there.
"""

from __future__ import annotations

import math
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Median time of one calibration pass on that host, over 40 s of passes.
REFERENCE_S = 0.0063
# Interval between passes while a command runs; each costs ~3% of it.
SAMPLE_INTERVAL_S = 0.25

_INTS = [3 ** (1500 + 7 * i) for i in range(20)]
_STREAM = [7 ** 700 + i for i in range(5000)]  # kept for the process's life


def calibration_pass() -> float:
    """Seconds for one pass: allocating bigints, streaming over a few
    thousand of them, bigint products, gcds, Fraction sums and int/str
    conversion."""
    t = perf_counter()
    fresh = [v + 1 for v in _STREAM[:1000]]
    acc = 0
    for i, v in enumerate(_STREAM):
        acc += v * (i & 255)
    for a in _INTS:
        for b in _INTS:
            acc += a * b
    for a, b in zip(_INTS, fresh[::50]):
        acc += math.gcd(a + 1, b)
    f = Fraction(0)
    for k in range(1, 40):
        f += Fraction(k, k + 1)
    for v in _INTS[:4]:
        acc += int(str(v))
    return perf_counter() - t


def calibrate() -> float:
    """Median of three passes."""
    return sorted(calibration_pass() for _ in range(3))[1]


class Sampler:
    """Context that times its body and runs a calibration pass every
    SAMPLE_INTERVAL_S inside it.

    Passes run from a SIGALRM handler in the main thread, between bytecodes
    of the body; `elapsed` includes them and `passes` lists their times.
    on_pass(seconds) lets a tracer exclude them from the span they interrupt.
    """

    def __init__(self, on_pass=None):
        self.passes: list[float] = []
        self.elapsed = 0.0
        self._on_pass = on_pass

    def _handle(self, signum, frame):
        d = calibration_pass()
        self.passes.append(d)
        if self._on_pass is not None:
            self._on_pass(d)

    def __enter__(self):
        self.passes = []
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        return False


def scale(around: list[float], passes: list[float]) -> float:
    """Factor from measured to reference seconds."""
    return REFERENCE_S / statistics.mean(around + passes)
