"""A fixed reference computation that measures how fast the machine runs right now.

On a shared host the speed a process gets drifts, within seconds and in
spells of a minute or more: the same code runs up to 1.6 times faster or
slower.  The benchmark therefore runs :func:`kernel`, a fixed piece of
work, interleaved with the program: :class:`Sampler` runs it from a timer
signal every :data:`INTERVAL_S` of wall time, between two bytecodes of
whatever the program is doing.  A pass's time divided by the kernel's
mean time over :data:`REFERENCE_S` (its time at the reference speed)
reads as seconds at the reference speed.

The kernel never imports ``darcat``: a change to the program cannot
change it.  Its work mixes what ``darcat`` spends its time on -- pure
Python loops over tuples and dicts, object allocation, parsing and
writing rows of a series far larger than the CPU caches, scalar float
arithmetic, numpy calls and random draws on tiny arrays, and a pass over
an array -- so that it slows with the program when the host slows.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Median time of one kernel() call on the reference machine (2-vCPU
# x86_64 VM, Python 3.11.7, numpy 2.4.6, one thread).
REFERENCE_S = 0.0080
INTERVAL_S = 0.2  # wall time between two kernel() calls of a Sampler
SETUP_INTERVAL_S = 0.1  # set-up is short, so it is sampled more often

_rng = np.random.default_rng(12345)
_CODES = tuple(int(c) for c in _rng.integers(1, 4, size=3000))
_SMALL = _rng.random(3)
_PI = np.array([0.2, 0.3, 0.5])
_LARGE = _rng.random(20_000)
# rows of a long series file, far larger than the CPU caches; each kernel()
# call reads the next slice, so it misses the caches as long records do
_ROWS = [f"{t},{c}" for t, c in enumerate(_rng.integers(1, 4, size=100_000).tolist())]
_ROW_SLICE = 1500
_next_row = 0


def kernel() -> float:
    """One fixed unit of reference work; returns a checksum so nothing is optimised away."""
    # tuples and dicts: validation, transition counts and run lengths
    counts: dict[tuple[int, int], int] = {}
    prev = _CODES[0]
    runs = 1
    for c in _CODES[1:]:
        if not 1 <= c <= 3:
            raise ValueError(c)
        counts[prev, c] = counts.get((prev, c), 0) + 1
        runs += c != prev
        prev = c
    # object allocation: rows parsed into tuples and indexed
    rows = [(i, float(i), str(i)) for i in range(1500)]
    index = {r[2]: r for r in rows}
    # a slice of a large file's rows, parsed and written back out
    global _next_row
    start = _next_row
    _next_row = (start + _ROW_SLICE) % len(_ROWS)
    parsed = [int(row.partition(",")[2]) for row in _ROWS[start : start + _ROW_SLICE]]
    text = "".join(f"{t},{v}\n" for t, v in enumerate(parsed))
    # scalar floats: a bisection
    lo, hi = 0.0, 1.0
    for i in range(1500):
        mid = 0.5 * (lo + hi)
        if math.log1p(mid) - 0.3 - 1e-9 * (i % 5) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-12:
            lo, hi = 0.0, 1.0
    # numpy calls and random draws on tiny arrays: simulation and score equations
    acc = 0.0
    for i in range(300):
        a = 1e-3 * i
        acc += float(np.sum(_SMALL * (1.0 - a) / (a + (1.0 - a) * _SMALL)))
    gen = np.random.default_rng(7)
    for _ in range(60):
        acc += float(gen.choice(3, size=200, p=_PI).sum() + gen.random(200).sum())
    # one pass over an array
    acc += float(np.bincount((_LARGE * 10).astype(np.int64), minlength=10)[3] + np.cumsum(_LARGE)[-1])
    return acc + lo + runs + len(counts) + len(index) + len(text)


def slowdown(kernel_s: float) -> float:
    """How many times slower than the reference the machine ran, from a mean kernel() time."""
    return kernel_s / REFERENCE_S


class Sampler:
    """Times one kernel() call (:meth:`sample`) every :data:`INTERVAL_S` from a ``SIGALRM`` handler.

    ``busy_s`` is the total time spent in the handler and :meth:`clock`
    leaves it out; ``samples`` holds each call's time.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.busy_s += elapsed

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """``perf_counter()`` less the time spent in kernel calls: the program's own time."""
        busy = self.busy_s  # read first: a kernel call in between moves the clock on, never back
        return time.perf_counter() - busy

    def slowdown_since(self, first: int) -> float | None:
        """Slowdown over the samples from index ``first`` on; None if there are none."""
        recent = self.samples[first:]
        return slowdown(statistics.fmean(recent)) if recent else None
