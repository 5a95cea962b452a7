"""Machine-speed calibration for a host whose CPU speed drifts.

On a shared host the same work can take 1.5x longer for seconds at a time.
The benchmark therefore times a fixed reference kernel next to the program
and expresses every measured time at the nominal speed: measured time x
NOMINAL_S / (kernel time measured around it).  The kernel is owned by the
benchmark and never calls the program, so no change to the program moves
it.  It does what the program's inner loops do: it builds small frozen
objects holding tuples of complex numbers, sorts them by a tuple key,
merges neighbours and sums magnitudes, so it slows down with the host in
the same proportion as the program does.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# the kernel's time on the reference machine (2 vCPU, Python 3.11.7) at its
# usual speed; scaled times read as seconds on that machine
NOMINAL_S = 2.5e-3
# kernel timings between operations are at least this far apart
TICK_S = 0.02


@dataclass(frozen=True)
class _Term:
    coeff: complex
    alpha: tuple
    kappa: tuple


def _key(t: _Term):
    k = t.kappa
    return (t.alpha, k[0].real, k[0].imag, k[1].real, k[1].imag,
            k[2].real, k[2].imag, k[3].real, k[3].imag)


_rng = random.Random(5)
_DATA = tuple(
    (complex(_rng.random(), _rng.random()),
     tuple(_rng.randrange(2) for _ in range(4)),
     tuple(complex(_rng.randrange(3), _rng.randrange(3)) for _ in range(4)))
    for _ in range(300)
)


def _kernel() -> float:
    total = 0.0
    for rep in range(4):
        terms = sorted((_Term(c * (rep + 1), a, k) for c, a, k in _DATA), key=_key)
        merged: list[_Term] = []
        for t in terms:
            if merged and merged[-1].alpha == t.alpha and merged[-1].kappa == t.kappa:
                merged[-1] = _Term(merged[-1].coeff + t.coeff, t.alpha, t.kappa)
            else:
                merged.append(t)
        total += sum(abs(t.coeff) for t in merged)
    return total


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


class SpeedLog:
    """Kernel timings around and during operations, and each operation's
    speed factor: NOMINAL_S times the mean of 1/kernel time over the timing
    taken just before it, those taken while it ran and the one just after.

    Timings between operations are taken at most every TICK_S.  With
    ``sample_s`` set, a SIGALRM timer also times the kernel every
    ``sample_s`` while an operation runs, so a long operation sees the speed
    changes inside it; that time is left out of the operation's latency.
    """

    def __init__(self, sample_s: float | None = None):
        self.sample_s = sample_s
        self.at: list[int] = []  # operations done when each between-timing was taken
        self.seconds: list[float] = []
        self.during: list[list[float]] = []  # timings taken inside each operation
        self.last_seconds = 0.0  # latency of the last operation, samples left out
        self._last = float("-inf")
        self._paused = 0.0
        if sample_s:
            signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.during[-1].append(kernel_seconds())
        self._paused += perf_counter() - t0

    def tick(self, ops_done: int, force: bool = False) -> None:
        """Time the kernel if TICK_S has passed since the last timing."""
        if force or perf_counter() - self._last >= TICK_S:
            if self.at and self.at[-1] == ops_done:
                return
            self.at.append(ops_done)
            self.seconds.append(kernel_seconds())
            self._last = perf_counter()

    @contextmanager
    def operation(self):
        """Time one operation; its latency is in ``last_seconds`` afterwards."""
        self.during.append([])
        self._paused = 0.0
        if self.sample_s:
            signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)
        t0 = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - t0
            if self.sample_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self.last_seconds = elapsed - self._paused

    def close(self) -> None:
        if self.sample_s:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factors(self, n_ops: int) -> list[float]:
        """Speed factor of operations 0 .. n_ops-1 (call after a final tick)."""
        out = []
        j = 0  # index of the last between-timing taken at or before each operation
        for i in range(n_ops):
            while j + 1 < len(self.at) and self.at[j + 1] <= i:
                j += 1
            after = j + 1 if j + 1 < len(self.at) else j
            timings = [self.seconds[j], *self.during[i], self.seconds[after]]
            out.append(NOMINAL_S * sum(1.0 / k for k in timings) / len(timings))
        return out
