"""Machine-speed sampler: scales wall times to a fixed reference speed.

On the small shared machines this benchmark runs on, the speed of the same
code drifts by +-25% over seconds to minutes (identical 1000-call batches of
``psd_project`` took 43..96 ms within 100 s; 20-second averages differed by
up to 24%).  A 20-second ``identify`` run therefore reads anywhere from 15
to 24 s, whatever the code does.

The sampler runs a small fixed calibration kernel (the benchmark's own code,
not the package's) from a SIGALRM handler every ``PERIOD_S``.  Each sample's
duration gives the machine's speed at that moment relative to
``CAL_REF_S``.  ``scale(t0, t1)`` returns the wall time of an interval minus
the calibration time inside it, and that time multiplied by the mean
relative speed over the interval widened by ``WINDOW_S`` on each side: the
time the interval would have taken at the reference speed.  Handlers run
between bytecodes, so a sample lands within one numpy call (microseconds
here) of its tick; the calibration costs ~0.8% of the run.

Over ten ``readme-strict`` runs whose raw pipeline times spread 0.154
(interquartile range over median), the scaled times spread 0.023.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.05
# calibration duration at the reference speed: about its median on the machine
# the benchmark was tuned on (2-vCPU x86-64 VM, OpenBLAS 0.3.31, one thread)
CAL_REF_S = 180e-6
WINDOW_S = 0.5  # samples this close to an interval also count for its speed

_rng = np.random.default_rng(12345)
_S = _rng.standard_normal((16, 16))
_ROW = _rng.standard_normal(60).tolist()


def calibrate() -> None:
    """A PSD projection of a 16x16 matrix, then a 60-value CSV row, twice.

    The mix of a small LAPACK call, numpy call overhead and float formatting
    tracked the package's own slowdowns best among the kernels tried; the
    machine's slow phases slow interpreter-bound code (the short commands,
    CSV writing) more than numpy-bound code.  Coefficient of variation of
    repeated runs, raw -> scaled by this kernel (by the projection alone, done
    three times, in brackets): 14 ``identify`` runs 15% -> 1.9% (3.1%); 14
    dense ``validate`` runs 9.1% -> 4.9% (5.2%).  Medians of 10-second windows
    of the short ``readme-strict`` commands, repeated for 240 s, spread
    (interquartile range over median) ``validate`` 0.20 -> 0.014 (0.077),
    ``simulate`` 0.22 -> 0.052 (0.104).  Formatting alone, a 4 MB array sum
    and 12 complex 8x8 solves did worse on at least one of these.
    """
    w, v = np.linalg.eigh(0.5 * (_S + _S.T))
    out = (v * np.maximum(w, 0.0)) @ v.T
    0.5 * (out + out.T)
    for _ in range(2):
        ",".join(f"{x:.12e}" for x in _ROW)


class SpeedSampler:
    """Context manager sampling the machine speed while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.spent: list[float] = []  # handler time, taken out of the timed work
        self.durations: list[float] = []  # the timed, warm calibration
        self._old = None

    def _tick(self, signum, frame) -> None:
        # the first call refills the caches the interrupted work evicted, so
        # the timed one sees the machine's speed, not the program's footprint
        t0 = time.perf_counter()
        calibrate()
        t1 = time.perf_counter()
        calibrate()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.spent.append(t2 - t0)
        self.durations.append(t2 - t1)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def __enter__(self) -> "SpeedSampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self.resume()
        return self

    def __exit__(self, *exc) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds without calibration, seconds at the reference speed)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        wall = t1 - t0 - sum(self.spent[lo:hi])
        # a short command holds few samples or none: widen to its neighbours
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_left(self.starts, t1 + WINDOW_S)
        if hi <= lo:
            return wall, wall
        speed = sum(CAL_REF_S / d for d in self.durations[lo:hi]) / (hi - lo)
        return wall, wall * speed
