"""Host-speed probe, sampled while the job runs.

The benchmark's box is a shared VM whose speed drifts by tens of percent
over seconds to minutes, with CPU time tracking wall time: the same code
takes longer when the host is busy, whatever the program does.  The probe
measures that drift in the same process and over the same seconds as the
job.  A ``SIGALRM`` timer interrupts the job every ``PERIOD_S`` seconds and
runs a fixed kernel of the benchmark's own code (numpy and scipy only, no
lcoupler): ``solve_ivp`` on an 8-level Schroedinger equation, as the
transfer dynamics run it, and a Python loop of small complex
matrix-vector products, as the circuit executor makes them.  The kernel's
time is taken out of the job's time, and the run's median kernel time
gives the host's speed against ``REFERENCE_KERNEL_S``, the kernel's median
on the development box.

The small kernel stays in cache and gains or loses more than the jobs do
when the host's load changes: over 30 runs on the development box the
jobs' times went as the kernel's to the power 0.83 (``sweep``), 0.65
(``link``) and 0.63 (``rb``).  ``speed`` applies the one power
``ELASTICITY`` to all three.

Python runs a signal handler between bytecodes of the main thread, so a
tick waits for the numpy or BLAS call in progress; the kernel touches no
state of the program (its arrays are its own, its generator is seeded
apart from numpy's global one).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

PERIOD_S = 0.5
# median kernel time on the development box (2 vCPUs of a shared VM,
# numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31 on one thread)
REFERENCE_KERNEL_S = 0.030
# how a job's time follows the kernel's: time ~ kernel_time ** ELASTICITY
ELASTICITY = 0.7

_rng = np.random.default_rng(20250215)
_H = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_H = 0.05 * (_H + _H.conj().T)
_PSI0 = np.eye(8, dtype=complex)[:, 0]


def _rhs(t: float, psi: np.ndarray) -> np.ndarray:
    return (-1j * np.cos(t)) * (_H @ psi)


def kernel() -> float:
    """The fixed work the probe times; returns a number so it is not dead."""
    y = solve_ivp(_rhs, (0.0, 40.0), _PSI0, rtol=1e-8, atol=1e-10).y[:, -1]
    psi = _PSI0.copy()
    for k in range(1000):
        psi = psi - 1j * np.cos(0.01 * k) * (_H @ psi)
        psi = psi / np.sqrt(np.vdot(psi, psi).real)
    return float(abs(y[0]) + abs(psi[0]))


class Probe:
    """Times ``kernel`` every ``PERIOD_S`` seconds between ``start`` and
    ``stop`` and remembers when each sample ran."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        kernel()
        self.intervals.append((begin, time.perf_counter()))

    def start(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        # a tick already pending must not meet the default action, which
        # ends the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        if not self.intervals:  # a job shorter than one period
            self._tick(signal.SIGALRM, None)

    def time_in(self, begin: float, end: float) -> float:
        """Seconds the probe took between two ``perf_counter`` readings."""
        return sum(b - a for a, b in self.intervals if begin <= a and b <= end)

    def samples(self) -> list[float]:
        return [b - a for a, b in self.intervals]

    def speed(self) -> float:
        """The factor that turns this run's times into times at the
        development box's speed: below 1 on a slower host."""
        return (REFERENCE_KERNEL_S / statistics.median(self.samples())) ** ELASTICITY
