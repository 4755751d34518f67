"""Host speed, sampled by a fixed numpy kernel while a repetition runs.

On a shared host the same work can take from 1x to about 3x as long, in
phases that last from a fraction of a second to minutes (NOTES.md, "Host
speed"). While a repetition runs, a timer interrupts it every PERIOD_S and
times one short run of a reference kernel. The repetition's own time is
its measured time minus the kernel runs, and `scale` turns it into the time
the work would take on a host where one kernel run takes NOMINAL_S.

The kernel does the operations of one flow step on fixed arrays of the
flow's shape (2-D FFTs, the per-mode `einsum`, elementwise trigonometry and
reductions, a short Python loop) and imports nothing from torusfloer, so a
change to the program cannot change it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# One kernel run, between the program's steps, on the nominal host: a 2-vCPU
# Xeon KVM guest at its fastest. Scaled times then read close to the times
# that guest gives when nothing else slows it.
NOMINAL_S = 1.75e-3
ROUNDS = 5
PERIOD_S = 0.025  # interval between kernel runs during a repetition
SETUP_PERIOD_S = 0.01  # the set-up is short, so it is sampled more often

_rng = np.random.default_rng(0)
_Z = _rng.standard_normal((32, 32, 4))
_PROP = _rng.standard_normal((32, 32, 4, 4)) + 1j * _rng.standard_normal((32, 32, 4, 4))


# bound now, so that the spans tracing.py puts around these numpy functions miss the kernel
_fft2, _ifft2, _einsum = np.fft.fft2, np.fft.ifft2, np.einsum


def kernel() -> float:
    """Run the reference kernel once; return its value (a checksum)."""
    acc = 0.0
    for _ in range(ROUNDS):
        zhat = _fft2(_Z, axes=(0, 1))
        zhat = _einsum("abij,abj->abi", _PROP, zhat)
        v = _ifft2(zhat, axes=(0, 1)).real
        g = 0.1 * np.sin(v[:, :, :2]) + np.cos(v[:, :, 2:]) * v[:, :, :2]
        acc += float(np.mean(np.sum(g * g, axis=2)))
        for k in range(50):
            acc += k * 1e-12
    return acc


class Sampler:
    """Context manager that times one kernel run every `period` seconds of wall time.

    It takes one more sample on exit if the timer never fired.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.wall: list = []
        self.cpu: list = []

    def _sample(self, signum=None, frame=None) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        kernel()
        self.cpu.append(time.process_time() - cpu)
        self.wall.append(time.perf_counter() - wall)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.wall:
            self._sample()

    def scale(self) -> float:
        """NOMINAL_S over the mean kernel time: host speed relative to the nominal host."""
        return NOMINAL_S * len(self.wall) / sum(self.wall)
