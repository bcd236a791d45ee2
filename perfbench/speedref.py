"""The machine's speed during each measured operation, from a fixed kernel.

The machine this benchmark runs on is shared, and its speed changes by
up to 1.8x within seconds: the same operation, repeated in one process,
takes anywhere from 0.7 s to 1.4 s.  Plain wall times then spread
between runs by more than a regression bound can allow.

``SpeedProbe`` times a fixed kernel -- small complex linear solves,
norms and matrix-vector products, the mix of numpy calls and Python
overhead that the tracker runs, with no tensorid code -- from a
``SIGALRM`` timer every ``INTERVAL`` seconds of wall time, in the
benchmark's one thread.  ``now()`` is ``time.perf_counter()`` minus the
time spent in the kernel, so the kernel never counts in a measured
time.  ``at_reference_speed(seconds, start, end)`` rescales a time
measured over the wall interval ``[start, end]`` by ``REFERENCE_S``
over the kernel's mean time in that interval: the time the same work
takes when the machine runs at the speed at which the kernel takes
``REFERENCE_S``, its usual speed on the machine that README.md
describes.  An interval too short to hold a sample uses the nearest one.

The rescaling takes out the changes of speed that the program and the
kernel share; what is left is the program's own cost.  README.md gives
the spreads with and without it.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05  # seconds of wall time between kernel samples
KERNEL_STEPS = 80  # ~2.3 ms per sample on the reference machine: ~4.5% of a run
REFERENCE_S = 0.0023  # the kernel's median time per sample on the reference machine

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8)) + 4 * np.eye(8)
_B = _rng.standard_normal(8) + 0j
_C = _rng.standard_normal((6, 8))


def kernel(steps=KERNEL_STEPS) -> float:
    """Fixed work: repeated 8x8 complex solves with small products in between."""
    x = _B
    acc = 0.0
    for _ in range(steps):
        x = np.linalg.solve(_A, x)
        x = x / np.linalg.norm(x)
        v = _C @ x
        acc += abs(v[0] * v[1] - v[2]) + float(np.abs(v).sum())
    return acc


class SpeedProbe:
    """Kernel samples ``(wall time, kernel seconds)`` taken on a timer."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # wall seconds inside the kernel, taken out of now()
        self._previous = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t
        self.samples.append((t, dt))
        self.spent += time.perf_counter() - t

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        if not self.samples:  # a run shorter than INTERVAL still gets one
            self._tick(None, None)

    def now(self) -> float:
        """perf_counter() without the time spent in the kernel so far."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:  # no sample was taken in between
                return t - spent

    def kernel_s(self, start, end) -> float:
        """Mean kernel time over the samples taken in the wall interval [start, end]."""
        inside = [dt for t, dt in self.samples if start <= t <= end]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return statistics.fmean(inside)

    def at_reference_speed(self, seconds, start, end) -> float:
        return seconds * REFERENCE_S / self.kernel_s(start, end)
