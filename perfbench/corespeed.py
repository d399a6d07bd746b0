"""Core-speed correction for body times.

On a shared host the speed of the core the benchmark runs on can swing
by 30 % within seconds, so raw wall times of the same work spread far
wider than the bounds a regression check needs.  While a body runs, a
SIGALRM handler times a fixed calibration kernel (interpreter loop plus
a small matmul, the same mix as featprior's hot loops) every
``INTERVAL_S``.  The kernel takes ``REFERENCE_S`` on the reference core;
``corrected`` scales the body's own time (kernel time removed) by the
time-weighted mean of ``REFERENCE_S / sample``, i.e. to seconds on a
core running at the reference speed.  In a traced body ``listener``
receives each kernel time, so the tracer can keep it out of the spans.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
REFERENCE_S = 2e-4


class CoreSpeed:
    def __init__(self):
        self._matrix = np.random.default_rng(0).random((32, 32))
        self.samples: list[float] = []
        self.listener = None

    def _kernel(self, *_signal_args) -> None:
        a = self._matrix
        start = time.perf_counter()
        for _ in range(40):
            float((a @ a)[0, 0]) + sum(range(50))
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        if self.listener is not None:
            self.listener(elapsed)

    @contextlib.contextmanager
    def sampling(self):
        """Samples the kernel once before, every INTERVAL_S during, and
        once after the block."""
        self.samples = []
        self._kernel()
        previous = signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._kernel()

    def factor(self) -> float:
        """Reference seconds per second during the sampled block."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)

    def corrected(self, elapsed: float) -> float:
        """``elapsed`` seconds of the sampled block, less the kernel time
        spent inside it, at the reference core speed."""
        return (elapsed - sum(self.samples[1:-1])) * self.factor()
