"""Host speed, measured with a fixed reference kernel between timed samples.

On a shared machine the speed available to one process drifts by up to 2x
within minutes, so raw wall times of the same code spread far more than any
useful regression bound.  The benchmark therefore runs this kernel after
every timed sample, for a fixed share of that sample's time, and scales
the run's times by REFERENCE_KERNEL_S over the mean kernel time: the result
is the time at the reference machine's unloaded speed.  The kernel runs no
optbench code, so a change to optbench moves scaled times by the same share
as raw ones; the report keeps the raw times too.

Never edit the kernel or the constants: they define the unit of every
scaled time, and changing them breaks comparison with earlier results.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_ITERATIONS = 2000
# Median of reference_kernel() on the reference machine when unloaded
# (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6 with OpenBLAS).
REFERENCE_KERNEL_S = 0.0117
# Kernel time spent after each sample, as a share of the sample's time.
DUTY = 0.1


def reference_kernel() -> float:
    """Seconds taken by a fixed loop of the work on optbench's 2-D hot
    path: 2-element numpy operations and float arithmetic."""
    t0 = time.perf_counter()
    x = np.array([1.5, -0.5])
    acc = 0.0
    for i in range(REFERENCE_ITERATIONS):
        g = np.array([2.0 * x[0], 20.0 * x[1]])
        x = x - np.abs(x) * np.tanh(0.1 * g) * 0.3
        acc += float(np.linalg.norm(x)) + i * 0.5
    return time.perf_counter() - t0


class SpeedGauge:
    """Collects reference-kernel times over one benchmark run."""

    def __init__(self):
        self.kernel_s: list[float] = []

    def after(self, sample_s: float) -> None:
        """Run the kernel for DUTY times the sample just timed, at least once,
        so that the kernel times weight the run's phases by duration."""
        spent = 0.0
        while True:
            self.kernel_s.append(reference_kernel())
            spent += self.kernel_s[-1]
            if spent >= DUTY * sample_s:
                return

    def factor(self) -> float:
        """REFERENCE_KERNEL_S over the mean kernel time: below 1 when the
        host ran slower than the reference."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s)
