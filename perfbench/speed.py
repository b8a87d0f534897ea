"""Machine-speed reference for the end-to-end timings.

The benchmark runs on a few vCPUs of a shared host, whose speed as seen by
one process changes by up to about 3x in phases of seconds to minutes.  All
work slows together in such a phase, so a median within one run cannot
remove it.  So before the first sample and after each sample, the harness
times a fixed reference kernel.  A sample taken between reference timings ``k``
and ``k + 1`` is reported at reference speed:

    adjusted = raw * REFERENCE_NOMINAL_S / mean(reference timings k-1 .. k+2)

The four-timing window averages out the reference's own noise.  The kernel
mixes large-array numpy (an FFT round trip and a cubic on a 6 x 1024 array,
shapes like the package's pseudospectral batches), small-array numpy (a
32-mode loop) and pure Python (dict and string work, as in CSV writing).
Host phases slow these by different amounts, and the workloads mix them in
different shares, so the kernel takes about a third of each.  It uses no
code of the package, so a change to the package moves ``adjusted`` in
proportion to ``raw``.  ``REFERENCE_NOMINAL_S`` is a fixed constant, about
the kernel's time in a fast phase of the development machine, so adjusted
values read as seconds there.
Raw timings are kept in the run record next to the adjusted ones.

The kernel runs in one process, also for the two-worker studies.  Timing it
on both cores at once lowered the noise of study samples, but the two
copies slow each other by an amount that changes with the host's phase: in
a slow phase, adjusted medians came out 6-20% below those of a fast phase.
With one copy they stayed within 3%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_NOMINAL_S = 0.003
REFERENCE_REPEATS = 5
_GRID = np.random.default_rng(0).standard_normal((6, 1024))
_MODES = np.random.default_rng(1).standard_normal(32)


def _kernel():
    """About a third each of large-array numpy, small-array numpy and pure
    Python work, the three kinds the workloads spend their time on."""
    for _ in range(10):
        c = np.fft.irfft(np.fft.rfft(_GRID, axis=1), n=_GRID.shape[1], axis=1)
        c * c * c - c
    y = _MODES
    for _ in range(250):
        y = y + 0.001 * (y - y * y * y)
    counts = {}
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i * 0.5
    text = ",".join(repr(v) for v in counts.values())
    for _ in range(25):
        text.split(",")


def reference_s() -> float:
    """Median of ``REFERENCE_REPEATS`` timings of the reference kernel."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speed:
    """Reference timings, in the order they were taken."""

    def __init__(self):
        _kernel()  # warm-up
        self.references = [reference_s()]

    def measure(self):
        self.references.append(reference_s())

    def scale(self, k) -> float:
        """Factor that brings a sample taken between reference timings ``k``
        and ``k + 1`` to reference speed."""
        window = self.references[max(0, k - 1):k + 3]
        return REFERENCE_NOMINAL_S / (sum(window) / len(window))
