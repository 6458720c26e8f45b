"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed swings by up to about 2x
over tens of seconds, while the process stays on its CPU the whole time:
its thread CPU time equals its wall time and the kernel reports almost no
steal, so neither CPU time nor a longer run removes the swing.

What does remove most of it is timing a fixed kernel next to the work.
The kernel does the kind of work anchorguard does (frozen dataclasses,
float math, scalar draws from a numpy ``Generator``) and is timed once
before each measured call and once after the last.  A call's times are
multiplied by ``(REF_KERNEL_MS / m) ** ELASTICITY``, where ``m`` is the
median kernel time of the samples around the call.  A reported time is
thus the time the call would have taken on a host where the kernel takes
``REF_KERNEL_MS``: it is still in ms, and it still moves one for one with
the package's own speed, since the factor depends on the kernel alone.
The raw wall figures are printed beside the scaled ones.

``ELASTICITY`` is below 1 because the package slows less than the kernel
when the host slows: on a 2-vCPU x86_64 VM whose kernel time swung
between 9 and 19 ms, fixed trials of both workloads slowed 1.5x to 1.75x,
and the slope of log(trial time) against log(kernel time), taken over
15 s windows of 6 to 10 minute runs, was 0.55 to 0.75 for every kernel
tried (interpreter-bound, allocation-bound and heap-walking ones alike).
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# About the kernel's time on that VM at its fastest.
REF_KERNEL_MS = 8.0
ELASTICITY = 0.7
KERNEL_STEPS = 5000
KERNEL_SEED = 20141117
# A call is scaled by the samples k - WINDOW + 1 .. k + WINDOW: the two
# that bracket it, so that a slow spell of a second or two scales the
# calls it slowed, and one more on either side, so that a single
# interrupted sample does not.
WINDOW = 2


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def kernel() -> float:
    """Fixed work; returns a checksum so that nothing is optimised away."""
    rng = np.random.default_rng(KERNEL_SEED)
    pts = [_Point(float(rng.uniform(0.0, 600.0)), float(rng.uniform(0.0, 600.0))) for _ in range(64)]
    acc = 0.0
    for k in range(KERNEL_STEPS):
        a = pts[k % 64]
        b = pts[(7 * k + 3) % 64]
        dx = b.x - a.x
        dy = b.y - a.y
        d = abs(math.hypot(dx, dy) + float(rng.normal(0.0, 0.5))) + 1.0
        fix = _Point(a.x + dx / d, a.y + dy / d)
        acc += math.sqrt(fix.x * fix.x + fix.y * fix.y)
    return acc


def kernel_ms() -> float:
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


class Calibration:
    """Kernel samples taken between calls, and the scale they give each call."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []

    def sample(self) -> None:
        self.samples_ms.append(kernel_ms())

    def scale(self, k: int) -> float:
        """Factor for the call made between samples ``k`` and ``k + 1``."""
        window = self.samples_ms[max(0, k - WINDOW + 1) : k + WINDOW + 1]
        return factor(statistics.median(window))

    def run_scale(self) -> float:
        """One factor for a whole run, from the median of all its samples."""
        return factor(statistics.median(self.samples_ms))


def factor(kernel_ms: float) -> float:
    """Multiplier taking a time measured while the kernel took ``kernel_ms``
    to the reference host."""
    return (REF_KERNEL_MS / kernel_ms) ** ELASTICITY
