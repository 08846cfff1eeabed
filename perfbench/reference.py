"""Fixed pieces of reference work that never call dorsalhash.

The host's speed moves during a run and from run to run (see README.md,
"Host adjustment").  The runner times these kernels between the workload's
set-ups and steps, about four times a second, and divides each phase's
times by the host's slowdown during that phase, so that a slow host phase,
which slows both, cancels.  A change to dorsalhash cannot move the kernels'
times.

The host slows two kinds of work by different amounts, so there are two
kernels:

- ``stream`` passes over arrays larger than the per-core cache, so it reads
  the memory bandwidth that the other tenants leave;
- ``interp`` is a plain interpreter loop.

Each workload names the kernels that match what its units spend their time
on (``Workload.unit_reference``); set-ups, which build arrays, use
``stream``.  A phase's slowdown is the geometric mean over its kernels of
each kernel's 10th-percentile time in that phase divided by its time on the
reference box.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

EVERY_S = 0.25
REPEATS = 3
STREAM_WORDS = 1 << 20  # two 8 MiB arrays
# Each kernel's 10th-percentile time on the reference box, so that adjusted
# times read in seconds of that box at its usual speed.
NOMINAL_S = {"stream": 0.00245, "interp": 0.00175}


def _interp() -> int:
    total = 0
    for i in range(30000):
        total += (i * i) % 7
    return total


class Reference:
    def __init__(self):
        self.src = np.linspace(0.0, 1.0, STREAM_WORDS)
        self.dst = np.empty_like(self.src)
        self.kernels = {"stream": self._stream, "interp": _interp}
        # phase -> kernel -> times
        self.samples: dict[str, dict[str, list[float]]] = {}
        self.phase = None
        self.last = float("-inf")

    def _stream(self) -> None:
        for _ in range(4):
            np.multiply(self.src, 1.0001, out=self.dst)

    def start(self, phase: str) -> None:
        """Attribute the following samples to `phase`, and take one."""
        self.phase = phase
        self.samples[phase] = {name: [] for name in self.kernels}
        self.sample()

    def sample(self) -> None:
        for _ in range(REPEATS):
            for name, kernel in self.kernels.items():
                t0 = perf_counter()
                kernel()
                self.samples[self.phase][name].append(perf_counter() - t0)
        self.last = perf_counter()

    def maybe_sample(self) -> None:
        """Sample if the last sample is at least EVERY_S old."""
        if perf_counter() - self.last >= EVERY_S:
            self.sample()

    def p10_s(self, phase: str, kernel: str) -> float:
        return percentile(self.samples[phase][kernel], 10)

    def slowdown(self, phase: str, kernels) -> float:
        """How much slower the host ran `kernels` during `phase` than the
        reference box did."""
        logs = [math.log(self.p10_s(phase, k) / NOMINAL_S[k]) for k in kernels]
        return math.exp(sum(logs) / len(logs))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]
