"""Machine-speed reference for normalizing measured times.

On a shared virtual machine the same work takes tens of percent longer in
some minutes than in others.  The benchmark therefore times a fixed
kernel, independent of certsurv, in short slices after each measured
operation.  Each reported time is scaled by the kernel's reference slice
time over its mean slice time in the same interval: it reads as seconds on
a machine where one slice takes the reference time.

There are two kernels, each shaped like the work it stands in for.
``numpy`` runs small-array products and elementwise maps, like a training
step.  ``python`` runs a scalar loop over array elements, like the
per-record metric loops that dominate evaluation.  Measured on the 2-vCPU
VM the benchmark was built on, as the spread between quartiles of the
median work times of ten runs (seeds 0-9, 20 s each):

* train-sawar: 16% raw, 4% normalized by ``numpy``;
* train-pgd: 18% raw, 5% normalized by ``numpy``;
* eval-grid: 22% raw, 6% normalized by ``python``.

Within one process, the ``python`` kernel cut the eval-grid spread over
4-cycle blocks from 19% to 2%; the ``numpy`` kernel cut it only to 7%.
On train-*, the ``numpy`` kernel is the better one.  Over six runs per
workload (train-pgd then at 100 epochs) with both kernels interleaved
after every operation, the work times spread 23% raw on train-sawar, 17%
normalized by ``python`` and 6% by ``numpy``; on train-pgd, 27% raw, 9%
by ``python`` and 8% by ``numpy``.

Set-up times are normalized differently.  Set-up is interpreter start-up
and imports in a fresh process, and the machine's speed swings within
seconds, so each set-up probe is paired with the probe that follows it:
a fresh interpreter that imports numpy and exits (``interpreter_slice``).
Over the same six runs per workload, the median set-up time of nine
probes per run spread 25-27% between quartiles raw, 13-17% normalized by
``python`` slices after each probe, and 4-13% normalized pair by pair
(five probes: 8-11%).  With seven pairs per run, as run.py takes them,
the ten runs above spread 12-20% raw and 5.5-7% normalized.

A change to certsurv moves the measured operations but not the kernel, so
it moves the normalized figures by the same factor as the raw ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Median slice time of each kernel on the machine the benchmark was built
# on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4, OpenBLAS capped at one
# thread), so that normalized figures read close to raw seconds there.
REFERENCE_SLICE_S = {"numpy": 0.022, "python": 0.018}
# Kernel time spent after an operation, as a share of the operation's time.
SHARE = 0.1
# Median interpreter_slice() time on the same machine.
INTERPRETER_REFERENCE_S = 0.18
INTERPRETER_TIMEOUT_S = 60


def interpreter_slice() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=INTERPRETER_TIMEOUT_S)
    return time.monotonic() - t0


class SpeedProbe:
    """Times slices of one fixed kernel."""

    def __init__(self, kind: str):
        self.kind = kind
        self._run = {"numpy": self._numpy, "python": self._python}[kind]
        rng = np.random.default_rng(12345)
        self._A = rng.random((128, 50))
        self._W = rng.random((50, 50))
        self._b = rng.random(50)
        self._t = rng.random(100)
        self._e = (rng.random(100) < 0.5).astype(int)
        self.slices = []

    def _numpy(self) -> None:
        A, W, b = self._A, self._W, self._b
        for _ in range(270):
            Z = A @ W.T + b
            Z = np.where(Z >= 0.0, Z, 0.01 * Z)
            S = np.exp(-np.outer(Z[:, 0], b[:20])).mean(axis=0)
            [float(v) for v in S]

    def _python(self) -> None:
        t, e, s, g = self._t, self._e, self._b, self._A[:, 0] + 0.1
        total = 0.0
        for _ in range(600):
            for i in range(50):
                if e[i] == 1 and t[i] <= 0.5:
                    total += s[i] ** 2 / g[i]
                elif t[i] > 0.5:
                    total += (1.0 - s[i]) ** 2 / g[i]

    def slice(self) -> float:
        t0 = time.perf_counter()
        self._run()
        dt = time.perf_counter() - t0
        self.slices.append(dt)
        return dt

    def after(self, op_seconds: float) -> None:
        """Run slices worth SHARE of an operation's time (at least one)."""
        spent = self.slice()
        while spent < SHARE * op_seconds:
            spent += self.slice()

    def factor(self, start: int = 0) -> float:
        """Reference slice time over the mean of the slices since `start`."""
        recent = self.slices[start:]
        return REFERENCE_SLICE_S[self.kind] * len(recent) / sum(recent)
