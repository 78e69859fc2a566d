"""Fixed reference work that tracks how fast the machine runs right now.

On a shared box the same pass can take 1.6x longer a quarter of an hour
later.  On the 2-vCPU x86-64 VM the benchmark was defined on, the CPU
flips between a fast and a slow state (this work takes 12.7 or 18.4 ms)
on scales from tenths of a second to minutes, and pass times and
process set-up times follow.  run.py times this work in blocks between
the things it measures and scales each time metric by REFERENCE_S /
(mean reference time in the run), so a metric reads in seconds at the
speed the machine had when REFERENCE_S was measured.  Of the scalings
tried on six seeds per workload (none, median, mean, per pass), the
mean cut the run-to-run spread of wall_s the most.

The work mixes the kinds the workloads do: an interpreted loop, small
numpy calls and a float64 GEMM.  It never calls fqmrep, so no change to
the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

# mean of reference_work() in the slow state of that VM (Python 3.11,
# numpy 2.4, OpenBLAS with one thread); fixed for good, since every
# recorded time metric is scaled by it
REFERENCE_S = 0.0185
MIN_BLOCK = 4

_rng = np.random.default_rng(0)
_GEMM = _rng.standard_normal((96, 96))
_SMALL = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))


def reference_work() -> float:
    """Run the fixed work once and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    for _ in range(30):
        _GEMM @ _GEMM
    for _ in range(200):
        np.abs(_SMALL).max()
        np.einsum("ij,jk->ik", _SMALL[:8, :8], _SMALL[:8, :8])
    return time.perf_counter() - t0


def reference_block(seconds: float) -> list[float]:
    """Times of reference_work() repeated for `seconds`, and at least MIN_BLOCK times."""
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_BLOCK or time.perf_counter() - start < seconds:
        samples.append(reference_work())
    return samples
