"""Per-call time of the matrixcore kernels on seeded random operands.

Exact `@` and float `@` at dim in {16, 64, 256} (exact also at L in
{4, 8}); exact `scalar_mul` by a root of unity and by a general
cyclotomic scalar, `kron` and `mat_eq` at dim 64, L = 4.  Each kernel
is repeated for at least MIN_REPS calls and MIN_SECONDS, and the
median call is reported in milliseconds.

For exact `@` the operation count and bytes moved of the product
through the (dim*L)^2 embedding are given too.  They are computed from
the shapes, not measured (a CPU run has no roofline to read them from):
building the embedding costs 2 d^2 L^3 flops and the float64 GEMM
2 d^3 L^2; bytes count each float64 array read or written once.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from fqmrep.exactnum import CycNum
from fqmrep.matrixcore import OpMatrix, mat_eq

DIMS = (16, 64, 256)
BASIS = (4, 8)
MIN_REPS = 3
MIN_SECONDS = 0.1

METRICS = (
    [(f"sweep.matmul_exact.d{d}L{L}.{stat}", unit) for d in DIMS for L in BASIS
     for stat, unit in (("ms", "ms"), ("flop_computed", "flop"), ("bytes_computed", "B"))]
    + [(f"sweep.matmul_float.d{d}.ms", "ms") for d in DIMS]
    + [(f"sweep.{k}.d64L4.ms", "ms") for k in ("scalar_mul_root", "scalar_mul_general", "kron", "mat_eq")]
)


def _per_call_ms(fn) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def _exact(rng, dim: int, L: int) -> OpMatrix:
    coeffs = rng.integers(-1, 2, size=(dim, dim, L), dtype=np.int64)
    return OpMatrix(dim, "exact", coeffs=coeffs, order=2 * L)


def embedding_cost(d: int, L: int) -> tuple[int, int]:
    """(flops, bytes) of one exact d x d product with L coefficients per entry."""
    flops = 2 * d * d * L**3 + 2 * d**3 * L**2
    words = d * d * L + L**3 + 2 * (d * L) ** 2 + 2 * d * L * d
    return flops, 8 * words


def kernel_sweep(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    out = {}
    for d in DIMS:
        for L in BASIS:
            a, b = _exact(rng, d, L), _exact(rng, d, L)
            key = f"sweep.matmul_exact.d{d}L{L}"
            out[f"{key}.ms"] = _per_call_ms(lambda: a @ b)
            out[f"{key}.flop_computed"], out[f"{key}.bytes_computed"] = embedding_cost(d, L)
        fa, fb = (OpMatrix.from_complex(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                  for _ in range(2))
        out[f"sweep.matmul_float.d{d}.ms"] = _per_call_ms(lambda: fa @ fb)
    m = _exact(rng, 64, 4)
    root, general = CycNum.root(8, 3), CycNum(8, (1, -2, 3, 1))
    out["sweep.scalar_mul_root.d64L4.ms"] = _per_call_ms(lambda: m.scalar_mul(root))
    out["sweep.scalar_mul_general.d64L4.ms"] = _per_call_ms(lambda: m.scalar_mul(general))
    k1, k2 = _exact(rng, 8, 4), _exact(rng, 8, 4)
    out["sweep.kron.d64L4.ms"] = _per_call_ms(lambda: k1.kron(k2))
    twin = OpMatrix(64, "exact", coeffs=m.coeffs.copy(), order=8, scale_log2=m.scale_log2)
    out["sweep.mat_eq.d64L4.ms"] = _per_call_ms(lambda: mat_eq(m, twin))
    return out
