"""Finite Heisenberg-Weyl group representations on C^N.

The group has generators x, y, z with x^N = y^N = z^N = e and
yx = zxy.  For N = 2^n a faithful irreducible representation exists
for every odd p and acts by

    Gamma^p(z^m x^r y^s)_{kj} = omega^{p m} omega^{p k r} [j = k + s],

with omega = exp(2 pi i / N).  The clock/shift pair is Q = Gamma^p(x)
(diagonal) and P = Gamma^p(y^{-1}) (P|j> = |j+1>); the matrix usually
written as the shift with ones above the diagonal is Gamma^p(y), i.e.
P^{-1}.  For N an odd prime the same formulas apply with p = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactnum import CycNum, _is_odd_prime
from .matrixcore import OpMatrix

__all__ = [
    "HWParams",
    "gamma_p",
    "q_matrix",
    "p_matrix",
    "p_inv_matrix",
    "z_phase",
    "fourier",
]


@dataclass(frozen=True)
class HWParams:
    """Modulus N (2^n with odd p, or an odd prime with p = 1)."""

    N: int
    p: int = 1

    def __post_init__(self) -> None:
        if self.N >= 2 and self.N & (self.N - 1) == 0:
            if self.p % 2 == 0 or not 0 < self.p < max(self.N, 2):
                raise ValueError(f"p must be odd in [1, {self.N}), got {self.p}")
        elif _is_odd_prime(self.N):
            if self.p != 1:
                raise ValueError(f"odd prime modulus takes p = 1, got p = {self.p}")
        else:
            raise ValueError(f"modulus must be 2^n or an odd prime, got {self.N}")

    @classmethod
    def from_n(cls, n: int, p: int = 1) -> HWParams:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return cls(2**n, p)

    @property
    def is_even(self) -> bool:
        return self.N % 2 == 0

    @property
    def n(self) -> int:
        if not self.is_even:
            raise ValueError("n is only defined for N = 2^n")
        return self.N.bit_length() - 1

    def default_backend(self) -> str:
        # 1/sqrt(N) for odd N is not dyadic, so odd moduli stay float.
        return "exact" if self.is_even else "float"


def _backend(params: HWParams, backend: str | None) -> str:
    if backend is None:
        return params.default_backend()
    if backend == "exact" and not params.is_even:
        raise ValueError("exact backend requires N = 2^n")
    return backend


def _root_scalar(N: int, e: int, backend: str) -> CycNum | complex:
    """omega_N^e as a scalar of `backend`."""
    if backend == "exact":
        return CycNum.root(N, e)
    return complex(np.exp(2j * np.pi * (e % N) / N))


def _gamma_support(params: HWParams, m, r, s) -> tuple[np.ndarray, np.ndarray]:
    """(cols, exponents) of Gamma^p(z^m x^r y^s): row k holds omega_N^{exponents[k]}
    in column cols[k].  m, r and s may be arrays of elements: they broadcast
    against the row index on a last axis."""
    N, p = params.N, params.p
    m, r, s = (np.asarray(t)[..., None] for t in (m, r, s))
    k = np.arange(N)
    return (k + s) % N, (p * m + p * k * r) % N


def gamma_p(params: HWParams, m: int, r: int, s: int, backend: str | None = None) -> OpMatrix:
    """Representation matrix of the group element z^m x^r y^s."""
    N = params.N
    cols, exponents = _gamma_support(params, m, r, s)
    return OpMatrix.from_support(
        N, cols, exponents, backend=_backend(params, backend),
        meta=f"gamma(m={m % N},r={r % N},s={s % N})",
    )


def q_matrix(params: HWParams, backend: str | None = None) -> OpMatrix:
    """Clock matrix Q = Gamma^p(x) = diag(omega^{p k})."""
    return gamma_p(params, 0, 1, 0, backend)


def p_matrix(params: HWParams, backend: str | None = None) -> OpMatrix:
    """Shift matrix P = Gamma^p(y^{-1}), acting as P|j> = |j+1>."""
    return gamma_p(params, 0, 0, -1, backend)


def p_inv_matrix(params: HWParams, backend: str | None = None) -> OpMatrix:
    """P^{-1} = Gamma^p(y), the shift with ones above the diagonal."""
    return gamma_p(params, 0, 0, 1, backend)


def z_phase(params: HWParams) -> CycNum | complex:
    """Scalar omega^p through which the central generator acts."""
    return _root_scalar(params.N, params.p, params.default_backend())


def fourier(params: HWParams, backend: str | None = None) -> OpMatrix:
    """Finite Fourier matrix F_{kj} = N^{-1/2} omega^{kj}."""
    N = params.N
    k = np.arange(N)
    exponents = (k[:, None] * k[None, :]) % N
    backend = _backend(params, backend)
    if backend == "exact":
        out = OpMatrix.from_phase_table(N, exponents).scalar_mul(CycNum.inv_sqrt2_pow(params.n))
        out.meta = "fourier"
        return out
    return OpMatrix.from_complex(np.exp(2j * np.pi * exponents / N) / np.sqrt(N), meta="fourier")

