"""Magnetic translations on the torus and their even-modulus twin.

For odd N the operators J_{r,s} = omega^{r s / 2} P^r Q^s close into a
projective representation of Z_N x Z_N (the 1/2 means the inverse of 2
mod N, which exists only for odd N).  For N = 2^n that inverse is
missing; the construction doubles the space instead and uses

    (J^p_{r,s})_{k1 k2, j1 j2}
        = omega^{p(-s r + (k1 + k2) s)} [j1 = k1 - r][j2 = k2 - r]

on C^{N^2} with the composite index N k1 + k2.  The same operator
factors as omega^{-p s r} (Q^s P^r) (x) (Q^s P^r), which is kept as an
independent construction for cross-checking.
"""

from __future__ import annotations

import numpy as np

from .heisenberg import HWParams, _root_scalar, p_matrix, q_matrix
from .matrixcore import OpMatrix

__all__ = ["EvenModulus", "j_odd", "j_twisted", "j_twisted_product"]


class EvenModulus(ValueError):
    """Odd-modulus construction invoked with an even N."""


def _coords(pt: tuple[int, int], N: int) -> tuple[int, int]:
    r, s = pt
    return (r % N, s % N)


def _odd_support(N: int, r, s) -> tuple[np.ndarray, np.ndarray]:
    """(cols, exponents) of omega^{r s/2} P^r Q^s for odd N: row k holds
    omega_N^{exponents[k]} in column cols[k].  r and s, reduced mod N, may be
    arrays of points: they broadcast against the row index on a last axis."""
    if N % 2 == 0:
        raise EvenModulus(f"j_odd needs odd N, got {N}")
    r, s = np.asarray(r)[..., None], np.asarray(s)[..., None]
    j = (np.arange(N) - r) % N
    return j, (r * s * pow(2, -1, N) + j * s) % N


def _twisted_support(params: HWParams, r, s) -> tuple[np.ndarray, np.ndarray]:
    """(cols, exponents) of J^p_{r,s} on C^{N^2}, N = 2^n, as `_odd_support`;
    reduced mod N by `& (N - 1)`, which two's complement makes `% N`.

    Row (k1, k2) goes to column N (k1 - r) + (k2 - r) with exponent
    p s (k1 - r + k2).  The row grid is in the smallest unsigned type,
    so unsigned r and s below N give the columns in the smallest type
    holding N^2 - 1 and the exponents in that of r and s, wrapping mod a
    multiple of N; int r and s give int64, as before."""
    N, p = params.N, params.p
    if not params.is_even:
        raise ValueError(f"twisted construction needs N = 2^n, got {N}")
    r, s = np.asarray(r)[..., None], np.asarray(s)[..., None]
    k = np.arange(N, dtype=np.min_scalar_type(N - 1))
    shifted = (k - r) & (N - 1)  # k1 - r and k2 - r
    wide = np.result_type(shifted, np.min_scalar_type(N * N - 1))
    cols = np.multiply(shifted, N, dtype=wide)[..., None] + shifted[..., None, :]
    exps = shifted[..., None] + k
    exps *= (p * s)[..., None]
    exps &= N - 1
    return cols.reshape(*r.shape[:-1], N * N), exps.reshape(*r.shape[:-1], N * N)


def j_odd(N: int, pt) -> OpMatrix:
    """Magnetic translation omega^{r s/2} P^r Q^s for odd N (float backend)."""
    r, s = _coords(pt, N)
    cols, exponents = _odd_support(N, r, s)
    return OpMatrix.from_support(N, cols, exponents, backend="float", meta=f"j_odd(r={r},s={s})")


def j_twisted(params: HWParams, pt, backend: str | None = None) -> OpMatrix:
    """Twisted magnetic translation J^p_{r,s} on C^{N^2}, N = 2^n."""
    r, s = _coords(pt, params.N)
    cols, exponents = _twisted_support(params, r, s)
    backend = params.default_backend() if backend is None else backend
    return OpMatrix.from_support(
        params.N, cols, exponents, backend=backend, meta=f"j_twisted(r={r},s={s})"
    )


def j_twisted_product(params: HWParams, pt, backend: str | None = None) -> OpMatrix:
    """Product-form twin omega^{-p s r} (Q^s P^r) (x) (Q^s P^r)."""
    N, p = params.N, params.p
    r, s = _coords(pt, N)
    backend = params.default_backend() if backend is None else backend
    block = (q_matrix(params, backend) ** s) @ (p_matrix(params, backend) ** r)
    out = block.kron(block).scalar_mul(_root_scalar(N, -p * s * r, backend))
    out.meta = f"j_twisted_product(r={r},s={s})"
    return out
