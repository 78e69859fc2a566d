"""Unitary metaplectic representations of SL2(Z_N).

Two flavors are built here.  For N = 2^n the representation lives on
C^{N^2} on top of the twisted magnetic translations: generators

    U(S)_{(k1,k2),(j1,j2)} = 2^{-n} omega^{p(k1 j2 + k2 j1)}
    U(T)_{(k1,k2),(j1,j2)} = omega^{-p k1 k2} [k1=j1][k2=j2]

and a closed form for arbitrary A, split on the parity of d.  The
formulas are one family per branch:

    d odd, c = 0     triangular: phased permutation k -> d^{-1} k
    d odd, c d^{-1} odd  single-phase table (no interior sum)
    d odd, otherwise  an r-sum of phased line constraints
    d even           single-phase table in 1/c (c is odd then)

Every branch agrees exactly with the product of generator images over
the shear/dilatation word of the element, and U(A)U(B) = U(AB) holds
exactly, so the map is a proper representation, not just projective.

For odd prime N the representation lives on C^N over the plain
magnetic translations.  The generic (c != 0) Gauss-sum form and the
dilatation permutation are combined into a total map that is an exact
homomorphism as well.  One wrinkle, kept deliberately visible: the
permutation m -> a m conjugates J_{r,s} by the torus action of
diag(a^{-1}, a), so the image of D(a) uses the inverse argument.

Everything with N = 2^n defaults to the exact cyclotomic backend;
odd-N matrices carry 1/sqrt(N) and stay in floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactnum import NotAUnit, jacobi_symbol
from .heisenberg import HWParams
from .magnetic import j_odd, j_twisted
from .matrixcore import OpMatrix, mat_eq
from .report import VerifyReport
from .sl2 import SL2Element, Token, act_on_point, dilatation_word, sl2_s, sl2_t

__all__ = [
    "BadBranch",
    "NonGeneric",
    "MetaplecticRep",
    "u_s",
    "u_t",
    "u_t_pow",
    "u_d",
    "u_of_word",
    "u_a_closed",
    "u_general",
    "weil_odd_s",
    "weil_odd_d",
    "weil_odd_generic",
    "weil_odd_general",
    "verify_metaplectic",
]


class BadBranch(ValueError):
    """Closed-form branch invoked outside its precondition."""


class NonGeneric(ValueError):
    """Generic odd-N formula needs c != 0; compose instead."""


# -- twisted family, N = 2^n -------------------------------------------------


def _grids(N: int):
    """Composite-index coordinate columns for dim N^2 (index N*k1 + k2)."""
    dim = N * N
    k1, k2 = np.divmod(np.arange(dim), N)
    return dim, k1, k2


def u_s(params: HWParams, backend: str | None = None) -> OpMatrix:
    """Fourier-like generator image U(S) on C^{N^2}."""
    N, p = params.N, params.p
    backend = params.default_backend() if backend is None else backend
    dim, k1, k2 = _grids(N)
    E = (p * (k1[:, None] * k2[None, :] + k2[:, None] * k1[None, :])) % N
    return OpMatrix.from_phase_table(
        N, E, scale_pow2=params.n, backend=backend, meta="u_s"
    )


def u_t_pow(params: HWParams, m: int, backend: str | None = None) -> OpMatrix:
    """Diagonal U(T)^m = diag omega^{-p m k1 k2}."""
    N, p = params.N, params.p
    backend = params.default_backend() if backend is None else backend
    dim, k1, k2 = _grids(N)
    idx = np.arange(dim)
    mask = np.zeros((dim, dim), dtype=bool)
    mask[idx, idx] = True
    E = np.zeros((dim, dim), dtype=np.int64)
    E[idx, idx] = (-p * (m % N) * k1 * k2) % N
    return OpMatrix.from_phase_table(N, E, mask, backend=backend, meta=f"u_t^{m % N}")


def u_t(params: HWParams, backend: str | None = None) -> OpMatrix:
    return u_t_pow(params, 1, backend)


def u_d(params: HWParams, a: int, backend: str | None = None) -> OpMatrix:
    """Dilatation image as the T/S word product.

    Equals the bare permutation k -> a^{-1} k with no global phase;
    tests pin that down rather than assuming it.
    """
    return u_of_word(params, dilatation_word(params.N, a), backend)


def u_of_word(
    params: HWParams, word: list[Token], backend: str | None = None
) -> OpMatrix:
    """Left-to-right product of generator images for a T/S/D token word."""
    N = params.N
    backend = params.default_backend() if backend is None else backend
    out = OpMatrix.identity(N * N, backend, order=max(N, 8))
    s_cache: dict[int, OpMatrix] = {}

    def s_power(k: int) -> OpMatrix:
        if k not in s_cache:
            s1 = s_cache.setdefault(1, u_s(params, backend))
            s_cache[k] = s1.dagger() if k == -1 else s1 @ s1
        return s_cache[k]

    for kind, arg in word:
        if kind == "T":
            factor = u_t_pow(params, arg, backend)
        elif kind == "S":
            factor = s_power(arg) if arg != 1 else s_cache.setdefault(1, u_s(params, backend))
        elif kind == "D":
            factor = u_d(params, arg, backend)
        else:
            raise ValueError(f"unknown token kind {kind!r}")
        out = out @ factor
    return out


def _closed_triangular(params: HWParams, A: SL2Element, backend: str) -> OpMatrix:
    # c = 0: phased permutation (k1,k2) -> (d^{-1} k1, d^{-1} k2).
    N, p = params.N, params.p
    _, b, _, d = A.entries()
    dinv = pow(d, -1, N)
    dim, k1, k2 = _grids(N)
    cols = N * ((dinv * k1) % N) + (dinv * k2) % N
    rows = np.arange(dim)
    mask = np.zeros((dim, dim), dtype=bool)
    mask[rows, cols] = True
    E = np.zeros((dim, dim), dtype=np.int64)
    E[rows, cols] = (-p * b * dinv * k1 * k2) % N
    return OpMatrix.from_phase_table(N, E, mask, backend=backend, meta="d-odd-triangular")


def _closed_odd_sum(params: HWParams, A: SL2Element, backend: str) -> OpMatrix:
    # d odd, c != 0: sum over r of a line constraint; the congruence
    # c d^{-1} r = d^{-1} k1 - j1 may have zero, one, or many solutions
    # per (k1, j1), all handled by scanning r directly.
    N, p = params.N, params.p
    _, b, c, d = A.entries()
    dinv = pow(d, -1, N)
    dim, k1, k2 = _grids(N)
    j1, j2 = k1, k2
    base = (-p * b * dinv * k1 * k2) % N
    total = None
    for r in range(N):
        sel = ((-dinv * k1[:, None] + c * dinv * r + j1[None, :]) % N) == 0
        E = (base[:, None] + p * (-dinv * k2[:, None] + j2[None, :]) * r) % N
        term = OpMatrix.from_phase_table(
            N, E, sel, scale_pow2=params.n, backend=backend
        )
        total = term if total is None else total + term
    total.meta = "d-odd-sum"
    return total


def _closed_odd_reduced(params: HWParams, A: SL2Element, backend: str) -> OpMatrix:
    # d odd and c d^{-1} odd: the r-sum collapses to one phase per entry.
    N, p = params.N, params.p
    _, b, c, d = A.entries()
    dinv = pow(d, -1, N)
    cinv = pow(c, -1, N)
    ratio_inv = pow(c * dinv, -1, N)
    dim, k1, k2 = _grids(N)
    E = (
        p
        * (
            -((b * dinv + cinv * dinv) % N) * (k1 * k2)[:, None]
            - ratio_inv * (k1 * k2)[None, :]
            + cinv * (k2[:, None] * k1[None, :] + k2[None, :] * k1[:, None])
        )
    ) % N
    return OpMatrix.from_phase_table(
        N, E, scale_pow2=params.n, backend=backend, meta="d-odd-reduced"
    )


def _closed_even(params: HWParams, A: SL2Element, backend: str) -> OpMatrix:
    # d even forces c odd (det = ad - bc = 1), so 1/c exists.
    N, p = params.N, params.p
    a, _, c, d = A.entries()
    cinv = pow(c, -1, N)
    dim, k1, k2 = _grids(N)
    E = (
        p
        * (
            -(a * cinv) * (k1 * k2)[:, None]
            + cinv * (k1[:, None] * k2[None, :] + k2[:, None] * k1[None, :])
            - (d * cinv) * (k1 * k2)[None, :]
        )
    ) % N
    return OpMatrix.from_phase_table(
        N, E, scale_pow2=params.n, backend=backend, meta="d-even"
    )


def u_a_closed(params: HWParams, A: SL2Element, backend: str | None = None) -> OpMatrix:
    """Closed-form U(A) on C^{N^2}, branch picked by the parity of d."""
    if not params.is_even:
        raise BadBranch(f"closed forms need N = 2^n, got {params.N}")
    if A.N != params.N:
        raise BadBranch(f"element modulus {A.N} != {params.N}")
    N = params.N
    backend = params.default_backend() if backend is None else backend
    a, b, c, d = A.entries()
    if d % 2 == 1:
        if c % N == 0:
            return _closed_triangular(params, A, backend)
        if (c * pow(d, -1, N)) % 2 == 1:
            return _closed_odd_reduced(params, A, backend)
        return _closed_odd_sum(params, A, backend)
    return _closed_even(params, A, backend)


def u_general(params: HWParams, A: SL2Element, backend: str | None = None) -> OpMatrix:
    """Dispatcher over the closed-form branches; the branch fired lands in .meta."""
    out = u_a_closed(params, A, backend)
    out.meta = f"u({A.a},{A.b},{A.c},{A.d})[{out.meta}]"
    return out


# -- odd-prime Weil family ----------------------------------------------------


def _kappa(N: int) -> complex:
    # Quarter-phase attached to the prime's residue class mod 4.
    return 1.0 + 0j if N % 4 == 1 else -1j


def weil_odd_s(N: int) -> OpMatrix:
    """U(S)_{l,m} = (-1)^N i^t N^{-1/2} omega^{lm} (t = 0 or 1 by N mod 4)."""
    t = 0 if N % 4 == 1 else 1
    l, m = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    data = (-1) ** N * 1j**t / np.sqrt(N) * np.exp(2j * np.pi * (l * m % N) / N)
    return OpMatrix.from_complex(data, meta="weil_odd_s")


def weil_odd_d(N: int, a: int) -> OpMatrix:
    """Phased permutation sigma(1) sigma(2 - a - a^{-1}) delta_{l, a m}.

    At a = 1 the sigma argument degenerates to 0 where the residue
    symbol vanishes; the identity is returned there, which is the only
    value compatible with U being a homomorphism.
    """
    a %= N
    if a == 0 or np.gcd(a, N) != 1:
        raise NotAUnit(f"{a} is not a unit mod {N}")
    if a == 1:
        return OpMatrix.from_complex(np.eye(N, dtype=complex), meta="weil_odd_d")
    arg = (2 - a - pow(a, -1, N)) % N
    phase = _kappa(N) ** 2 * jacobi_symbol(1, N) * jacobi_symbol(arg, N)
    out = np.zeros((N, N), dtype=complex)
    out[(a * np.arange(N)) % N, np.arange(N)] = phase
    return OpMatrix.from_complex(out, meta="weil_odd_d")


def weil_odd_generic(N: int, A: SL2Element) -> OpMatrix:
    """Gauss-sum form for c != 0: N^{-1/2} (-2c|N) kappa omega^{-(a l^2 + d m^2 - 2 l m)/2c}."""
    a, _, c, d = A.entries()
    if c % N == 0:
        raise NonGeneric("c = 0 has no 1/2c; build via weil_odd_general")
    inv2c = pow(2 * c, -1, N)
    l, m = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    pref = jacobi_symbol(-2 * c, N) * _kappa(N) / np.sqrt(N)
    expo = (-(a * l * l + d * m * m - 2 * l * m) * inv2c) % N
    return OpMatrix.from_complex(
        pref * np.exp(2j * np.pi * expo / N), meta="weil_odd_generic"
    )


def weil_odd_general(N: int, A: SL2Element) -> OpMatrix:
    """Total map on SL2(Z_N), N odd prime; exact homomorphism.

    c = 0 means A = D(a) T^{a^{-1} b}; the dilatation factor is the
    permutation with argument a^{-1} (see module docstring) and U(T)
    comes from the generic family as U(S)^{-1} U(S T), keeping all
    global phases in one consistent gauge.
    """
    a, b, c, _ = A.entries()
    if c % N != 0:
        return weil_odd_generic(N, A)
    out = weil_odd_d(N, pow(a, -1, N))
    shift = (pow(a, -1, N) * b) % N
    if shift:
        uS = weil_odd_generic(N, sl2_s(N))
        uT = uS.dagger() @ weil_odd_generic(N, sl2_s(N) * sl2_t(N))
        out = out @ (uT**shift)
    out.meta = "weil_odd_general"
    return out


# -- the property checker ------------------------------------------------------


def verify_metaplectic(
    U: OpMatrix,
    A: SL2Element,
    flavor: str,
    params: HWParams | None = None,
    tol: float = 1e-9,
) -> VerifyReport:
    """Check J_{r,s} U = U J_{(r,s)A} over every (r,s) in Z_N^2.

    The side-multiplied form avoids inverting U and is equivalent for
    invertible U.  Since (r, s) -> (r, s)A permutes Z_N^2, the checks
    walk its cycles, so each J is built once and at most three are held
    at a time.  The report is assembled in (r, s) lexicographic order, so
    the result is deterministic.
    """
    if flavor == "twisted_even":
        if params is None:
            raise ValueError("twisted_even needs params")
        N = params.N
        j_of = lambda pt: j_twisted(params, pt, backend=U.backend)
        rep_params = {"flavor": flavor, "N": N, "p": params.p}
    elif flavor == "weil_odd":
        N = A.N
        j_of = lambda pt: j_odd(N, pt)
        rep_params = {"flavor": flavor, "N": N}
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    if A.N != N:
        raise ValueError(f"element modulus {A.N} != {N}")
    rep_params["element"] = list(A.entries())
    report = VerifyReport(suite="metaplectic", params=rep_params)
    points = [(r, s) for r in range(N) for s in range(N)]
    compared = {}
    for start in points:
        if start in compared:
            continue
        j_start = j_of(start)
        point, j_point = start, j_start
        while point not in compared:
            image = act_on_point(A, *point)
            j_image = j_start if image == start else j_of(image)
            compared[point] = mat_eq(j_point @ U, U @ j_image, tol=tol)
            point, j_point = image, j_image
    for r, s in points:
        cmp = compared[(r, s)]
        report.record(
            cmp.equal,
            cmp.max_deviation,
            "J[r,s] U == U J[(r,s)A]",
            {"r": r, "s": s},
        )
    return report


@dataclass(frozen=True)
class MetaplecticRep:
    """One representation flavor bound to its parameters."""

    params: HWParams
    flavor: str

    def __post_init__(self) -> None:
        if self.flavor == "twisted_even":
            if not self.params.is_even:
                raise ValueError("twisted_even needs N = 2^n")
        elif self.flavor == "weil_odd":
            if self.params.is_even:
                raise ValueError("weil_odd needs an odd prime N")
        else:
            raise ValueError(f"unknown flavor {self.flavor!r}")

    @property
    def dim(self) -> int:
        return self.params.N**2 if self.flavor == "twisted_even" else self.params.N

    def matrix(self, A: SL2Element, backend: str | None = None) -> OpMatrix:
        if self.flavor == "twisted_even":
            return u_general(self.params, A, backend)
        return weil_odd_general(self.params.N, A)

    def verify(self, A: SL2Element, tol: float = 1e-9) -> VerifyReport:
        return verify_metaplectic(
            self.matrix(A), A, self.flavor, params=self.params, tol=tol
        )
