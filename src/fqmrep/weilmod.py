"""Quadratic-module Gauss sums and chirp-built comparison operators.

Two constructions share this module.  The quadratic module
(Z_N x Z_N, Q) with Q(x) = x1 x2 / N for N = 2^n, given by N alone,
has all normalized Gauss sums alpha_Q equal to 1 on units, which is
the properness condition behind the exactness of the doubled-dimension
representation; its generator images Gamma(T), Gamma(S^-1),
Gamma(D(a)) are compared entry by entry against float builds of the
dimension-N^2 metaplectic images, the aligning phase measured by one
inner product rather than assumed.

The second family lives in dimension N for any N >= 2:
time-frequency shifts pi(r, s) = P^r Q^s, chirp diagonals R_c, and
the shear-reduced operators built from them.  For odd N these compose
to a representation up to global phase; for even N the chirp
composition law picks up a sign defect and no choice of phases
repairs the products.  The defect is measured here, not hidden.

Everything stays on the float backend: the chirp phases are 2N-th
roots of unity, outside the dyadic exact ring.  Default tolerance
1e-9.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .exactnum import NotAUnit
from .heisenberg import HWParams
from .matrixcore import _FLOAT_BLOCK, OpMatrix, _float_stack, _SupportTable
from .metaplectic import u_d, u_s, u_t_pow
from .sl2 import SL2Element, enumerate_sl2

__all__ = [
    "IllFormed",
    "NotMetaplectic",
    "QuadraticModule",
    "CharacterSample",
    "alpha_q",
    "weil_generator_action",
    "generator_defect",
    "pi_shift",
    "chirp",
    "theta_defect",
    "chirp_wrap_sign",
    "find_theta_witness",
    "feichtinger_u",
    "extract_psi",
    "find_nonhom_witness",
]


class IllFormed(ValueError):
    """Shear reduction has no unit pivot for the given element."""


class NotMetaplectic(ValueError):
    """No consistent unit scalar relates the conjugated shifts."""


@dataclass(frozen=True)
class QuadraticModule:
    """(Z_N x Z_N, Q) with Q(x) = x1 x2 / N for N = 2^n, kept by numerators.

    `q` and `b` return the numerators in [0, N) of Q and of its
    polarization B; `q_all` holds q at every composite index N x1 + x2.
    """

    N: int

    def __post_init__(self) -> None:
        if self.N < 2 or self.N & (self.N - 1):
            raise ValueError(f"modulus must be 2^n >= 2, got {self.N}")

    @property
    def size(self) -> int:
        return self.N * self.N

    def q(self, x: tuple[int, int]) -> int:
        """Numerator x1 x2 mod N of Q(x)."""
        return x[0] * x[1] % self.N

    def b(self, x: tuple[int, int], y: tuple[int, int]) -> int:
        """Numerator x1 y2 + x2 y1 mod N of B(x, y) = Q(x+y) - Q(x) - Q(y)."""
        return (x[0] * y[1] + x[1] * y[0]) % self.N

    def q_all(self) -> np.ndarray:
        """The numerators q(x) as an int64 array over the composite index."""
        x1, x2 = np.divmod(np.arange(self.size), self.N)
        return x1 * x2 % self.N


def alpha_q(qm: QuadraticModule, a: int) -> complex:
    """Normalized Gauss sum |M|^(-1/2) sum_x e^{2 pi i a Q(x)} for a unit a, in floats."""
    N = qm.N
    if math.gcd(a % N, N) != 1:
        raise NotAUnit(f"{a} is not a unit mod {N}")
    # |M|^(1/2) = N
    return complex(np.exp(2j * np.pi * (a % N) * qm.q_all() / N).sum() / N)


def weil_generator_action(qm: QuadraticModule, kind: str, a: int | None = None) -> OpMatrix:
    """Generator image on C^{N^2}: Gamma(T), Gamma(S^-1), or Gamma(D(a)).

    Gamma(T) is the diagonal e^{2 pi i Q(x)}; Gamma(S^-1) is
    alpha_Q(-1) |M|^(-1/2) [e^{2 pi i B(x,y)}]; Gamma(D(a)) is
    alpha_Q(a) alpha_Q(-1) times the basis permutation x -> a^{-1} x.
    Rows and columns use the composite index N x1 + x2.
    """
    N = qm.N
    dim = qm.size
    x1, x2 = np.divmod(np.arange(dim), N)
    q = qm.q_all()
    if kind == "T":
        return OpMatrix.from_support(N, np.arange(dim), q, backend="float", meta="Gamma(T)")
    if kind == "Sinv":
        # B(x, y) = q(x + y) - q(x) - q(y), indexing q at the composite index of x + y
        total = N * ((x1[:, None] + x1) % N) + (x2[:, None] + x2) % N
        exps = (q[total] - q[:, None] - q) % N
        n = N.bit_length() - 1
        out = OpMatrix.from_phase_table(N, exps, scale_pow2=n, backend="float", meta="Gamma(S^-1)")
        return out.scalar_mul(alpha_q(qm, -1))
    if kind == "D":
        if a is None:
            raise ValueError("Gamma(D(a)) needs the dilatation argument a")
        amp = alpha_q(qm, a) * alpha_q(qm, -1)
        a_inv = pow(a % N, -1, N)
        rows = (a_inv * x1 % N) * N + (a_inv * x2 % N)
        data = np.zeros((dim, dim), dtype=np.complex128)
        data[rows, np.arange(dim)] = amp
        return OpMatrix.from_complex(data, meta=f"Gamma(D({a % N}))")
    raise ValueError(f"unknown generator token {kind!r}")


def generator_defect(qm: QuadraticModule, kind: str, a: int | None = None) -> dict:
    """Measured proportionality of a Gamma image against its metaplectic partner.

    The correspondence is inverse-flavored on the shears: Gamma(T)
    lines up with u(T)^-1 and Gamma(S^-1) with u(S); Gamma(D(a))
    lines up with u(D(a)) directly.  Both sides are float matrices
    built from the same `_roots(N)` values.  Returns the aligning
    phase of the inner product <Y, X> and the residual max-entry
    deviation after alignment.
    """
    params = HWParams(qm.N, 1)
    X = weil_generator_action(qm, kind, a).data
    if kind == "T":
        partner, Y = "u(T)^-1", u_t_pow(params, -1, "float")
    elif kind == "Sinv":
        partner, Y = "u(S)", u_s(params, "float")
    elif kind == "D":
        partner, Y = f"u(D({a}))", u_d(params, a, "float")
    else:
        raise ValueError(f"unknown generator token {kind!r}")
    tr = np.vdot(Y.data, X)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0 + 0j
    return {
        "partner": partner,
        "phase": complex(phase),
        "defect": float(np.abs(X - phase * Y.data).max()),
    }


def _pi_support(N: int, r, s) -> tuple[np.ndarray, np.ndarray]:
    """(cols, exponents) of pi(r, s) = P^r Q^s on C^N: row i holds
    omega_N^{exponents[i]} in column cols[i].  r and s may be arrays of
    points: they broadcast against the row index on a last axis."""
    r, s = np.asarray(r)[..., None], np.asarray(s)[..., None]
    j = (np.arange(N) - r) % N
    return j, j * (s % N) % N


def pi_shift(N: int, r: int, s: int) -> OpMatrix:
    """Time-frequency shift pi(r, s) = P^r Q^s on C^N (float backend)."""
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    return OpMatrix.from_support(
        N, *_pi_support(N, r, s), backend="float", meta=f"pi({r % N},{s % N}) mod {N}"
    )


def chirp(N: int, c: int) -> OpMatrix:
    """Chirp diagonal R_c with entries e^{pi i (N+1) c k^2 / N}.

    Periodic in c with period 2N, not N: the integer lift of c is
    part of the input, so chirp(2, 2) is diag(1, -1) and not the
    identity.
    """
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    k = np.arange(N)
    exps = (N + 1) * c * k * k % (2 * N)
    return OpMatrix.from_support(2 * N, k, exps, backend="float", meta=f"R_{c}")


def theta_defect(N: int, c1: int, c2: int) -> int:
    """Sign (-1)^(c1 + c2 - (c1+c2)) with each term reduced mod N+1.

    Evaluated on the integer lifts as given; always +1 for odd N.
    """
    m = N + 1
    e = c1 % m + c2 % m - (c1 + c2) % m
    return 1 if e % 2 == 0 else -1


def chirp_wrap_sign(N: int, c1: int, c2: int) -> int:
    """Sign making R_[c1] R_[c2] = sign^(k^2) R_[c1+c2] hold entrywise.

    Brackets are least nonnegative residues mod N.  Reducing the
    summed chirp argument past N contributes (-1)^((N+1) k^2) per
    wrap, so the sign is (-1)^((N+1) w) with w the carry of
    [c1] + [c2] past N.  It agrees with theta_defect on canonical
    residues except on the boundary [c1] + [c2] = N, where the
    mod-(N+1) residues miss the carry.
    """
    wrap = (c1 % N + c2 % N) // N
    return 1 if (N + 1) * wrap % 2 == 0 else -1


def find_theta_witness(N: int) -> tuple[int, int] | None:
    """First lifts (c1, c2) with theta = -1; the diagonal is scanned first."""
    for c in range(N + 1):
        if theta_defect(N, c, c) == -1:
            return (c, c)
    for c1 in range(N + 1):
        for c2 in range(N + 1):
            if theta_defect(N, c1, c2) == -1:
                return (c1, c2)
    return None


def _shear_params(N: int, A: SL2Element) -> tuple[int, int]:
    """Shear exponent theta and unit pivot a0 = a + theta b.

    Right-multiplying A by the lower shear [[1, 0], [theta, 1]] keeps
    b and d and moves the first column to (a + theta b, c + theta d).
    For even N theta is 2 when a is odd and 1 when a is even (the
    determinant forces b odd there, so a0 is odd either way); for odd
    N it is the smallest shift making a0 a unit.  This choice is
    pinned by the shift conjugation identity over all of SL2(Z_4) and
    SL2(Z_8), not taken on faith.
    """
    a, b, _, _ = A.entries()
    if N % 2 == 0:
        theta = 2 if a % 2 else 1
    else:
        theta = next(
            (t for t in range(N) if math.gcd((a + t * b) % N, N) == 1), None
        )
        if theta is None:
            raise IllFormed(f"no shear makes the pivot a unit for {A.entries()} mod {N}")
    a0 = a + theta * b
    if math.gcd(a0 % N, N) != 1:
        raise IllFormed(f"pivot a + theta b = {a0} is not a unit mod {N}")
    return theta, a0


def _as_element(N: int, A) -> SL2Element:
    if isinstance(A, SL2Element):
        if A.N != N:
            raise ValueError(f"element modulus {A.N} does not match {N}")
        return A
    a, b, c, d = A
    return SL2Element(a, b, c, d, N)


def feichtinger_u(N: int, A) -> OpMatrix:
    """Shear-reduced chirp operator U(A) on C^N (float backend).

        U_km = e^{i phi (z1 k^2 + z2 m^2)} (1/N) sum_l omega^{l (k w - m)}
               e^{i phi z3 l^2},      phi = pi (N+1) / N,

    with w = a0^{-1}, z1 = (c + theta d) w, z2 = -theta, z3 = -w b
    kept as integer lifts: the chirp exponents live mod 2N, and
    reducing them mod N slotwise would twist U(I) away from the
    identity.  U(A) satisfies the shift conjugation identity
    U pi(k, l) U^{-1} = psi_A(k, l) pi(ak + bl, ck + dl) with unit
    scalars psi_A; products of these operators compose up to a global
    phase only when N is odd.
    """
    A = _as_element(N, A)
    theta, a0 = _shear_params(N, A)
    a, b, c, d = A.entries()
    w = pow(a0 % N, -1, N)
    z1, z2, z3 = (c + theta * d) * w, -theta, -w * b
    k = np.arange(N)
    exps = (
        (N + 1)
        * (
            z1 * k[:, None, None] ** 2
            + z2 * k[None, :, None] ** 2
            + z3 * k[None, None, :] ** 2
        )
        + 2 * k[None, None, :] * (k[:, None, None] * w - k[None, :, None])
    ) % (2 * N)
    data = np.exp(1j * np.pi * exps / N).sum(axis=2) / N
    return OpMatrix.from_complex(data, meta=f"U({a},{b},{c},{d}) mod {N}")


@dataclass(frozen=True)
class CharacterSample:
    """Scalars psi_A(k, l) read off the shift conjugation identity."""

    A: SL2Element
    values: dict[tuple[int, int], complex]

    def __post_init__(self) -> None:
        for kl, v in self.values.items():
            if abs(abs(v) - 1) > 1e-10:
                raise ValueError(f"|psi{kl}| = {abs(v)} is off the unit circle")

    def sigma(self) -> tuple[int, int, int, int]:
        """A^T kappa A - kappa mod N with kappa = [[0, 0], [1, 0]], row-major."""
        a, b, c, d = self.A.entries()
        N = self.A.N
        return ((c * a) % N, (c * b) % N, (d * a - 1) % N, (d * b) % N)


def extract_psi(
    U, A: SL2Element, tol: float = 1e-9, samples: int = 1000, seed: int = 11
) -> CharacterSample:
    """Read off psi_A(k, l) from U pi(k, l) U^{-1} = psi_A(k, l) pi(ak+bl, ck+dl).

    Every (k, l) is scanned; a missing or non-unit scalar raises
    NotMetaplectic.  Before returning, the second-degree relation

        psi(k+k', l+l') = psi(k, l) psi(k', l')
                          e^{2 pi i <(k, l), sigma (k', l')> / N}

    with sigma = A^T kappa A - kappa is asserted on all quadruples for
    N <= 4 and on seeded samples beyond.  This is `_character_scan` on a
    stack of one.
    """
    N = A.N
    Uc = U.to_complex_array() if isinstance(U, OpMatrix) else np.asarray(U, dtype=complex)
    psi, faults = _character_scan(Uc[None], np.array(A.entries())[:, None], tol, samples, seed)
    if faults[0] is not None:
        raise NotMetaplectic(faults[0])
    k, l = np.divmod(np.arange(N * N), N)
    return CharacterSample(A, dict(zip(zip(k.tolist(), l.tolist()), psi[0].tolist())))


def _character_scan(
    stack: np.ndarray, entries: np.ndarray, tol: float, samples: int = 1000, seed: int = 11
) -> tuple[np.ndarray, list[str | None]]:
    """`extract_psi` for every U of `stack`, a (count, N, N) complex stack,
    against the element of `entries`, an array (4, count) of (a, b, c, d)
    mod N: psi as a (count, N^2) array in (k, l) scan order, and per
    element None or the NotMetaplectic message `extract_psi` raises.

    A block of elements at a time, `_FLOAT_BLOCK` entries of U pi U^{-1}
    per block: one stacked inverse and the stacked products (U pi) U^{-1},
    the same per-slice LAPACK and BLAS calls as on one U, so psi keeps its
    bits.  The quadruples of the second-degree relation are drawn once.
    """
    count, N = stack.shape[:2]
    entries = np.asarray(entries, dtype=np.int64).reshape(4, -1)
    a, b, c, d = entries
    k, l = np.divmod(np.arange(N * N), N)  # (k, l) in scan order
    pis = _float_stack(_SupportTable(N, *_pi_support(N, k, l)))  # pis[N r + s] is pi_shift(N, r, s)
    flat = pis.reshape(N * N, N * N)
    at = np.abs(flat).argmax(axis=1)  # the entry psi is read at, per shift
    if N <= 4:  # every quadruple, in itertools.product order
        quads = np.indices((N,) * 4).reshape(4, -1)
    else:
        rng = random.Random(seed)
        quads = np.array([rng.randrange(N) for _ in range(4 * samples)]).reshape(-1, 4).T
    qk, ql, qkp, qlp = quads
    # sigma = A^T kappa A - kappa, row-major, per element
    s00, s01, s10, s11 = (x[:, None] for x in (c * a % N, c * b % N, (d * a - 1) % N, d * b % N))
    psi = np.empty((count, N * N), dtype=np.complex128)
    faults: list[str | None] = [None] * count
    step = max(1, _FLOAT_BLOCK // N**4)
    for lo in range(0, count, step):
        blk = slice(lo, lo + step)
        U = stack[blk]
        X = (U[:, None] @ pis @ np.linalg.inv(U)[:, None]).reshape(len(U), N * N, N * N)
        image = N * ((a[blk, None] * k + b[blk, None] * l) % N)
        image += (c[blk, None] * k + d[blk, None] * l) % N
        Y, col = flat[image], at[image][..., None]
        p = (np.take_along_axis(X, col, axis=2) / np.take_along_axis(Y, col, axis=2))[..., 0]
        psi[blk] = p
        bad = np.abs(np.abs(p) - 1) > 1e-10
        bad |= np.abs(X - p[..., None] * Y).max(axis=2) > tol
        e = qk * (s00[blk] * qkp + s01[blk] * qlp) + ql * (s10[blk] * qkp + s11[blk] * qlp)
        grid = p.reshape(-1, N, N)
        lhs = grid[:, (qk + qkp) % N, (ql + qlp) % N]
        # a real angle: dividing a complex by N would round differently from the scalar form
        rhs = grid[:, qk, ql] * grid[:, qkp, qlp] * np.exp(1j * (2 * np.pi * e / N))
        fails = np.abs(lhs - rhs) > tol
        for j in np.flatnonzero(bad.any(axis=1) | fails.any(axis=1)).tolist():
            A = tuple(entries[:, lo + j].tolist())
            if bad[j].any():
                t = bad[j].argmax()
                faults[lo + j] = f"no unit scalar at (k, l) = ({k[t]}, {l[t]}) for {A} mod {N}"
            else:
                quad = tuple(quads[:, fails[j].argmax()].tolist())
                faults[lo + j] = f"second-degree relation fails at {quad} for {A}"
    return psi, faults


def _feichtinger_array(N: int, entries) -> np.ndarray | None:
    # feichtinger_u(N, entries) as a complex array, None where ill-formed
    try:
        return feichtinger_u(N, entries).to_complex_array()
    except IllFormed:
        return None


def find_nonhom_witness(N: int, tol: float = 1e-6) -> dict | None:
    """First ordered pair (A, B) whose product defect survives any global phase.

    The defect is the phase-minimized Frobenius distance
    min_phi ||U(A) U(B) - e^{i phi} U(AB)||_F
    = sqrt(||X||^2 + ||Y||^2 - 2 |tr(Y^dagger X)|).  Pairs with an
    ill-formed factor or product are skipped.  Returns
    {"N", "pair", "defect_norm"}, or None when every pair composes
    (odd N).
    """
    return _nonhom_witness(N, {A.entries(): _feichtinger_array(N, A) for A in enumerate_sl2(N)}.get, tol)


def _nonhom_witness(N: int, matrix, tol: float) -> dict | None:
    # `find_nonhom_witness`, matrix(entries) giving `_feichtinger_array`'s result
    elems = enumerate_sl2(N)
    for A in elems:
        left = matrix(A.entries())
        if left is None:
            continue
        for B in elems:
            right, prod = matrix(B.entries()), matrix((A * B).entries())
            if right is None or prod is None:
                continue
            X = left @ right
            t = abs(np.trace(prod.conj().T @ X))
            d2 = (np.abs(X) ** 2).sum() + (np.abs(prod) ** 2).sum() - 2 * t
            d = math.sqrt(max(float(d2), 0.0))
            if d > tol:
                return {"N": N, "pair": [list(A.entries()), list(B.entries())], "defect_norm": d}
    return None
