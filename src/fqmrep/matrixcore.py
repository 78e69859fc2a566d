"""Dense operator matrices over an exact cyclotomic ring or complex128.

The exact backend stores a matrix as an integer coefficient tensor of
shape (dim, dim, L) over the negacyclic basis of Z[omega_M] (L = M/2)
plus one shared dyadic scale: entry (i, j) is
2^{-scale_log2} * sum_k coeffs[i, j, k] omega_M^k.

The ring arithmetic (the regular representation `_regular`, root
encoding, 2-adic normalisation, promotion, conjugation) lives in
`exactnum`; scalar and Kronecker products apply `_regular` entrywise.
Every exact matrix product whose coefficients stay below p/2 is a
negacyclic NTT product: modulo one word prime p = 1 (mod 2L), x^L + 1
splits into L linear factors, so both operands are evaluated at the L odd
powers of a primitive 2L-th root of unity, multiplied as L stacked
dim x dim float64 products on centred residues (every value stays below
2^51, so BLAS is exact) and interpolated back; past p/2 a slow
object-dtype path takes over.  Rescaling and products check int64
headroom and raise `ExactOverflow` rather than wrap.

The builders' tables are evaluated at the same L roots mod the same prime
without a coefficient tensor: a `_SlotTable` holds one gather index into
each slot's root residues, and `_phase_law` decides X Y == Z on three of
them a block of slots at a time, in one reused buffer.  A table of one
block (dim <= 64) keeps its whole evaluation; a larger unmasked table
whose exponents split as a(k1, j1, j2) + b(k1, k2, j1) (every odd-c
closed form: a chirp, a transform of side n, a chirp) is applied as two
batched n x n stages, 2 n^5 multiply-adds per slot instead of n^6.
Laws of phased permutations are decided on their integer exponents by
`_support_law`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .exactnum import (
    CycNum,
    _exact_order,
    _is_odd_prime,
    _regular,
    basis_size,
    conj_coeffs,
    encode_root,
    normalize,
    promote,
)

__all__ = [
    "DimMismatch",
    "BackendMismatch",
    "ExactOverflow",
    "MatCompare",
    "OpMatrix",
    "kron",
    "twist_perm",
    "mat_eq",
    "matrix_to_json_dict",
    "matrix_to_csv_text",
]

_INT64_BOUND = 2**63


class DimMismatch(ValueError):
    """Operands with incompatible dimensions."""


class BackendMismatch(ValueError):
    """Arithmetic mixing exact and float operands."""


class ExactOverflow(ArithmeticError):
    """Exact coefficients would leave int64; raised instead of wrapping."""


class MatCompare(NamedTuple):
    equal: bool
    max_deviation: float


def _top(coeffs: np.ndarray) -> int:
    return int(np.abs(coeffs).max(initial=0))


def _checked(bound: int, what: str) -> None:
    if bound >= _INT64_BOUND:
        raise ExactOverflow(f"{what} needs {bound.bit_length()} bits, int64 holds 63")


# float64 entries per sweep of `_reduce` (256 KB), so that its four passes
# over a chunk stay in cache: one reduction of 2^20 entries took 2.8 ms in
# chunks of 2^15, 3.2 ms in chunks of 2^13 and 5.5 ms whole (timeit)
_REDUCE_CHUNK = 1 << 15


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce x, a C-contiguous integer-valued float64 array with |x| < 2^51,
    to its centred residues mod p (odd) in place, and return it.

    x/p is off by under 1/(2p) after two roundings, and x/p lies at least
    1/(2p) from a half-integer, so rounding the quotient is exact.
    """
    if x.size > _REDUCE_CHUNK:
        flat = x.reshape(-1)
        for a in range(0, flat.size, _REDUCE_CHUNK):
            _reduce(flat[a:a + _REDUCE_CHUNK], p)
        return x
    q = x * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


@lru_cache(maxsize=None)
def _ntt_plan(span_log2: int, size: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The largest prime p = 1 (mod 2 size) with 2^span_log2 ((p - 1)/2)^2 < 2^51,
    and its tables (p < 2^26 at every span_log2 >= 1).

    Every float64 operand is a centred residue, |r| <= (p - 1)/2, so a dot
    product of at most 2^span_log2 terms stays exact and fit for `_reduce`.
    fwd[m, k] = zeta^{(2m+1) k} evaluates a coefficient vector at the L odd
    powers of a primitive 2L-th root zeta (the roots of x^L + 1), and
    inv[k, m] = L^{-1} zeta^{-(2m+1) k} interpolates back.
    """
    step = 2 * size
    p = 2 * math.isqrt((2**51 - 1) >> span_log2) // step * step + 1
    while not _is_odd_prime(p):
        p -= step
    # zeta = x^((p-1)/2L) has order 2L exactly when zeta^L = -1
    zeta = next(
        z for z in (pow(x, (p - 1) // step, p) for x in range(2, p)) if pow(z, size, p) == p - 1
    )
    odd_k = (2 * np.arange(size)[:, None] + 1) * np.arange(size)[None, :]
    powers = np.array([pow(zeta, e, p) for e in range(step)], dtype=np.float64)
    fwd = _reduce(powers[odd_k % step], p)
    inv = _reduce((powers * pow(size, -1, p) % p)[-odd_k.T % step], p)
    return p, fwd, inv


def _ntt_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over Z[x]/(x^L + 1) for (dim, dim, L) coefficient tensors, as
    centred residues mod the plan's prime p: exact when every |coefficient| of
    the product is below p/2, which the caller checks.  Then |a|, |b| < p/2 are
    residues already, unless the other operand is zero (then any finite values
    multiply to the right answer, 0).
    """
    d, _, size = a.shape
    n = d * d
    p, fwd, inv = _ntt_plan((max(d, size) - 1).bit_length(), size)
    cols = np.concatenate((a.reshape(n, size), b.reshape(n, size)), dtype=np.float64)
    # both operands at the L roots, then L stacked dim x dim products, each
    # pass reduced in place; the product's coefficients go back into the
    # operands' buffer, which is read by then
    ev = _reduce(fwd @ cols.T, p)
    prod = _reduce(ev[:, :n].reshape(size, d, d) @ ev[:, n:].reshape(size, d, d), p)
    coeffs = cols.reshape(-1).view(np.int64)[: size * n].reshape(size, n)
    np.copyto(coeffs, _reduce(inv @ prod.reshape(size, n), p), casting="unsafe")
    return coeffs.T.reshape(d, d, size)


@lru_cache(maxsize=None)
def _roots(root_order: int) -> np.ndarray:
    # the root_order-th roots of unity, computed once per order, read-only
    roots = np.exp(2j * np.pi * np.arange(root_order) / root_order)
    roots.flags.writeable = False
    return roots


class _SupportTable(NamedTuple):
    """Phased permutations by their row supports, one member per row of `cols`.

    Row i of member t holds its one entry omega_order^{exps[t, i]}
    (0 <= exps < order) in column cols[t, i]; `order` is the root order N
    of the builder's support formula, whatever the backend of its matrices.
    With 1-d `cols` and `exps` the table is one phased permutation, the
    arguments of `OpMatrix.from_support`.
    """

    order: int
    cols: np.ndarray
    exps: np.ndarray


class _PhaseTable(NamedTuple):
    """A dense phase matrix by its formula, the dense twin of `_SupportTable`:
    entry (i, j) is 2^{-scale_pow2} omega_order^{exps[i, j]} where mask[i, j]
    (everywhere when mask is None) and 0 elsewhere; the arguments of
    `OpMatrix.from_phase_table`."""

    order: int
    exps: np.ndarray
    mask: np.ndarray | None
    scale_pow2: int


# slots x dim^2 float64 entries per block of `_phase_law` (512 KB): every
# slot of a dim <= 64 table is one block, and a dim-256 block is one slot
_SLOT_BLOCK = 1 << 16


class _SlotTable(NamedTuple):
    """A table's matrix X at the L roots of x^L + 1 mod the word prime p, by
    one gather: X_m[i, j] = roots[m, index[i, j]] at the m-th root, where
    roots[m, e] is the centred residue of 2^{-s} omega^e (e < order, 2^{-1}
    taken mod p) and the last column, the index of every entry off the mask
    or support, is 0.  So the dim x dim products of two tables' slots are
    their product's.

    A table of one block (`_slot_step`) keeps its whole gather in `values`
    and no split.  Otherwise `values` is None, and `split` is None unless
    the table is an unmasked phase table of dim n^2 whose exponents split
    (`_split`): then it is (A, B), each (L, n, n, n), with X_m[k, j] =
    A[m, k1, j1, j2] B[m, k1, k2, j1] for k = (k1, k2) and j = (j1, j2), A
    unscaled and B holding 2^{-s}.  scale_pow2 is the table's, for
    `_phase_law`'s bound."""

    p: int
    index: np.ndarray
    roots: np.ndarray
    values: np.ndarray | None
    split: tuple[np.ndarray, np.ndarray] | None
    scale_pow2: int


def _slot_table(table: _SupportTable | _PhaseTable) -> _SlotTable:
    """A 1-d `_SupportTable` or a `_PhaseTable` at the L roots, mod the prime
    of the plan `_ntt_matmul` uses at its dim: omega^e goes to
    (zeta^{(2m+1) e})_m, the column e of [fwd, -fwd] (omega^{L+k} =
    -omega^k), times 2^{-scale_pow2}.  The index is held in the smallest
    unsigned type that holds `order`, and a split is checked once, on the
    whole table."""
    order = _exact_order(table.order)
    size = basis_size(order)
    dim = len(table.exps)
    p, fwd, _ = _ntt_plan((max(dim, size) - 1).bit_length(), size)
    support = isinstance(table, _SupportTable)
    scale = 0 if support else table.scale_pow2
    units = np.concatenate((fwd, -fwd, np.zeros((size, 1))), axis=1)
    # |fwd| <= (p - 1)/2 times 2^{-s} mod p < p stays below p^2/2 < 2^51 (p < 2^26)
    roots = _reduce(units * float(pow(2, -scale, p)), p)
    low = order - 1  # a power of two: & low reduces mod order
    exps = table.exps * (order // table.order) & low
    if support:
        index = np.full((dim, dim), order, dtype=np.min_scalar_type(order))
        index[np.arange(dim), table.cols] = exps
    else:
        index = exps if table.mask is None else np.where(table.mask, exps, order)
        index = index.astype(np.min_scalar_type(order))
    if _slot_step(size, dim) == size:
        return _SlotTable(p, index, roots, roots.take(index, axis=1), None, scale)
    split = None if support or table.mask is not None else _split(exps, order)
    if split is not None:
        split = (units.take(split[0], axis=1), roots.take(split[1], axis=1))
    return _SlotTable(p, index, roots, None, split, scale)


def _split(exps: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(a, b) with exps[k, j] = a[k1, j1, j2] + b[k1, k2, j1] (mod order, a
    power of two) for every k = (k1, k2) and j = (j1, j2) of a dim n^2
    table, which holds exactly when E[k, j] = E[(k1, 0), j] - E[(k1, 0),
    (j1, 0)] + E[k, (j1, 0)]; else None."""
    dim, low = len(exps), order - 1
    n = math.isqrt(dim)
    if n * n != dim:
        return None
    e = exps.reshape(n, n, n, n) & low  # e[k1, k2, j1, j2]
    a, b = (e[:, 0] - e[:, 0, :, :1]) & low, e[..., 0]
    joined = np.add(a[:, None], b[..., None])
    joined &= low
    return (a, b) if np.array_equal(joined, e) else None


def _slot_step(size: int, dim: int) -> int:
    # slots per block of `_phase_law`, a power of two, so that equal blocks
    # cover the L = size slots (a power of two)
    return min(size, 1 << max(0, (_SLOT_BLOCK // (dim * dim)).bit_length() - 1))


def _exponent_codes(table: _SupportTable | _PhaseTable, order: int) -> np.ndarray:
    """The omega_order exponents of omega^k X for every k, X the matrix of a
    1-d `_SupportTable` or a `_PhaseTable` up to its scale, `order` a power
    of two the table's order divides: codes[k] = (E order/table.order + k)
    mod order on the support or mask, `order` off it, in
    `np.min_scalar_type(order)`."""
    dim = len(table.exps)
    if isinstance(table, _SupportTable):  # row i: omega^exps[i] in column cols[i] alone
        on = table.cols[:, None] == np.arange(dim)
        exps = np.broadcast_to(table.exps[:, None], on.shape)
    else:
        exps, on = table.exps, table.mask
    dtype = np.min_scalar_type(order)
    base = (exps * (order // table.order) & (order - 1)).astype(dtype)
    codes = np.add.outer(np.arange(order, dtype=dtype), base)  # below 2 order: no wrap
    codes &= order - 1
    if on is not None:
        np.copyto(codes, order, where=~on)
    return codes


def _phase_law(x: _SlotTable, y: _SlotTable, z: _SlotTable) -> bool:
    """Whether X Y == Z, proven on slot tables mod one prime p (False: not
    proven).

    With s the scales, X Y == Z says 2^{s_Z} X' Y' == 2^{s_X + s_Y} Z' for the
    integral matrices X' = 2^{s_X} X etc.  Every |coefficient| of the left is at
    most dim 2^{s_Z} and of the right 2^{s_X + s_Y}; when they sum below p,
    equality mod p at the L roots (an isomorphism mod p, 2 being a unit) is
    equality in Z[omega]; a pair past the bound is not proven.

    Tables of one block are multiplied from their cached values, all slots
    at once.  Otherwise the slots go a block at a time (`_slot_step`), each
    block's product reduced in place in one buffer and compared with Z's,
    stopping at the first unequal block: a split X is applied to Y_m in two
    stages (`_stages`); else a split Y as Y^T's stages to X_m^T, against
    Z_m^T; else X_m Y_m is a dense product.
    """
    p, dim = x.p, len(x.index)
    if (dim << z.scale_pow2) + (1 << (x.scale_pow2 + y.scale_pow2)) >= p:
        return False
    if x.values is not None:
        return bool((_reduce(x.values @ y.values, p) == z.values).all())
    if x.split is not None:
        staged, other, want = (x.split, False), _gather(y), _gather(z)
    elif y.split is not None:
        staged, other, want = (y.split, True), _gather(x, True), _gather(z, True)
    else:
        staged, left, other, want = None, _gather(x), _gather(y), _gather(z)
    size = len(x.roots)
    step = _slot_step(size, dim)
    one, two, out = np.empty((3, step, dim, dim))  # reused by every block
    for m in (slice(a, a + step) for a in range(0, size, step)):
        if staged:  # the middle stage in `two`
            got = _stages(*staged, m, other(m, one), p, out, two)
        else:
            got = _reduce(np.matmul(left(m, one), other(m, two), out=out), p)
        if not (got == want(m, one)).all():  # `one` is read by now
            return False
    return True


def _gather(t: _SlotTable, transpose: bool = False):
    # (m, out) -> the slots m of t's matrix, or of its transpose, gathered
    # into out through one full-width copy of the index
    index = (t.index.T if transpose else t.index).astype(np.intp, order="C")
    return lambda m, out: np.take(t.roots[m], index, axis=1, out=out, mode="clip")


def _stages(split, transpose, m, w, p, out, mid) -> np.ndarray:
    """F_m W_m into `out` at the slots m, F the matrix of a table that splits
    as (A, B), or its transpose, and w the slots of W: two batched n x n
    stages of n-term dot products of centred residues, each reduced in place
    (`mid` holds the first), exact under `_ntt_plan`'s span rule since n <= dim.

    With F[(a1, a2), (b1, b2)] = first[b1, a1, b2] second[a1, a2, b1], the
    first stage sums over b2 for each b1 and the second over b1 for each a1.
    X[k, j] = A[k1, j1, j2] B[k1, k2, j1] gives first = A with its middle
    axes swapped and second = B; X^T[j, k] gives first[k1, j1, k2] =
    B[k1, k2, j1] and second[j1, j2, k1] = A[k1, j1, j2].
    """
    a, b = split[0][m], split[1][m]
    if transpose:
        first, second = b.transpose(0, 1, 3, 2), a.transpose(0, 2, 3, 1)
    else:
        first, second = a.transpose(0, 2, 1, 3), b
    k, dim, cols = w.shape
    n = first.shape[-1]
    t = _reduce(np.matmul(first, w.reshape(k, n, n, cols), out=mid.reshape(k, n, n, cols)), p)
    np.matmul(second, t.transpose(0, 2, 1, 3), out=out.reshape(k, n, n, cols))
    return _reduce(out, p)


# table entries (pairs x dim) per block of `_support_law`; perfbench
# cocycle-monomial on a 2-vCPU box, 4 seeds: 2^14 3.2-3.4 ms wall_s and
# 40.9-41.2 MB peak RSS, 2^15 3.8-4.1 ms and 41.6-41.7 MB, 2^16 3.8-4.2 ms
# and 41.9-42.1 MB
_LAW_BLOCK = 1 << 14


def _narrow_support(table: _SupportTable) -> _SupportTable:
    """The table in the dtypes `_support_law` computes in: columns in the
    smallest unsigned type that holds dim - 1, exponents in uint8 (order <=
    256) or uint16, wrapped mod 2^8 or 2^16 (a multiple of an order dividing
    2^16).  `_stacked_conjugation`, `_exponent_codes` and the builders keep
    int64 tables, whose exps * scale * dim would wrap in uint8."""
    dim = table.cols.shape[-1]
    cols = table.cols.astype(np.min_scalar_type(dim - 1))
    return _SupportTable(table.order, cols, table.exps.astype(np.min_scalar_type(table.order - 1)))


def _support_law(
    table: _SupportTable, left: np.ndarray, right: np.ndarray, out: np.ndarray,
    phase: np.ndarray,
) -> np.ndarray:
    """Whether X Y == omega_order^{phase[k]} Z for X, Y, Z the members left[k],
    right[k], out[k] of a table, for each k.

    Row i of X Y holds omega^{e_X[i] + e_Y[c_X[i]]} in column c_Y[c_X[i]], so
    a pair is equal when those columns are Z's and the exponents differ from
    Z's by phase[k] mod the table's order: integer exponent arithmetic, a
    block of pairs at a time.  The order divides 2^16, so exponents in any
    unsigned or two's complement integer type wrap mod a multiple of it and
    are reduced by `& (order - 1)`; the table is meant to arrive narrow
    (`_narrow_support`, cast once per suite call).  One flat index into the
    rows of the Y's gathers both their columns and their exponents.
    """
    order, dim = table.order, table.cols.shape[1]
    if (1 << 16) % order:
        raise ValueError(f"_support_law needs an order dividing 2^16, got {order}")
    cols, exps = table.cols, table.exps
    phase = (phase % order).astype(exps.dtype)
    equal = np.empty(len(left), dtype=bool)
    step = max(1, _LAW_BLOCK // dim)
    for a in range(0, len(left), step):
        k = slice(a, a + step)
        x, z = left[k], out[k]
        at = cols[x] + (dim * right[k])[:, None]  # Y's row c_X[i], flat
        e = exps[x] + exps.take(at)
        e -= exps[z]
        e -= phase[k, None]
        e &= order - 1
        equal[k] = ((cols.take(at) == cols[z]) & (e == 0)).all(axis=1)
    return equal


class OpMatrix:
    """Square operator matrix with an exact or float backend."""

    __slots__ = ("dim", "backend", "order", "scale_log2", "coeffs", "data", "meta")

    def __init__(
        self,
        dim: int,
        backend: str,
        *,
        coeffs: np.ndarray | None = None,
        order: int = 8,
        scale_log2: int = 0,
        data: np.ndarray | None = None,
        meta: str | None = None,
    ) -> None:
        if backend not in ("exact", "float"):
            raise ValueError(f"unknown backend {backend!r}")
        self.dim = dim
        self.backend = backend
        self.meta = meta
        if backend == "exact":
            size = basis_size(order)
            self.order = order
            if coeffs is None:
                coeffs = np.zeros((dim, dim, size), dtype=np.int64)
            if coeffs.shape != (dim, dim, size):
                raise DimMismatch(f"coefficient tensor shape {coeffs.shape}")
            self.coeffs, self.scale_log2 = normalize(coeffs, scale_log2)
            self.data = None
        else:
            if data is None:
                data = np.zeros((dim, dim), dtype=np.complex128)
            if data.shape != (dim, dim):
                raise DimMismatch(f"data shape {data.shape}")
            self.order = 0
            self.scale_log2 = 0
            self.coeffs = None
            self.data = np.asarray(data, dtype=np.complex128)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_complex(cls, data: np.ndarray, meta: str | None = None) -> OpMatrix:
        data = np.asarray(data, dtype=np.complex128)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise DimMismatch(f"square matrix expected, got {data.shape}")
        return cls(data.shape[0], "float", data=data, meta=meta)

    @classmethod
    def identity(cls, dim: int, backend: str = "exact", order: int = 8) -> OpMatrix:
        return cls.from_support(order, np.arange(dim), np.zeros(dim, dtype=np.int64), 0, backend)

    @classmethod
    def from_cyc_entries(cls, entries: Iterable[Iterable[CycNum]]) -> OpMatrix:
        grid = [list(row) for row in entries]
        dim = len(grid)
        order = max(max(x.order for x in row) for row in grid)
        grid = [[x.promote(order) for x in row] for row in grid]
        scale = max(max(x.scale_log2 for x in row) for row in grid)
        size = basis_size(order)
        coeffs = np.zeros((dim, dim, size), dtype=np.int64)
        for i, row in enumerate(grid):
            if len(row) != dim:
                raise DimMismatch("ragged entry grid")
            for j, x in enumerate(row):
                shifted = [c << (scale - x.scale_log2) for c in x.coeffs]
                _checked(max(map(abs, shifted)), "rescaled entry")
                coeffs[i, j, :] = shifted
        return cls(dim, "exact", coeffs=coeffs, order=order, scale_log2=scale)

    @classmethod
    def from_phase_table(
        cls,
        root_order: int,
        exponents: np.ndarray,
        mask: np.ndarray | None = None,
        scale_pow2: int = 0,
        backend: str = "exact",
        meta: str | None = None,
    ) -> OpMatrix:
        """Matrix with entries mask * omega_{root_order}^{exponents} * 2^{-scale_pow2}.

        For dense phase matrices; exponent tables are plain integer arrays,
        reduced here.  Phased permutations are built by `from_support`.
        """
        exponents = np.asarray(exponents)
        dim = exponents.shape[0]
        if exponents.shape != (dim, dim):
            raise DimMismatch(f"exponent table shape {exponents.shape}")
        if backend == "float":
            # one gather from the root table; mask and scale in place
            data = _roots(root_order)[exponents % root_order]
            if mask is not None:
                data[np.logical_not(mask)] = 0
            data *= 2.0 ** (-scale_pow2)
            return cls.from_complex(data, meta=meta)
        rows, cols = np.nonzero(np.ones((dim, dim), dtype=bool) if mask is None else mask)
        return cls._scatter(dim, (rows, cols), root_order, exponents[rows, cols], scale_pow2, meta)

    @classmethod
    def from_support(
        cls,
        root_order: int,
        cols: np.ndarray,
        exponents: np.ndarray,
        scale_pow2: int = 0,
        backend: str = "exact",
        meta: str | None = None,
    ) -> OpMatrix:
        """Matrix whose row i holds omega_{root_order}^{exponents[i]} * 2^{-scale_pow2}
        in column cols[i] and zeros elsewhere: a phased permutation, written
        straight from its support."""
        dim, exponents = len(cols), np.asarray(exponents)
        at = (np.arange(dim), cols)
        if backend == "float":
            data = np.zeros((dim, dim), dtype=np.complex128)
            data[at] = _roots(root_order)[exponents % root_order] * 2.0 ** (-scale_pow2)
            return cls.from_complex(data, meta=meta)
        return cls._scatter(dim, at, root_order, exponents, scale_pow2, meta)

    @classmethod
    def _scatter(cls, dim, at, root_order, exponents, scale_pow2, meta) -> OpMatrix:
        # exact matrix with omega_{root_order}^{exponents[k]} 2^{-scale_pow2} at
        # (rows[k], cols[k]) for at = (rows, cols), zero elsewhere
        order = _exact_order(root_order)
        size = basis_size(order)
        index, sign = encode_root(exponents * (order // root_order), size)
        coeffs = np.zeros((dim, dim, size), dtype=np.int64)
        coeffs[(*at, index)] = sign
        return cls(dim, "exact", coeffs=coeffs, order=order, scale_log2=scale_pow2, meta=meta)

    # -- internals --------------------------------------------------------

    def _promoted(self, order: int) -> OpMatrix:
        if self.order == order:
            return self
        coeffs = promote(self.coeffs, self.order, order)
        return OpMatrix(
            self.dim, "exact", coeffs=coeffs, order=order, scale_log2=self.scale_log2
        )

    def _check_pair(self, other: OpMatrix) -> tuple[OpMatrix, OpMatrix]:
        if not isinstance(other, OpMatrix):
            raise TypeError(f"OpMatrix expected, got {type(other).__name__}")
        if self.dim != other.dim:
            raise DimMismatch(f"dims {self.dim} and {other.dim}")
        if self.backend != other.backend:
            raise BackendMismatch(f"{self.backend} vs {other.backend}")
        if self.backend == "float":
            return self, other
        order = max(self.order, other.order)
        return self._promoted(order), other._promoted(order)

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: OpMatrix) -> OpMatrix:
        a, b = self._check_pair(other)
        if a.backend == "float":
            return OpMatrix.from_complex(a.data @ b.data)
        d = a.dim
        size = basis_size(a.order)
        bound = _top(a.coeffs) * _top(b.coeffs) * d * size
        if 2 * bound < _ntt_plan((max(d, size) - 1).bit_length(), size)[0]:
            coeffs = _ntt_matmul(a.coeffs, b.coeffs)
        else:  # past the prime: the regular matrices of a, in object ints
            emb = _regular(a.coeffs.astype(object)).transpose(0, 2, 1, 3)
            emb = emb.reshape(d * size, d * size)
            out = np.dot(emb, b.coeffs.transpose(0, 2, 1).reshape(d * size, d).astype(object))
            _checked(_top(out), "dense product")
            coeffs = out.astype(np.int64).reshape(d, size, d).transpose(0, 2, 1)
        return OpMatrix(
            d,
            "exact",
            coeffs=coeffs,
            order=a.order,
            scale_log2=a.scale_log2 + b.scale_log2,
        )

    def __add__(self, other: OpMatrix) -> OpMatrix:
        a, b = self._check_pair(other)
        if a.backend == "float":
            return OpMatrix.from_complex(a.data + b.data)
        t = max(a.scale_log2, b.scale_log2)
        sa, sb = t - a.scale_log2, t - b.scale_log2
        _checked((_top(a.coeffs) << sa) + (_top(b.coeffs) << sb), "rescaled sum")
        coeffs = (a.coeffs << sa) + (b.coeffs << sb)
        return OpMatrix(a.dim, "exact", coeffs=coeffs, order=a.order, scale_log2=t)

    def __sub__(self, other: OpMatrix) -> OpMatrix:
        return self + (-other)

    def __neg__(self) -> OpMatrix:
        if self.backend == "float":
            return OpMatrix.from_complex(-self.data)
        return OpMatrix(
            self.dim,
            "exact",
            coeffs=-self.coeffs,
            order=self.order,
            scale_log2=self.scale_log2,
        )

    def scalar_mul(self, s: CycNum | complex | int) -> OpMatrix:
        if self.backend == "float":
            if isinstance(s, CycNum):
                s = s.to_complex()
            return OpMatrix.from_complex(self.data * s)
        if isinstance(s, int):
            _checked(_top(self.coeffs) * abs(s), "integer scalar product")
            return OpMatrix(
                self.dim,
                "exact",
                coeffs=self.coeffs * s,
                order=self.order,
                scale_log2=self.scale_log2,
            )
        if not isinstance(s, CycNum):
            raise BackendMismatch("exact matrices take CycNum or int scalars")
        order = max(self.order, s.order)
        a = self._promoted(order)
        s = s.promote(order)
        _checked(_top(a.coeffs) * sum(abs(c) for c in s.coeffs), "scalar product")
        coeffs = a.coeffs @ _regular(np.array(s.coeffs, dtype=np.int64)).T
        return OpMatrix(
            self.dim,
            "exact",
            coeffs=coeffs,
            order=order,
            scale_log2=a.scale_log2 + s.scale_log2,
        )

    def dagger(self) -> OpMatrix:
        """Conjugate transpose."""
        if self.backend == "float":
            return OpMatrix.from_complex(self.data.conj().T)
        coeffs = conj_coeffs(self.coeffs.transpose(1, 0, 2))
        return OpMatrix(
            self.dim, "exact", coeffs=coeffs, order=self.order, scale_log2=self.scale_log2
        )

    def __pow__(self, e: int) -> OpMatrix:
        if e < 0:
            raise ValueError("negative matrix powers are not supported; use dagger")
        result = OpMatrix.identity(self.dim, self.backend, max(self.order, 8))
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base if e > 1 else base
            e >>= 1
        return result

    def kron(self, other: OpMatrix) -> OpMatrix:
        """Tensor product with index convention (d2*k1 + k2, d2*j1 + j2)."""
        if not isinstance(other, OpMatrix):
            raise TypeError(f"OpMatrix expected, got {type(other).__name__}")
        if self.backend != other.backend:
            raise BackendMismatch(f"{self.backend} vs {other.backend}")
        if self.backend == "float":
            return OpMatrix.from_complex(np.kron(self.data, other.data))
        order = max(self.order, other.order)
        a, b = self._promoted(order), other._promoted(order)
        size = basis_size(order)
        _checked(_top(a.coeffs) * _top(b.coeffs) * size, "Kronecker product")
        # block (i, j) of the product is b scaled by a[i, j]
        blocks = b.coeffs.reshape(-1, size) @ _regular(a.coeffs).swapaxes(-1, -2)
        coeffs = blocks.reshape(a.dim, a.dim, b.dim, b.dim, size).transpose(0, 2, 1, 3, 4)
        coeffs = coeffs.reshape(a.dim * b.dim, a.dim * b.dim, size)
        return OpMatrix(
            a.dim * b.dim,
            "exact",
            coeffs=coeffs,
            order=order,
            scale_log2=a.scale_log2 + b.scale_log2,
        )

    # -- conversions and access -------------------------------------------

    def entry(self, i: int, j: int) -> CycNum | complex:
        if self.backend == "float":
            return complex(self.data[i, j])
        return CycNum(self.order, self.coeffs[i, j], self.scale_log2)

    def to_complex_array(self) -> np.ndarray:
        if self.backend == "float":
            return self.data.copy()
        size = basis_size(self.order)
        roots = np.exp(2j * np.pi * np.arange(size) / self.order)
        return np.einsum("ijk,k->ij", self.coeffs, roots) * 2.0 ** (-self.scale_log2)

    def to_float(self) -> OpMatrix:
        if self.backend == "float":
            return self
        return OpMatrix.from_complex(self.to_complex_array(), meta=self.meta)

    def unitary_defect(self) -> float:
        prod = self @ self.dagger()
        eye = OpMatrix.identity(self.dim, self.backend, max(self.order, 8))
        return mat_eq(prod, eye).max_deviation

    def __repr__(self) -> str:
        return f"OpMatrix(dim={self.dim}, backend={self.backend!r}, meta={self.meta!r})"


def kron(a: OpMatrix, b: OpMatrix) -> OpMatrix:
    return a.kron(b)


def twist_perm(dim: int, backend: str = "exact", order: int = 8) -> OpMatrix:
    """Swap of tensor factors on a dim^2 space: d*a+b -> d*b+a."""
    total = dim * dim
    swap = np.arange(total).reshape(dim, dim).T.ravel()  # row d*b+a holds column d*a+b
    return OpMatrix.from_support(order, swap, np.zeros(total, dtype=np.int64), backend=backend)


def mat_eq(a: OpMatrix, b: OpMatrix, tol: float = 1e-9) -> MatCompare:
    """Compare matrices; exact pairs ignore tol, anything else uses it."""
    if a.dim != b.dim:
        raise DimMismatch(f"dims {a.dim} and {b.dim}")
    if a.backend == "exact" and b.backend == "exact":
        order = max(a.order, b.order)
        x, y = a._promoted(order), b._promoted(order)
        # construction strips common factors of two, so equal values have
        # equal (scale, coefficients): no rescaling, nothing to overflow
        if x.scale_log2 == y.scale_log2 and np.array_equal(x.coeffs, y.coeffs):
            return MatCompare(True, 0.0)
        dev = float(np.abs(a.to_complex_array() - b.to_complex_array()).max())
        return MatCompare(False, dev)
    dev = float(np.abs(a.to_complex_array() - b.to_complex_array()).max(initial=0.0))
    return MatCompare(dev <= tol, dev)


def matrix_to_json_dict(m: OpMatrix) -> dict:
    if m.backend == "float":
        entries = [
            [{"re": float(v.real), "im": float(v.imag)} for v in row] for row in m.data
        ]
    else:
        entries = [
            [m.entry(i, j).to_dict() for j in range(m.dim)] for i in range(m.dim)
        ]
    return {"dim": m.dim, "backend": m.backend, "entries": entries}


def matrix_to_csv_text(m: OpMatrix) -> str:
    lines = [f"# dim={m.dim} backend={m.backend}"]
    values = m.to_complex_array()
    for row in values:
        cells = []
        for v in row:
            cells.append(f"{v.real:.17g},{v.imag:.17g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
