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

The builders' tables are read by one exponent encoder (`_index`: the
exponent mod the order on the support or mask, the order off it), and
`_phase_law` decides X Y == Z on three `_SlotTable`s.  Where X or Y is a
phased permutation P (`_SupportTable`, every c = 0 closed form), P W is W
with its rows or columns permuted and phases added, so the law is decided
on the exponent indexes (`_side_law`), exactly and with no prime.  Two
`_FactorTable`s (every c != 0 closed form: a chirp, a transform of side n,
a chirp, on cosets of g = 2^v), whose entries are a(k1, j1, j2) + b(k1, k2,
j1), are evaluated at the same L roots mod the same prime: a table of one
block (dim <= 64) keeps its whole evaluation, and past it one of them is
applied in two batched stages, 2 n^5/g multiply-adds per slot instead of
n^6, one slot (or past dim 256 a block of its columns) at a time in reused
buffers, or to n columns of each slot where J-covariance proves the rest
(`_covariance_law`).  The dense `_PhaseTable` of a factor table is summed
in one place, `_phase_table`, for the consumers that read a matrix or an
index.
Laws of phased permutations are decided on their integer exponents by
`_support_law`, on a table prepared once (`_law_table`).

Float laws over many keys run on stacks: `_float_stack` densifies the
members of a support table, and `_stack_deviation` compares the two sides
of a law a block of keys at a time, in stacked products whose deviations
keep the bits of the products taken one at a time.
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


class _FactorTable(NamedTuple):
    """A phase matrix of dim n^2 by two exponent factors of n^3 entries: with
    k = (k1, k2) the row and j = (j1, j2) the column (index n x1 + x2), entry
    (k, j) is 2^{-scale_pow2} omega_order^{a[k1, j1, j2] + b[k1, k2, j1]} where
    j1 = cosets[k1] and j2 = cosets[k2] (mod g), and 0 elsewhere.  With g = 1
    and cosets 0 the table is unmasked.  The factors hold exponents mod order
    in the smallest unsigned type that holds it, so their
    sums wrap mod a multiple of the order."""

    order: int
    a: np.ndarray
    b: np.ndarray
    g: int
    cosets: np.ndarray
    scale_pow2: int


def _factor_exps(table: _FactorTable, order: int) -> np.ndarray:
    # the (dim, dim) exponents a + b of omega_order (a multiple of the
    # table's order) at every entry, mask or not, in the smallest unsigned
    # type that holds the order
    n = len(table.cosets)
    exps = np.repeat(table.b.astype(np.min_scalar_type(order)), n, axis=-1)  # [k1, k2, (j1, j2)]
    exps += table.a.reshape(n, 1, -1)
    exps *= order // table.order
    exps &= order - 1
    return exps.reshape(n * n, -1)


def _phase_table(table: _SupportTable | _PhaseTable | _FactorTable) -> _SupportTable | _PhaseTable:
    """A `_FactorTable` as its dense `_PhaseTable`, its `_index` at its order
    (exponents mod the order, the order off the mask, which is None for g =
    1); any other table as it is."""
    if not isinstance(table, _FactorTable):
        return table
    index = _index(table, table.order)
    return _PhaseTable(table.order, index, None if table.g == 1 else index != table.order,
                       table.scale_pow2)


def _index(table: _SupportTable | _PhaseTable | _FactorTable, order: int) -> np.ndarray:
    """The (dim, dim) omega_order exponents of a 1-d `_SupportTable`, a
    `_PhaseTable` or a `_FactorTable`, `order` a power of two the table's
    order divides: E order/table.order mod order on the support or mask,
    `order` off it, in `np.min_scalar_type(order)`."""
    dtype, low = np.min_scalar_type(order), order - 1
    if isinstance(table, _SupportTable):
        dim = len(table.cols)
        index = np.full((dim, dim), order, dtype=dtype)
        index[np.arange(dim), table.cols] = table.exps * (order // table.order) & low
        return index
    if isinstance(table, _FactorTable):
        return _coset_index(table, order, dtype) if table.g > 1 else _factor_exps(table, order)
    exps = (table.exps * (order // table.order) & low).astype(dtype)
    if table.mask is not None:
        np.putmask(exps, ~table.mask, order)
    return exps


def _coset_index(table: _FactorTable, order: int, dtype) -> np.ndarray:
    # `_index` of a masked factor table: the marker, then a + b on each coset
    # block (j1, j2 on the cosets of k1, k2), dim^2/g^2 entries, no dim^2 mask
    n, g = len(table.cosets), table.g
    j = table.cosets[:, None] + g * np.arange(n // g)  # j[k, i]: the i-th column on k's coset
    j1, j2 = j[:, None, :, None], j[None, :, None, :]
    k1, k2 = np.arange(n)[:, None, None, None], np.arange(n)[:, None, None]
    exps = table.a.reshape(-1).take((k1 * n + j1) * n + j2).astype(dtype)
    exps += table.b.reshape(-1).take((k1 * n + k2) * n + j1)
    exps *= order // table.order
    exps &= order - 1
    index = np.full((n * n, n * n), order, dtype=dtype)
    index.reshape(-1)[((k1 * n + k2) * n + j1) * n + j2] = exps
    return index


# float64 entries per block of `_phase_law` (512 KB): every slot of a dim <=
# 64 table is one block, a dim-256 block is one slot, and a dim-1,024 block
# 64 columns of one slot (at N = 32 in process, blocks of 32-64 columns took
# 0.21-0.25 s per pair, whole slots 0.37-0.41 s)
_SLOT_BLOCK = 1 << 16


class _Route(NamedTuple):
    """A factor table's matrix F, or its transpose, applied in two stages
    from the left to one slot of a matrix W, dim x dim (`_apply`).  W's rows
    are read in the order `rows_in`, and row t of the result is row
    rows_out[t] of F_m W_m.  Each stage is (residues, index), its values at
    slot m residues[m, index], of shape (g, n/g, g, n/g, n/g)."""

    rows_in: np.ndarray
    rows_out: np.ndarray
    stages: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

    @property
    def work(self) -> int:
        # multiply-adds per column of W at one slot, 2 n^3/g
        return sum(index.size for _, index in self.stages)


class _SlotTable(NamedTuple):
    """A table's matrix X by its exponent index (`_index`) and at the L roots
    of x^L + 1 mod the word prime p: X_m[i, j] = roots[m, index[i, j]] at
    the m-th root, where roots[m, e] is the centred residue of 2^{-s} omega^e
    (e < order = 2L, 2^{-1} taken mod p) and the last column, the index of
    every entry off the mask or support, is 0.  So the dim x dim products of
    two tables' slots are their product's.

    A table of one block (L dim^2 <= `_SLOT_BLOCK`) keeps its whole gather
    in `values`.  A `_FactorTable` past one block whose cosets are g classes
    of n/g keeps `left` and `right`, the two-stage `_Route`s of X and X^T.
    A 1-d `_SupportTable` P keeps `support` = (cols, exps, inverse) for
    `_side_law`: row i of P holds omega^exps[i] (mod order) in column
    cols[i], and row inverse[k] holds column k, or inverse is None when cols
    is no permutation; it has no route.  scale_pow2 is the table's.
    `covariant` is empty or holds the function () -> whether J_l X = X J_{lA}
    at every l, for X's element A, that a suite appends (`_covariance_law`)."""

    p: int
    index: np.ndarray
    roots: np.ndarray
    values: np.ndarray | None
    left: _Route | None
    right: _Route | None
    support: tuple[np.ndarray, np.ndarray, np.ndarray | None] | None
    scale_pow2: int
    covariant: list


def _slot_table(table: _SupportTable | _FactorTable) -> _SlotTable:
    """A 1-d `_SupportTable` or a `_FactorTable` at the L roots, mod the prime
    of the plan `_ntt_matmul` uses at its dim: omega^e goes to
    (zeta^{(2m+1) e})_m, the column e of [fwd, -fwd] (omega^{L+k} =
    -omega^k), times 2^{-scale_pow2}.  A factor table's stages are read from
    its factors; a dense `_PhaseTable` has none (`metaplectic._s_table`
    writes one for `u_s`, but no suite builds a slot table from it)."""
    order = _exact_order(table.order)
    size = basis_size(order)
    index = _index(table, order)
    dim = len(index)
    support, scale, routes = None, getattr(table, "scale_pow2", 0), (None, None)
    if isinstance(table, _SupportTable):
        inverse = np.argsort(table.cols)
        permutes = np.array_equal(table.cols[inverse], np.arange(dim))
        support = table.cols, index[np.arange(dim), table.cols], inverse if permutes else None
    p, fwd, _ = _ntt_plan((max(dim, size) - 1).bit_length(), size)
    units = np.concatenate((fwd, -fwd, np.zeros((size, 1))), axis=1)
    # |fwd| <= (p - 1)/2 times 2^{-s} mod p < p stays below p^2/2 < 2^51 (p < 2^26)
    roots = _reduce(units * float(pow(2, -scale, p)), p)
    values = roots.take(index, axis=1) if size * dim * dim <= _SLOT_BLOCK else None
    if values is None and isinstance(table, _FactorTable):
        factors = (f * (order // table.order) & (order - 1) for f in (table.a, table.b))
        routes = _stage_routes(*factors, table.g, table.cosets, units, roots) or routes
    return _SlotTable(p, index, roots, values, *routes, support, scale, [])


def _stage_routes(a, b, g, cosets, units, roots) -> tuple[_Route, _Route] | None:
    """The stages of a `_FactorTable` X, with a, b its factors in slot units,
    or None unless every coset holds n/g indices.

    Write K[r, q] for the q-th index of coset r, k1 = K[r, q1], j1 = r + g i
    (the j1 in k1's coset) and j2 = rho + g s.  Stage 1 sums over s,
    T[r, i, rho, q1] = sum_s A[k1, j1, j2] W[(j1, j2)], batched over (r, i,
    rho); stage 2 sums over i, (X W)[(k1, K[rho, q2])] = sum_i B[k1, K[rho,
    q2], j1] T[r, i, rho, q1], batched over (r, q1, rho).  So W is read in
    the order (r, i, rho, s) and X W comes out in the order (r, q1, rho,
    q2); X^T is the same two factors transposed, in reverse, with the orders
    swapped.  A is read unscaled and B with 2^{-s}.  Each stage is (n/g)^2
    multiply-adds per column and batch, g n batches: 2 n^5/g per slot for
    dim columns, not n^6.
    """
    n = len(cosets)
    M = n // g
    if not np.array_equal(np.bincount(cosets, minlength=g), np.full(g, M)):
        return None
    K = np.argsort(cosets, kind="stable").reshape(g, M)
    coset = np.arange(g)[:, None] + g * np.arange(M)  # coset[r, i] = r + g i
    first = (K[:, None, None, :, None] * n + coset[..., None, None, None]) * n + coset[:, None, :]
    second = (K[..., None, None, None] * n + K[:, :, None]) * n + coset[:, None, None, None]
    first, second = a.reshape(-1).take(first), b.reshape(-1).take(second)
    by_coset = lambda x: (n * x[:, None] + x).ravel()  # noqa: E731
    rows, coset_rows = by_coset(coset.ravel()), by_coset(K.ravel())
    T = lambda x: x.swapaxes(-1, -2)  # noqa: E731
    return (_Route(rows, coset_rows, ((units, first), (roots, second))),
            _Route(coset_rows, rows, ((roots, T(second)), (units, T(first)))))


def _side_law(x: _SlotTable, y: _SlotTable, z: _SlotTable) -> bool | None:
    """Whether X Y == Z when X or Y is a phased permutation P, decided on the
    exponent indexes, or None when neither is.

    Row i of P W is row c(i) of W, times omega^e(i); column c(k) of W P is
    column k of W, times omega^e(k), so column j of W P is column c^-1(j)
    of W, times omega^e(c^-1(j)).  Entries off W's support or mask stay off
    it, and P's scale is 1, so P W's scale is W's.  2^-s omega^e values are
    equal exactly when s and e mod the order are, so the law holds exactly
    when W's scale is Z's and the indexes are equal.  A Y whose columns are
    no permutation proves nothing (False)."""
    if x.support is not None:
        cols, exps, _ = x.support
        w, got, phase = y, y.index[cols], exps[:, None]
    elif y.support is not None:
        _, exps, inverse = y.support
        if inverse is None:
            return False
        w, got, phase = x, x.index[:, inverse], exps[inverse]
    else:
        return None
    order = 2 * len(z.roots)
    off = got == order
    got += phase
    got &= order - 1
    np.putmask(got, off, order)
    return w.scale_pow2 == z.scale_pow2 and bool((got == z.index).all())


def _phase_law(x: _SlotTable, y: _SlotTable, z: _SlotTable) -> bool:
    """Whether X Y == Z, proven on slot tables (False: not proven).

    A phased-permutation side is decided on the exponent indexes
    (`_side_law`), with no prime and no bound.  Otherwise, with s the
    scales, X Y == Z says 2^{s_Z} X' Y' == 2^{s_X + s_Y} Z' for the integral
    matrices X' = 2^{s_X} X etc.  Every |coefficient| of the left is at most
    dim 2^{s_Z} and of the right 2^{s_X + s_Y}; when they sum below p,
    equality mod p at the L roots (an isomorphism mod p, 2 being a unit) is
    equality in Z[omega], on any set of columns; a pair past the bound is
    not proven.

    Tables of one block are multiplied from their cached values, all slots
    at once.  Past one block, a pair whose tables carry holding conjugation
    verdicts is proven from n columns (`_covariance_law`).  Otherwise the
    slots go one at a time, past dim 256 in blocks of `_SLOT_BLOCK` / dim
    columns, each block's product reduced in place and compared with Z's,
    stopping at the first unequal block: X's stages applied to Y_m, or Y's
    transposed stages to X_m^T against Z_m^T, whichever do the less work
    (`_Route.work`, X's on a tie), each side read in the route's row orders.
    A pair with no stages is not proven.
    """
    side = _side_law(x, y, z)
    if side is not None:
        return side
    p, dim = x.p, len(x.index)
    if (dim << z.scale_pow2) + (1 << (x.scale_pow2 + y.scale_pow2)) >= p:
        return False
    if x.values is not None:
        return bool((_reduce(x.values @ y.values, p) == z.values).all())
    if _covariance_law(x, y, z):
        return True
    routes = [(r, side) for r, side in ((x.left, False), (y.right, True)) if r is not None]
    if not routes:
        return False
    route, transpose = min(routes, key=lambda rs: rs[0].work)
    width = math.gcd(dim, _SLOT_BLOCK // dim)
    other = _gather(x if transpose else y, width, transpose, route.rows_in)
    want = _gather(z, width, transpose, route.rows_out)
    one, two, out = np.empty((3, dim, width))  # reused by every block
    for m in range(len(x.roots)):
        stages = [residues[m].take(index) for residues, index in route.stages]
        for b in range(dim // width):
            got = _apply(*stages, other(m, b, one), p, out, two)
            if not (got == want(m, b, one)).all():  # `one` is read by now
                return False
    return True


def _covariance_law(x: _SlotTable, y: _SlotTable, z: _SlotTable) -> bool:
    """Whether X Y == Z is proven by J-covariance (False: not proven), under
    `_phase_law`'s bound.

    Let X, Y and Z meet J_l U = U J_{lA} at every point l, for A, B and AB
    (each table's `covariant` verdict).  Then D = X Y - Z meets J_l D =
    D J_{l AB}, as J_l X Y = X J_{lA} Y = X Y J_{lAB}.  J_{r,s} e_{(j1, j2)}
    is a unit times e_{(j1 + r, j2 + r)}, so the J's carry the columns (0,
    t), t < n, to every column (the verdicts hold only where the run's J
    table does), and D e_j = 0 there gives D J_m e_j = J_{m (AB)^-1} D e_j
    = 0: D = 0.  So the first n columns are compared,
    at every slot mod p: from the values of tables of one block, else as X's
    stages applied to n columns of Y, `_SLOT_BLOCK` / (dim n) slots at a time.
    """
    if not all(t.covariant and t.covariant[0]() for t in (x, y, z)):
        return False
    p, n = x.p, math.isqrt(len(x.index))
    if x.values is not None:
        return bool((_reduce(x.values @ y.values[..., :n], p) == z.values[..., :n]).all())
    route = x.left
    if route is None:
        return False
    w, want = y.index[route.rows_in, :n], z.index[route.rows_out, :n]
    step = max(1, _SLOT_BLOCK // w.size)
    for m in range(0, len(x.roots), step):
        at = slice(m, m + step)
        block = y.roots[at].take(w, axis=1)
        stages = [residues[at].take(index, axis=1) for residues, index in route.stages]
        got = _apply(*stages, block, p, *np.empty((2, *block.shape)))
        if not (got == z.roots[at].take(want, axis=1)).all():
            return False
    return True


def _gather(t: _SlotTable, width: int, transpose: bool, rows: np.ndarray):
    # (m, b, out) -> columns b width ... (b + 1) width of slot m of t's
    # matrix, or of its transpose, its rows in the order `rows`, gathered into
    # out through one intp copy of the index, a block of columns contiguous
    index = (t.index.T if transpose else t.index)[rows]
    blocks = index.reshape(len(index), -1, width).swapaxes(0, 1).astype(np.intp, order="C")
    return lambda m, b, out: np.take(t.roots[m], blocks[b], out=out, mode="clip")


def _apply(first: np.ndarray, second: np.ndarray, w: np.ndarray, p: int, out, mid) -> np.ndarray:
    """F_m W_m into `out` for one slot, or for a block of slots along a
    leading axis, `first` and `second` a `_Route`'s stages' values there and
    w the block of W in the route's row order; `mid` holds the first stage.
    Every product is of centred residues, each stage's sums of n/g <= dim
    products reduced in place, exact under `_ntt_plan`'s span rule."""
    shape = first.shape[:-1] + w.shape[-1:]  # ([slots,] g, n/g, g, n/g, columns)
    t = _reduce(np.matmul(first, w.reshape(shape), out=mid.reshape(shape)), p)
    np.matmul(second, t.swapaxes(-4, -2), out=out.reshape(shape))
    return _reduce(out, p)


# table entries (pairs x dim) per block of `_support_law`; perfbench
# cocycle-monomial on a 2-vCPU box, 4 seeds, every law on the full J table:
# 2^14 3.2-3.4 ms wall_s and 40.9-41.2 MB peak RSS, 2^15 3.8-4.1 ms and
# 41.6-41.7 MB, 2^16 3.8-4.2 ms and 41.9-42.1 MB
_LAW_BLOCK = 1 << 14


class _LawTable(NamedTuple):
    """A `_SupportTable` as `_support_law` reads it, prepared once by
    `_law_table`: codes (row, member) in the smallest unsigned type, entry
    (i, t) the exponent of row i of member t mod the order, above the
    `shift` bits of its column."""

    order: int
    shift: int
    codes: np.ndarray


def _law_table(table: _SupportTable) -> _LawTable:
    """The table prepared for `_support_law`, once per suite call.  Its order
    must divide 2^16, so that codes in an unsigned type wrap mod a multiple
    of it.  The builders' int64 tables stay as they are for
    `_conjugation_scan`."""
    order, dim = table.order, table.cols.shape[1]
    if (1 << 16) % order:
        raise ValueError(f"_support_law needs an order dividing 2^16, got {order}")
    shift = (dim - 1).bit_length()
    codes = table.exps.astype(np.min_scalar_type((order << shift) - 1))
    codes &= order - 1
    codes <<= shift
    codes |= table.cols.astype(np.min_scalar_type(dim - 1))
    return _LawTable(order, shift, np.ascontiguousarray(codes.T))  # transposed once narrow


def _member_is_identity(table: _LawTable, t: int) -> bool:
    """Whether member t of a `_support_law` table is the identity."""
    return bool((table.codes[:, t] == np.arange(len(table.codes))).all())


def _support_law(
    table: _LawTable, left: np.ndarray, right: np.ndarray, out: np.ndarray, phase: np.ndarray,
) -> np.ndarray:
    """Whether X Y == omega_order^{phase[k]} Z for X, Y, Z the members left[k],
    right[k], out[k] of the table.

    Row i of X Y holds, in Y's column at row c_X[i], the exponent
    e_X[i] + e_Y[c_X[i]]; a pair is equal when those columns are Z's and the
    exponents differ from Z's by phase[k] mod the table's order: integer
    exponent arithmetic, a block of pairs at a time.  On the codes that is
    one test: the code of X Y's row i, less Z's and the phase, is zero in the
    column and exponent bits exactly when that row is equal.  The arrays are
    (row, pair), so adding the phase and reducing a pair's rows run along
    the pairs.  Gathers read only the members of the block's pairs.
    """
    order, shift, codes = table
    dim, count = codes.shape
    low = (1 << shift) - 1  # the column bits
    mask = ((order - 1) << shift) | low
    phase = (phase % order).astype(codes.dtype) << shift
    equal = np.empty(len(left), dtype=bool)
    step = max(1, _LAW_BLOCK // dim)
    for a in range(0, len(left), step):
        k = slice(a, a + step)
        x = codes.take(left[k], axis=1)
        c = x & low
        at = c * np.intp(count)  # row c_X[i] of Y, flat
        at += right[k]
        e = codes.take(at)
        e += x
        e -= c
        e -= codes.take(out[k], axis=1)
        e -= phase[k]
        e &= mask
        equal[k] = np.bitwise_or.reduce(e, axis=0) == 0
    return equal


# complex128 entries per stack of a float block (64 KB, so a block's
# temporaries stay well under 1 MB).  The weil-odd N = 7 suite, 16,464
# conjugations with its J's gathered from one stack, took 24-28 ms with
# 2^12, 24-26 ms with 2^13, 24-29 ms with 2^14, 26-37 ms with 2^11 and
# 35-50 ms with 2^16 (medians of two rounds of six, 2 vCPUs, BLAS on 1
# thread).  The character scan holds the N^4 entries of U pi U^-1 per
# element: 16 elements a block at N = 4, one from N = 8 on
_FLOAT_BLOCK = 1 << 12


def _float_stack(table: _SupportTable, members=slice(None)) -> np.ndarray:
    """The float matrices of a support table's `members`, a (count, dim, dim)
    complex128 stack with entries `_roots`(order)[exps]: bit for bit the
    data of `OpMatrix.from_support` on each member."""
    cols, exps = table.cols[members], table.exps[members]
    count, dim = cols.shape
    out = np.zeros((count, dim, dim), dtype=np.complex128)
    out[np.arange(count)[:, None], np.arange(dim), cols] = _roots(table.order)[exps]
    return out


def _stack_deviation(count: int, dim: int, sides) -> np.ndarray:
    """max |X_k - Y_k| over the entries of dim x dim float matrices, for every
    key k < count, where sides(block) gives the stacks (X, Y) of a slice of
    keys, `_FLOAT_BLOCK` entries per stack.

    A stacked `matmul` makes the same BLAS call per slice as the 2-D
    product, and the difference, abs and max are elementwise, so each
    deviation has the bits of `mat_eq` on the same products.
    """
    step = max(1, _FLOAT_BLOCK // dim**2)
    dev = np.empty(count)
    for a in range(0, count, step):
        x, y = sides(slice(a, a + step))
        dev[a:a + step] = np.abs(x - y).max(axis=(1, 2), initial=0.0)
    return dev


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
        A float matrix is one gather from the roots already scaled by
        2^{-scale_pow2} (exact, a power of two) with a zero appended at
        index root_order, where the entries off the mask point: the bits of
        the root gathered, masked and scaled in place.
        """
        exponents = np.asarray(exponents)
        dim = exponents.shape[0]
        if exponents.shape != (dim, dim):
            raise DimMismatch(f"exponent table shape {exponents.shape}")
        if backend == "float":
            roots = np.append(_roots(root_order) * 2.0 ** (-scale_pow2), 0)
            at = exponents % root_order
            if mask is not None:
                at = np.where(mask, at, root_order)
            return cls.from_complex(np.take(roots, at), meta=meta)
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
