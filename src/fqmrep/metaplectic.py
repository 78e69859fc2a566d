"""Unitary metaplectic representations of SL2(Z_N).

Two flavors are built here.  For N = 2^n the representation lives on
C^{N^2} on top of the twisted magnetic translations: generators

    U(S)_{(k1,k2),(j1,j2)} = 2^{-n} omega^{p(k1 j2 + k2 j1)}
    U(T)_{(k1,k2),(j1,j2)} = omega^{-p k1 k2} [k1=j1][k2=j2]

and a closed form for arbitrary A, split on c.  With k = (k1, k2) the
row and j = (j1, j2) the column:

    c = 0     phased permutation k -> d^{-1} k with phase
              omega^{-p b d^{-1} k1 k2} (d is odd then)
    c odd     single-phase table 2^{-n} omega^{p(-a k1 k2 + k1 j2 + k2 j1
              - d j1 j2)/c}
    c even    the r-sum closed per entry (d is odd then): one masked phase
              table scaled by 2^{v-n}, where 2^v || c d^{-1}

The branch label in .meta keeps the older four names: d-odd-triangular,
d-odd-reduced or d-even (c odd, by the parity of d), and d-odd-sum.
Each branch writes its table, not a matrix (`_closed_form`): the c = 0
support as a `_SupportTable`, the others as the two N^3 exponent factors
of a `_FactorTable`, entry (k, j) = a(k1, j1, j2) + b(k1, k2, j1) on the
cosets j = d^{-1} k mod 2^v (v = 0 for odd c): a chirp, a transform of
side N and a chirp.  `u_general` builds the OpMatrix from the dense table
the factors sum to (`_phase_table`), and the exact `homomorphism` suite
decides U(A)U(B) = U(AB) on the tables alone.

Every branch agrees exactly with the product of generator images over
the shear/dilatation word of the element, and U(A)U(B) = U(AB) holds
exactly, so the map is a proper representation, not just projective.

For odd prime N the representation lives on C^N over the plain
magnetic translations (`weil_odd_general` refuses a composite odd N with
ValueError).  c != 0 takes the generic Gauss-sum form.  c = 0,
A = D(a) T^{a^{-1} b}, takes the signed dilatation permutation times
U(T)^{a^{-1} b}, where U(T) = U(S)^{-1} U(ST) is the diagonal
omega^{-m^2/2} (the middle Gauss sum collapses): a phased permutation,
built as one.  The total map is an exact homomorphism as well.  One
wrinkle, kept deliberately visible: the permutation m -> a m conjugates
J_{r,s} by the torus action of diag(a^{-1}, a), so the image of D(a)
uses the inverse argument.  `_weil_odd_stack` writes both branches for
many elements at once; the one-element builders are calls of it.

The property J_{r,s} U(A) = U(A) J_{(r,s)A} is decided for many elements
in one `_conjugation_scan`, on a float stack of their matrices or on each
element's exact table; `verify_metaplectic` is that scan on one element.

Everything with N = 2^n defaults to the exact cyclotomic backend;
odd-N matrices carry 1/sqrt(N) and stay in floats.
"""

from __future__ import annotations

import math
from functools import cache, partial

import numpy as np

from .exactnum import NotAUnit, _is_odd_prime, jacobi_symbol
from .heisenberg import HWParams
from .magnetic import _odd_support, _twisted_support, j_odd, j_twisted
from .matrixcore import (
    OpMatrix, _FactorTable, _float_stack, _index, _law_table, _LawTable, _member_is_identity,
    _PhaseTable, _phase_table, _roots, _stack_deviation, _support_law, _SupportTable, mat_eq,
)
from .report import VerifyReport
from .sl2 import SL2Element, Token, dilatation, sl2_t

__all__ = [
    "BadBranch",
    "NonGeneric",
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


def _s_table(params: HWParams) -> _PhaseTable:
    # U(S) by its printed formula 2^{-n} omega^{p(k1 j2 + k2 j1)}
    N, p = params.N, params.p
    _, k1, k2 = _grids(N)
    E = (p * (k1[:, None] * k2[None, :] + k2[:, None] * k1[None, :])) % N
    return _PhaseTable(N, E, None, params.n)


def u_s(params: HWParams, backend: str | None = None) -> OpMatrix:
    """Fourier-like generator image U(S) on C^{N^2}, from its own printed formula
    (`_s_table`); `decomposition` checks the closed form at S against it."""
    return _table_op(params, _s_table(params), backend, "u_s")


def u_t_pow(params: HWParams, m: int, backend: str | None = None) -> OpMatrix:
    """Diagonal U(T)^m = diag omega^{-p m k1 k2}: the c = 0 closed form at T^m."""
    table = _closed_triangular(params, sl2_t(params.N, m))
    return _table_op(params, table, backend, f"u_t^{m % params.N}")


def u_t(params: HWParams, backend: str | None = None) -> OpMatrix:
    return u_t_pow(params, 1, backend)


def u_d(params: HWParams, a: int, backend: str | None = None) -> OpMatrix:
    """Dilatation image U(D(a)): the bare permutation k -> a^{-1} k, no phase.

    Row k holds a 1 in column a k: the c = 0 closed form at D(a) =
    diag(a, a^{-1}), NotAUnit unless a is a unit.  This equals the T/S word
    product over `dilatation_word`; tests pin that down rather than assuming it.
    """
    table = _closed_triangular(params, dilatation(params.N, a))
    return _table_op(params, table, backend, f"u_d({a % params.N})")


def u_of_word(
    params: HWParams, word: list[Token], backend: str | None = None
) -> OpMatrix:
    """Left-to-right product of generator images for a T/S/D token word."""
    N = params.N
    backend = params.default_backend() if backend is None else backend
    out = OpMatrix.identity(N * N, backend, order=max(N, 8))

    @cache  # U(S)^k, built on first use
    def s_power(k: int) -> OpMatrix:
        if k == 1:
            return u_s(params, backend)
        if k in (-1, 2):
            return s_power(1).dagger() if k == -1 else s_power(1) @ s_power(1)
        raise ValueError(f"S exponent must be in {{1, -1, 2}}, got {k}")

    for kind, arg in word:
        if kind == "T":
            factor = u_t_pow(params, arg, backend)
        elif kind == "S":
            factor = s_power(arg)
        elif kind == "D":
            factor = u_d(params, arg, backend)
        else:
            raise ValueError(f"unknown token kind {kind!r}")
        out = out @ factor
    return out


def _closed_triangular(params: HWParams, A: SL2Element) -> _SupportTable:
    # c = 0: phased permutation (k1,k2) -> (d^{-1} k1, d^{-1} k2).
    N, p = params.N, params.p
    _, b, _, d = A.entries()
    dinv = pow(d, -1, N)
    _, k1, k2 = _grids(N)
    cols = N * ((dinv * k1) % N) + (dinv * k2) % N
    return _SupportTable(N, cols, (-p * b * dinv * k1 * k2) % N)


def _closed_odd_sum(params: HWParams, A: SL2Element) -> _FactorTable:
    # c even and nonzero, so d is odd: entry (k, j) sums 2^-n omega^{base(k) + p e r}
    # over the r with c' r = t (mod N), where c' = c d^{-1} = 2^v u (u odd),
    # t = d^{-1} k1 - j1 and e = j2 - d^{-1} k2.  With g = 2^v and M = N/g the
    # solutions are r0 + M s (s < g, r0 = (t/g) u^{-1} mod M) when g | t, and
    # the sum over s is g when g | e, else 0: one phase per entry, scaled by
    # 2^{v-n}, on the cosets j1 = d^{-1} k1 and j2 = d^{-1} k2 (mod g).  Its
    # factors: a = p r0 j2 and b = base - p d^{-1} k2 r0.  (Odd c, v = 0,
    # gives `_closed_c_odd`'s table.)
    N, p = params.N, params.p
    _, b, c, d = A.entries()
    dinv = pow(d, -1, N)
    ratio = c * dinv % N
    v = (ratio & -ratio).bit_length() - 1
    k = np.arange(N)
    t = (dinv * k[:, None] - k) % N  # t[k1, j1]
    r0 = (t >> v) * pow(ratio >> v, -1, N >> v) % (N >> v)  # meaningful where g | t
    base = -p * b * dinv * k[:, None] * k % N  # base[k1, k2]
    first = p * r0[..., None] * k % N  # [k1, j1, j2]
    second = (base[..., None] - p * dinv * k[:, None] * r0[:, None]) % N  # [k1, k2, j1]
    return _factors(params, first, second, 1 << v, dinv * k % (1 << v), params.n - v)


def _closed_c_odd(params: HWParams, A: SL2Element) -> _FactorTable:
    # c odd, so 1/c exists: one phase per entry, p c^{-1} (k1 j2 - d j1 j2) +
    # p c^{-1} (k2 j1 - a k1 k2).  For odd d this is the r-sum collapsed
    # (b d^{-1} + c^{-1} d^{-1} = a c^{-1}), labelled d-odd-reduced.
    N, p = params.N, params.p
    a, _, c, d = A.entries()
    pc = p * pow(c, -1, N)
    k = np.arange(N)
    first = pc * (k[:, None, None] - d * k[:, None]) * k % N  # [k1, j1, j2]
    second = pc * (k - a * k[:, None, None]) * k[:, None] % N  # [k1, k2, j1]
    return _factors(params, first, second, 1, np.zeros(N, dtype=np.intp), params.n)


def _factors(params: HWParams, a, b, g: int, cosets, scale_pow2: int) -> _FactorTable:
    # a builder's factors, exponents mod N, in the smallest unsigned type that holds N
    dtype = np.min_scalar_type(params.N)
    return _FactorTable(params.N, a.astype(dtype), b.astype(dtype), g, cosets, scale_pow2)


def _closed_form(params: HWParams, A: SL2Element) -> tuple[_SupportTable | _FactorTable, str]:
    """U(A)'s table from the formula of its branch, and the branch's name."""
    if not params.is_even:
        raise BadBranch(f"closed forms need N = 2^n, got {params.N}")
    if A.N != params.N:
        raise BadBranch(f"element modulus {A.N} != {params.N}")
    if A.c == 0:
        return _closed_triangular(params, A), "d-odd-triangular"
    if A.c % 2:
        return _closed_c_odd(params, A), "d-odd-reduced" if A.d % 2 else "d-even"
    return _closed_odd_sum(params, A), "d-odd-sum"


def _table_op(
    params: HWParams, table: _SupportTable | _PhaseTable | _FactorTable, backend: str | None,
    meta: str,
) -> OpMatrix:
    # the matrix a builder's table describes; a float factor table is one
    # gather from its index, reduced, its marker on a zero appended to the roots
    backend = params.default_backend() if backend is None else backend
    if backend == "float" and isinstance(table, _FactorTable):
        roots = np.append(_roots(table.order) * 2.0 ** (-table.scale_pow2), 0)
        return OpMatrix.from_complex(roots.take(_index(table, table.order)), meta=meta)
    build = OpMatrix.from_support if isinstance(table, _SupportTable) else OpMatrix.from_phase_table
    return build(*_phase_table(table), backend=backend, meta=meta)


def u_a_closed(params: HWParams, A: SL2Element, backend: str | None = None) -> OpMatrix:
    """Closed-form U(A) on C^{N^2}, one formula per case of c.

    c = 0 gives the phased permutation k -> d^{-1} k (d-odd-triangular);
    odd c the single-phase table 2^{-n} omega^{p(-a k1 k2 + k1 j2 + k2 j1
    - d j1 j2)/c} (d-odd-reduced or d-even by the parity of d); any other c
    (d is odd then) the r-sum closed per entry (d-odd-sum).  Each branch
    writes its table (`_closed_form`), and the matrix is built from it.
    """
    table, branch = _closed_form(params, A)
    return _table_op(params, table, backend, branch)


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
    """The printed S matrix (-1)^N i^t N^{-1/2} omega^{lm} (t = 0 or 1 by N mod 4): (-1)^N
    is -1 at odd N, so it is -(2|N) weil_odd_general(N, S), not the image of S."""
    t = 0 if N % 4 == 1 else 1
    l, m = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    data = (-1) ** N * 1j**t / np.sqrt(N) * _roots(N)[l * m % N]
    return OpMatrix.from_complex(data, meta="weil_odd_s")


def _weil_odd_stack(N: int, entries) -> np.ndarray:
    """U(A) of the odd-N family for every element of `entries`, an array
    (4, count) of (a, b, c, d): a (count, N, N) complex128 stack, each branch
    written for all of its elements at once.

    c != 0 takes the Gauss-sum form N^{-1/2} (-2c|N) kappa
    omega^{-(a l^2 + d m^2 - 2 l m)/2c}, its prefactor computed once per
    distinct c by the scalar expression.  c = 0, A = D(a) T^{a^{-1} b}, takes
    the signed permutation (a + a^{-1} - 2 | N) delta_{l, a^{-1} m}, its sign
    read from a table of the residues (1 where the symbol vanishes), with
    column m multiplied by omega^{-a^{-1} b m^2/2}.
    """
    a, b, c, d = np.asarray(entries, dtype=np.int64).reshape(4, -1) % N
    roots, l, m = _roots(N), np.arange(N)[:, None], np.arange(N)
    out = np.empty((len(c), N, N), dtype=np.complex128)
    g = np.flatnonzero(c)
    if len(g):
        values, k = np.unique(c[g], return_inverse=True)
        pref = np.array([jacobi_symbol(-2 * x, N) * _kappa(N) / np.sqrt(N) for x in values.tolist()])
        inv2c = np.array([pow(2 * x, -1, N) for x in values.tolist()])[k, None, None]
        expo = -(a[g, None, None] * l * l + d[g, None, None] * m * m - 2 * l * m) * inv2c % N
        out[g] = pref[k, None, None] * roots[expo]
    z = np.flatnonzero(c == 0)
    if len(z):
        a_inv = np.array([pow(x, -1, N) for x in a[z].tolist()], dtype=np.int64)
        signs = np.array([jacobi_symbol(x, N) or 1 for x in range(N)])
        perm = np.zeros((len(z), N, N), dtype=np.complex128)
        perm[np.arange(len(z))[:, None], a_inv[:, None] * m % N, m] = signs[(a[z] + a_inv - 2) % N, None]
        phases = roots[(-a_inv * b[z] * pow(2, -1, N) % N)[:, None] * m * m % N]
        out[z] = perm * phases[:, None, :]
    return out


def weil_odd_d(N: int, a: int) -> OpMatrix:
    """Signed permutation (a + a^{-1} - 2 | N) delta_{l, a m}: the c = 0 branch
    of `_weil_odd_stack` at D(a^{-1}).

    That is kappa^2 (2 - a - a^{-1} | N), as (-1|N) = kappa^2.  At a = 1 the
    symbol vanishes; the sign is 1 there (the identity), the only value
    compatible with U being a homomorphism.
    """
    a %= N
    if a == 0 or np.gcd(a, N) != 1:
        raise NotAUnit(f"{a} is not a unit mod {N}")
    return OpMatrix.from_complex(_weil_odd_stack(N, [pow(a, -1, N), 0, 0, a])[0], meta="weil_odd_d")


def weil_odd_generic(N: int, A: SL2Element) -> OpMatrix:
    """Gauss-sum form for c != 0: N^{-1/2} (-2c|N) kappa omega^{-(a l^2 + d m^2 - 2 l m)/2c}."""
    if A.c % N == 0:
        raise NonGeneric("c = 0 has no 1/2c; build via weil_odd_general")
    return OpMatrix.from_complex(_weil_odd_stack(N, A.entries())[0], meta="weil_odd_generic")


def _odd_prime(N: int) -> int:
    # the Weil family's modulus: a composite odd N has no Weil operators here
    if not _is_odd_prime(N):
        raise ValueError(f"N must be an odd prime, got {N}")
    return N


def weil_odd_general(N: int, A: SL2Element) -> OpMatrix:
    """Total map on SL2(Z_N), N odd prime (ValueError otherwise); exact homomorphism.

    c = 0 means A = D(a) T^{a^{-1} b}; the dilatation factor is the
    permutation with argument a^{-1} (see module docstring) and U(T) is
    the diagonal omega^{-m^2/2} of the generic family's gauge, so column
    m of the permutation is multiplied by omega^{-a^{-1} b m^2/2}.  One
    element of `_weil_odd_stack`.
    """
    _odd_prime(N)
    return OpMatrix.from_complex(_weil_odd_stack(N, A.entries())[0], meta="weil_odd_general")


# -- the property checker ------------------------------------------------------


def _j_table(flavor: str, N: int, params: HWParams | None) -> _SupportTable:
    """Every J_{r,s} of `flavor`, r-major, from its builder's support formula
    at all N^2 points at once: the columns and omega_N exponents that
    `j_twisted`/`j_odd` write."""
    r, s = np.divmod(np.arange(N * N), N)
    support = _twisted_support(params, r, s) if flavor == "twisted_even" else _odd_support(N, r, s)
    return _SupportTable(N, *support)


def _generator_cocycle(law: _LawTable, params: HWParams) -> bool:
    """Whether J_0 = I and J_m J_{e_i} == omega^{phi(m, e_i)} J_{m + e_i} for
    every m, e_1 = (1, 0) and e_2 = (0, 1), on the `_law_table` of the J's,
    J_{r,s} at member N r + s and phi(l, l') = p (r' s - s' r) in units of
    the table's order.  phi is bilinear, so by induction on l the cocycle
    then holds at every pair: the cocycle lemma.  So does the dagger law
    J_l^dagger == J_{-l}: J_l J_{-l} = omega^{phi(l, -l)} J_0 = I as
    phi(l, -l) = 0, and the inverse of a phased permutation with unit phases
    is its dagger."""
    N = params.N
    r, s = np.divmod(np.arange(N * N), N)
    steps = np.concatenate((N * ((r + 1) % N) + s, N * r + (s + 1) % N))
    phase = params.p * (law.order // N) * np.concatenate((s, -r))
    held = _support_law(law, np.tile(N * r + s, 2), np.repeat([N, 1], N * N), steps, phase)
    return _member_is_identity(law, 0) and bool(held.all())


def _index_conjugation(
    table: _SupportTable, index: np.ndarray, order: int, left: np.ndarray, right: np.ndarray,
) -> np.ndarray:
    """Whether J[left[k]] U == U J[right[k]] for each k, on U's exponent index
    at `order` (`_index`), a multiple of the table's order.  Row i of J_l U
    is row c_l(i) of U times omega^{k_l(i)}, column c_m(t) of U J_m column t
    times omega^{k_m(t)} (c_m a permutation, else no proof): so the index at
    rows c_l and columns c_m plus k_l(i) - k_m(t) is U's own, compared on
    the marker bit (moved to 4 order, above any exponent plus two phases)
    and the exponent bits where U is nonzero."""
    low, scale, dtype = order - 1, order // table.order, np.min_scalar_type(6 * order - 1)
    # arithmetic on the 0/1 marker positions, a tenth of the time of
    # boolean-mask writes at dim 256
    off = (index == order).view(np.uint8)
    marked = np.multiply(off, 3 * order, dtype=dtype)  # order + 3 order off U, 0 + E on it
    np.add(marked, index, out=marked, casting="unsafe")
    keep = np.multiply(off, order - 1, dtype=dtype)
    np.subtract(5 * order - 1, keep, out=keep)  # 4 order off U, 5 order - 1 on it
    rows = (table.exps[left] * scale & low).astype(dtype)
    columns = (-table.exps[right] * scale & low).astype(dtype)
    equal = np.zeros(len(left), dtype=bool)
    for k, (l, m) in enumerate(zip(left.tolist(), right.tolist())):
        c = table.cols[m]
        if np.array_equal(np.sort(c), np.arange(len(c))):
            got = np.take(marked[table.cols[l]], c, axis=1)
            got += rows[k, :, None]
            got += columns[k]
            got ^= marked
            got &= keep
            equal[k] = not got.any()
    return equal


def _generator_points(table: _SupportTable, index: np.ndarray, order: int, entries) -> bool:
    """Whether J_{e_i} U == U J_{e_i A} at e_1 = (1, 0) and e_2 = (0, 1), for
    U by its exponent index at `order` (`_index_conjugation`) and A =
    (a, b, c, d), whose images of them are (a, b) and (c, d).  Once the J's
    meet `_generator_cocycle`, that is the law at every point
    (`_conjugation_scan`)."""
    N = math.isqrt(len(table.cols))  # J_{r,s} at member N r + s
    a, b, c, d = (int(x) % N for x in entries)
    points, images = np.array([N, 1]), np.array([N * a + b, N * c + d])
    return bool(_index_conjugation(table, index, order, points, images).all())


def _conjugation_scan(
    report: VerifyReport, N: int, table: _SupportTable | np.ndarray, entries: np.ndarray, U, j_of,
    matrix, tol: float, inputs, generated: bool = False,
) -> None:
    """Record J_l U_e == U_e J_{l A_e} by one `VerifyReport.scan` over the keys
    (e, l), element-major: e numbers the elements of `entries`, an array
    (4, count) of (a, b, c, d) mod N, and l = N r + s the points of the J
    table.

    Unless U is None, it decides each chunk of keys.  A float stack of the
    elements' matrices decides a block of keys at a time
    (`_stack_deviation`): the block's U's gathered once, its J's from
    `table`, the float stack of every J or their support table
    (`_float_stack`), in stacked per-slice products, so each deviation is
    the one `mat_eq` gives on the same products.  A function e -> element
    e's exact table decides each element of the chunk on its exponent index
    at the higher of the two orders (`_index_conjugation`), `table` a
    support table: where `generated` (the table meets `_generator_cocycle`),
    from its two generator points first, as J_{l + e_i} U = omega^{-phi(l,
    e_i)} J_l U J_{e_i A} = U J_{(l + e_i) A} once J_l U = U J_{lA}, phi
    being SL2-invariant.  Every key left is compared as mat_eq(J_l @ U_e,
    U_e @ J_{l A_e}), J built by j_of((r, s)) and U_e by matrix(e), and
    named by inputs(e, l).
    """

    def image(e, l):  # the point (r, s) A_e, as its index N r' + s'
        a, b, c, d = entries[:, e]
        r, s = np.divmod(l, N)
        return N * ((a * r + c * s) % N) + (b * r + d * s) % N

    def compare(e, l):
        lhs, rhs = j_of(divmod(l, N)), j_of(divmod(int(image(e, l)), N))
        return mat_eq(lhs @ matrix(e), matrix(e) @ rhs, tol)

    def decide(e, l):
        right = image(e, l)
        if isinstance(U, np.ndarray):
            J = table.__getitem__ if isinstance(table, np.ndarray) else partial(_float_stack, table)

            def sides(k):
                V = U[e[k]]
                return J(l[k]) @ V, V @ J(right[k])

            dev = _stack_deviation(len(l), U.shape[1], sides)
            return dev <= tol, dev
        equal = np.zeros(len(l), dtype=bool)
        for x in range(e[0], e[-1] + 1):  # the chunk's elements, in key order
            at = slice(*np.searchsorted(e, (x, x + 1)))
            u = U(x)
            order = max(u.order, table.order)
            index = _index(u, order)
            if generated and _generator_points(table, index, order, entries[:, x]):
                equal[at] = True
            else:
                equal[at] = _index_conjugation(table, index, order, l[at], right[at])
        return equal, np.zeros(len(l))

    keys = np.indices((entries.shape[1], N * N)).reshape(2, -1)
    report.scan("J[r,s] U == U J[(r,s)A]", keys, compare, inputs, None if U is None else decide)


def verify_metaplectic(
    U: OpMatrix | _SupportTable | _PhaseTable | _FactorTable,
    A: SL2Element,
    flavor: str,
    params: HWParams | None = None,
    tol: float = 1e-9,
) -> VerifyReport:
    """Check J_{r,s} U = U J_{(r,s)A} over every (r,s) in Z_N^2, U an OpMatrix
    or the table a builder wrote for an exact U (as `_closed_form` gives).

    The side-multiplied form avoids inverting U and is equivalent for
    invertible U.  `_conjugation_scan` records the points in (r, s) order
    on the flavor's `_j_table`: a table U from its two generator points
    where the J's meet `_generator_cocycle`, a float U by stacked BLAS
    products, every point left as mat_eq(J[l] @ U, U @ J[lA]), J built by
    `j_twisted`/`j_odd`.
    """
    if isinstance(U, OpMatrix):
        backend, dim, matrix = U.backend, U.dim, lambda e: U
        kernel_u = None if U.data is None else U.data[None]  # a float U as a stack of one
    else:
        backend, dim = "exact", len(U.cosets) ** 2 if isinstance(U, _FactorTable) else len(U.exps)
        kernel_u, matrix = (lambda e: U), cache(lambda e: _table_op(params, U, backend, "U"))
    if flavor == "twisted_even":
        if params is None:
            raise ValueError("twisted_even needs params")
        N = params.N
        rep_params = {"flavor": flavor, "N": N, "p": params.p}
        j_of = lambda pt: j_twisted(params, pt, backend=backend)
    elif flavor == "weil_odd":
        N = A.N
        rep_params = {"flavor": flavor, "N": N}
        j_of = lambda pt: j_odd(N, pt)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    if A.N != N:
        raise ValueError(f"element modulus {A.N} != {N}")
    rep_params["element"] = list(A.entries())
    report = VerifyReport(suite="metaplectic", params=rep_params)
    table = _j_table(flavor, N, params)
    if (backend == "exact" and flavor != "twisted_even") or dim != table.cols.shape[1]:
        kernel_u = None  # the odd J's are float only: their roots are not in an exact U's ring
    generated = callable(kernel_u) and _generator_cocycle(_law_table(table), params)
    _conjugation_scan(
        report, N, table, np.array(A.entries())[:, None], kernel_u, j_of, matrix, tol,
        lambda e, l: {"r": l // N, "s": l % N}, generated,
    )
    return report
