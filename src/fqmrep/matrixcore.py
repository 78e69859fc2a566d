"""Dense operator matrices over an exact cyclotomic ring or complex128.

The exact backend stores a matrix as an integer coefficient tensor of
shape (dim, dim, L) over the negacyclic basis of Z[omega_M] (L = M/2)
plus one shared dyadic scale: entry (i, j) is
2^{-scale_log2} * sum_k coeffs[i, j, k] omega_M^k.

Products route through the regular representation of the ring: omega
acts on coefficient vectors as the signed shift W (W^L = -1), so
multiplying by x is the integer matrix sum_k x_k W^k (`_regular`);
scalar and Kronecker products apply it entrywise.  Matrix products are
exact while every accumulated integer stays below 2^52 (guarded; a slow
object-dtype path covers the rest).  Under the guard, when the left
operand has exactly one nonzero entry per row, or the right one exactly
one per column (Q, P, J_{r,s}, U(T)^m, the c = 0 metaplectic branch),
the product is a gather of the other operand plus one batched integer
matmul with the regular matrices of those entries, O(dim^2 L^2).  Any
other pair embeds the left matrix as the (dim*L) x (dim*L) integer
matrix sum_k coeffs[:, :, k] (x) W^k and makes one float64 BLAS call.
Rescaling and products check int64 headroom and raise `ExactOverflow`
rather than wrap.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .exactnum import CycNum, OrderMismatch, UnsupportedOrder, basis_size

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

_FLOAT_EXACT_BOUND = 2**52
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


@lru_cache(maxsize=None)
def _wstack(size: int, dtype: type = np.int64) -> np.ndarray:
    # W e_k = e_{k+1}, W e_{L-1} = -e_0; powers W^0 .. W^{L-1}.
    w = np.zeros((size, size), dtype=dtype)
    for k in range(size - 1):
        w[k + 1, k] = 1
    w[0, size - 1] = -1
    stack = np.empty((size, size, size), dtype=dtype)
    stack[0] = np.eye(size, dtype=dtype)
    for k in range(1, size):
        stack[k] = w @ stack[k - 1]
    return stack


def _regular(x: np.ndarray) -> np.ndarray:
    """(..., L) coefficient vectors -> (..., L, L) matrices of multiplication by x."""
    size = x.shape[-1]
    return (x @ _wstack(size).reshape(size, size * size)).reshape(*x.shape, size)


def _top(coeffs: np.ndarray) -> int:
    return int(np.abs(coeffs).max(initial=0))


def _checked(bound: int, what: str) -> None:
    if bound >= _INT64_BOUND:
        raise ExactOverflow(f"{what} needs {bound.bit_length()} bits, int64 holds 63")


def _row_support(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
    """(column, entry) of the one nonzero entry of each row and the largest
    |coefficient|, or None if some row has no nonzero entry or several."""
    d, _, size = coeffs.shape
    count = np.count_nonzero(coeffs)
    if not 0 < d <= count <= d * size:
        return None
    mags = np.abs(coeffs.reshape(d, d * size))
    pos = mags.argmax(axis=1)
    rows = np.arange(d)
    cols = pos // size
    entries = coeffs[rows, cols]
    if np.count_nonzero(entries) < count:  # a row with nonzeros in two entries
        return None
    peaks = mags[rows, pos].tolist()  # largest |coefficient| of each row
    return (cols, entries, max(peaks)) if min(peaks) else None


def _monomial_matmul(
    support: tuple[np.ndarray, np.ndarray, int], other: np.ndarray
) -> np.ndarray:
    """m @ other for m whose row i holds only entries[i], in column cols[i]."""
    cols, entries, _ = support
    return other.take(cols, axis=0) @ _regular(entries).swapaxes(1, 2)


def _valid_exact_order(order: int) -> int:
    if order < 8 or order & (order - 1):
        raise UnsupportedOrder(
            f"exact matrices need a power-of-two order >= 8, got {order}"
        )
    return order


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
            self.order = _valid_exact_order(order)
            size = basis_size(order)
            if coeffs is None:
                coeffs = np.zeros((dim, dim, size), dtype=np.int64)
            if coeffs.shape != (dim, dim, size):
                raise DimMismatch(f"coefficient tensor shape {coeffs.shape}")
            self.coeffs = coeffs
            self.scale_log2 = scale_log2
            self.data = None
            self._normalize()
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
        if backend == "float":
            return cls.from_complex(np.eye(dim, dtype=np.complex128))
        coeffs = np.zeros((dim, dim, basis_size(order)), dtype=np.int64)
        coeffs[np.arange(dim), np.arange(dim), 0] = 1
        return cls(dim, "exact", coeffs=coeffs, order=order)

    @classmethod
    def zeros(cls, dim: int, backend: str = "exact", order: int = 8) -> OpMatrix:
        if backend == "float":
            return cls(dim, "float")
        return cls(dim, "exact", order=order)

    @classmethod
    def from_cyc_entries(cls, entries: Iterable[Iterable[CycNum]]) -> OpMatrix:
        grid = [list(row) for row in entries]
        dim = len(grid)
        order = max(max(x.order for x in row) for row in grid)
        grid = [[x.promote(order) if x.order != order else x for x in row] for row in grid]
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
        premul: CycNum | None = None,
        meta: str | None = None,
    ) -> OpMatrix:
        """Matrix with entries mask * omega_{root_order}^{exponents} * 2^{-scale_pow2}.

        The workhorse for every phase-matrix family: exponent tables are
        plain integer arrays, reduced here.
        """
        exponents = np.asarray(exponents)
        dim = exponents.shape[0]
        if exponents.shape != (dim, dim):
            raise DimMismatch(f"exponent table shape {exponents.shape}")
        if mask is None:
            mask = np.ones((dim, dim), dtype=bool)
        if backend == "float":
            data = np.where(
                mask, np.exp(2j * np.pi * (exponents % root_order) / root_order), 0
            ) * 2.0 ** (-scale_pow2)
            out = cls.from_complex(data, meta=meta)
            if premul is not None:
                out = out.scalar_mul(premul.to_complex())
            return out
        if root_order & (root_order - 1):
            raise UnsupportedOrder(
                f"exact phase tables need a power-of-two root order, got {root_order}"
            )
        order = max(8, root_order)
        factor = order // root_order
        size = basis_size(order)
        e = (exponents.astype(np.int64) * factor) % order
        ii, jj = np.nonzero(mask)
        coeffs = np.zeros((dim, dim, size), dtype=np.int64)
        ee = e[ii, jj]
        coeffs[ii, jj, ee % size] = np.where(ee < size, 1, -1)
        out = cls(dim, "exact", coeffs=coeffs, order=order, scale_log2=scale_pow2, meta=meta)
        if premul is not None:
            out = out.scalar_mul(premul)
            out.meta = meta
        return out

    # -- internals --------------------------------------------------------

    def _normalize(self) -> None:
        # the lowest set bit of the OR is the largest power of two dividing all
        g = int(np.bitwise_or.reduce(self.coeffs, axis=None))
        if g == 0:
            self.scale_log2 = 0
            return
        shift = (g & -g).bit_length() - 1
        if shift:
            self.coeffs = self.coeffs >> shift
            self.scale_log2 -= shift

    def _promoted(self, order: int) -> OpMatrix:
        if self.order == order:
            return self
        if order < self.order or order % self.order:
            raise OrderMismatch(f"cannot promote order {self.order} to {order}")
        factor = order // self.order
        size = basis_size(order)
        coeffs = np.zeros((self.dim, self.dim, size), dtype=np.int64)
        coeffs[:, :, :: factor] = self.coeffs
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
        left = _row_support(a.coeffs)
        right = None if left else _row_support(b.coeffs.transpose(1, 0, 2))
        amax = left[2] if left else _top(a.coeffs)
        bmax = right[2] if right else _top(b.coeffs)
        fits = amax * bmax * d * size < _FLOAT_EXACT_BOUND
        if fits and left:
            coeffs = _monomial_matmul(left, b.coeffs)
        elif fits and right:
            # (a b)^T = b^T a^T entrywise, the ring being commutative
            coeffs = _monomial_matmul(right, a.coeffs.transpose(1, 0, 2)).transpose(1, 0, 2)
        else:
            bcols = b.coeffs.transpose(0, 2, 1).reshape(d * size, d)
            if fits:
                emb = np.einsum(
                    "ilk,kab->ialb", a.coeffs.astype(np.float64), _wstack(size, np.float64)
                ).reshape(d * size, d * size)
                prod = emb @ bcols.astype(np.float64)
                out = np.rint(prod).astype(np.int64)
            else:  # exactness guard tripped: do the same contraction in object ints
                emb = np.einsum(
                    "ilk,kab->ialb", a.coeffs.astype(object), _wstack(size, object)
                ).reshape(d * size, d * size)
                out = np.dot(emb, bcols.astype(object)).astype(np.int64)
            coeffs = out.reshape(d, size, d).transpose(0, 2, 1)
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
        s = s.promote(order) if s.order != order else s
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
        ct = self.coeffs.transpose(1, 0, 2)
        out = np.empty_like(ct)
        out[:, :, 0] = ct[:, :, 0]
        if ct.shape[2] > 1:
            out[:, :, 1:] = -ct[:, :, :0:-1]
        return OpMatrix(
            self.dim, "exact", coeffs=out, order=self.order, scale_log2=self.scale_log2
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
        return CycNum(self.order, tuple(int(c) for c in self.coeffs[i, j]), self.scale_log2)

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
    if backend == "float":
        data = np.zeros((total, total), dtype=np.complex128)
        for a in range(dim):
            for b in range(dim):
                data[dim * b + a, dim * a + b] = 1.0
        return OpMatrix.from_complex(data)
    coeffs = np.zeros((total, total, basis_size(order)), dtype=np.int64)
    for a in range(dim):
        for b in range(dim):
            coeffs[dim * b + a, dim * a + b, 0] = 1
    return OpMatrix(total, "exact", coeffs=coeffs, order=order)


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
