"""Exact scaled-cyclotomic arithmetic: the one Z[omega_M, 1/2] ring kernel.

Every exact value lives in Z[omega_M, 1/2], M = 2^m >= 8 (roots of
unity, dyadic scales, sqrt(2)): a coefficient vector over the negacyclic
basis 1, omega, ..., omega^{L-1} (L = M/2, omega^L = -1) times
2^{-scale_log2}.  The kernel acts on the last axis of int64 or
object-dtype (unbounded) coefficient arrays and serves both `CycNum`
and the matrices of `matrixcore`: `_regular` (multiplication by x as
sum_k x_k W^k, W the signed shift) is the one negacyclic product;
`encode_root` maps omega^k to (index, sign); `normalize` divides out
common factors of two, so equal values have equal representations;
`promote` and `conj_coeffs` change order and conjugate.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NotAUnit",
    "UnsupportedOrder",
    "CycNum",
    "jacobi_symbol",
]


class NotAUnit(ValueError):
    """Modular inverse requested for a non-unit."""


class UnsupportedOrder(ValueError):
    """Cyclotomic order other than a power of two >= 8."""


def _is_odd_prime(m: int) -> bool:
    if m < 3 or m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def _mod_inv(a: int, modulus: int) -> int:
    """a^{-1} mod modulus; raises NotAUnit if gcd > 1."""
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotAUnit(f"{a % modulus} is not a unit mod {modulus}") from None


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 3; 0 when gcd(a, n) > 1."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"jacobi_symbol needs odd n >= 3, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# -- the ring kernel ----------------------------------------------------------


def basis_size(order: int) -> int:
    """Basis length L = order/2; raises UnsupportedOrder unless order = 2^m >= 8."""
    if order < 8 or order & (order - 1):
        raise UnsupportedOrder(f"exact arithmetic needs a power-of-two order >= 8, got {order}")
    return order // 2


def _exact_order(root_order: int) -> int:
    # the order of the exact ring that holds the root_order-th roots (8 at least)
    return 8 if root_order in (1, 2, 4) else root_order


@lru_cache(maxsize=None)
def _wstack(size: int) -> np.ndarray:
    # W e_k = e_{k+1}, W e_{L-1} = -e_0; powers W^0 .. W^{L-1}.
    w = np.zeros((size, size), dtype=np.int64)
    for k in range(size - 1):
        w[k + 1, k] = 1
    w[0, size - 1] = -1
    stack = np.empty((size, size, size), dtype=np.int64)
    stack[0] = np.eye(size, dtype=np.int64)
    for k in range(1, size):
        stack[k] = w @ stack[k - 1]
    return stack


def _regular(x: np.ndarray) -> np.ndarray:
    """(..., L) coefficient vectors -> (..., L, L) matrices of multiplication by x."""
    size = x.shape[-1]
    return (x @ _wstack(size).reshape(size, size * size)).reshape(*x.shape, size)


def encode_root(k, size: int):
    """omega^k (order 2 size) as (index, sign), omega^k = sign * omega^index and
    0 <= index < size, for an int or an integer array k."""
    k = k % (2 * size)
    return k % size, 1 - 2 * (k >= size)


def normalize(coeffs: np.ndarray, scale_log2: int) -> tuple[np.ndarray, int]:
    """(coeffs, scale_log2) with the largest power of two dividing every
    coefficient divided out; zero gets scale 0."""
    # the lowest set bit of the OR is the largest power of two dividing all
    g = int(np.bitwise_or.reduce(coeffs, axis=None))
    if g == 0:
        return coeffs, 0
    shift = (g & -g).bit_length() - 1
    return (coeffs >> shift, scale_log2 - shift) if shift else (coeffs, scale_log2)


def promote(coeffs: np.ndarray, order: int, target: int) -> np.ndarray:
    """Coefficients over omega_target of values given over omega_order:
    omega_order^k = omega_target^{k target/order}."""
    if target == order:
        return coeffs
    if target < order:
        raise ValueError(f"cannot promote order {order} to {target}")
    out = np.zeros((*coeffs.shape[:-1], basis_size(target)), dtype=coeffs.dtype)
    out[..., :: target // order] = coeffs
    return out


def conj_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the complex conjugate: omega^{-k} = -omega^{L-k} for 0 < k < L."""
    return np.concatenate((coeffs[..., :1], -coeffs[..., :0:-1]), axis=-1)


# -- scalars -------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CycNum:
    """Scaled cyclotomic integer: 2^{-scale_log2} * sum coeffs[k] omega^k.

    The coefficients (any sequence, kept as a tuple) are Python ints, and
    the ring kernel runs on them as object arrays, so scalars are exact at
    any size.
    """

    order: int
    coeffs: tuple[int, ...]
    scale_log2: int = 0

    def __post_init__(self) -> None:
        size = basis_size(self.order)
        if len(self.coeffs) != size:
            raise ValueError(
                f"order {self.order} needs {size} coefficients, got {len(self.coeffs)}"
            )
        coeffs, scale = normalize(np.asarray(self.coeffs, dtype=object), self.scale_log2)
        object.__setattr__(self, "coeffs", tuple(coeffs.tolist()))
        object.__setattr__(self, "scale_log2", scale)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: int = 8) -> CycNum:
        return cls(order, (0,) * basis_size(order), 0)

    @classmethod
    def from_int(cls, k: int, order: int = 8) -> CycNum:
        return cls(order, (k,) + (0,) * (basis_size(order) - 1), 0)

    @classmethod
    def one(cls, order: int = 8) -> CycNum:
        return cls.from_int(1, order)

    @classmethod
    def root(cls, order: int, e: int) -> CycNum:
        """omega_order^e, with the orders 1, 2 and 4 promoted to 8."""
        exact = _exact_order(order)
        size = 2 * basis_size(exact)  # UnsupportedOrder before any division
        return _root(exact, e * (exact // order) % size)

    @classmethod
    def inv_sqrt2_pow(cls, k: int, order: int = 8) -> CycNum:
        """2^{-k/2} for any integer k, using sqrt(2) = omega_8 + omega_8^{-1}."""
        if k % 2 == 0:
            return cls(order, cls.one(order).coeffs, k // 2)
        sqrt2 = cls.root(order, order // 8) + cls.root(order, -order // 8)
        return cls(order, sqrt2.coeffs, (k + 1) // 2)

    # -- order management -----------------------------------------------

    def promote(self, order: int) -> CycNum:
        """Re-express in a larger power-of-two order (or return self)."""
        if order == self.order:
            return self
        coeffs = promote(np.array(self.coeffs, dtype=object), self.order, order)
        return CycNum(order, coeffs, self.scale_log2)

    def _common(self, other: CycNum) -> tuple[CycNum, CycNum]:
        order = max(self.order, other.order)
        return self.promote(order), other.promote(order)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: CycNum | int) -> CycNum:
        if isinstance(other, int):
            other = CycNum.from_int(other, self.order)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        t = max(a.scale_log2, b.scale_log2)
        ca = [c << (t - a.scale_log2) for c in a.coeffs]
        cb = [c << (t - b.scale_log2) for c in b.coeffs]
        return CycNum(a.order, tuple(x + y for x, y in zip(ca, cb)), t)

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return CycNum(self.order, tuple(-c for c in self.coeffs), self.scale_log2)

    def __sub__(self, other: CycNum | int) -> CycNum:
        return self + (-other)

    def __rsub__(self, other: int) -> CycNum:
        return CycNum.from_int(other, self.order) - self

    def __mul__(self, other: CycNum | int) -> CycNum:
        if isinstance(other, int):
            other = CycNum.from_int(other, self.order)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        out = _regular(np.array(a.coeffs, dtype=object)) @ np.array(b.coeffs, dtype=object)
        return CycNum(a.order, out, a.scale_log2 + b.scale_log2)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> CycNum:
        if e < 0:
            raise ValueError("negative CycNum powers are not supported")
        result = CycNum.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self) -> CycNum:
        """Complex conjugate: omega^k -> omega^{-k}."""
        out = conj_coeffs(np.array(self.coeffs, dtype=object))
        return CycNum(self.order, out, self.scale_log2)

    # -- predicates and conversions --------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _demoted(self) -> CycNum:
        # Smallest order representing the same value; keeps hashing
        # consistent with cross-order equality.
        x = self
        while x.order > 8 and not any(x.coeffs[1::2]):
            x = CycNum(x.order // 2, x.coeffs[0::2], x.scale_log2)
        return x

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = CycNum.from_int(other, self.order)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs and a.scale_log2 == b.scale_log2

    def __hash__(self) -> int:
        x = self._demoted()
        return hash((x.order, x.coeffs, x.scale_log2))

    def to_complex(self) -> complex:
        w = 2j * cmath.pi / self.order
        acc = 0j
        for k, c in enumerate(self.coeffs):
            if c:
                acc += c * cmath.exp(w * k)
        return acc * 2.0 ** (-self.scale_log2)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "coeffs": list(self.coeffs),
            "scale_log2": self.scale_log2,
        }

    @classmethod
    def from_dict(cls, d: dict) -> CycNum:
        return cls(d["order"], tuple(d["coeffs"]), d["scale_log2"])

    def __repr__(self) -> str:
        return f"CycNum(order={self.order}, coeffs={self.coeffs}, scale_log2={self.scale_log2})"


@lru_cache(maxsize=None)
def _root(order: int, k: int) -> CycNum:
    # values are immutable, so each root is built once
    coeffs = [0] * basis_size(order)
    index, sign = encode_root(k, len(coeffs))
    coeffs[index] = sign
    return CycNum(order, tuple(coeffs), 0)
