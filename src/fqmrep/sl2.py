"""SL(2, Z_N): elements, generator words, and decompositions.

Words are lists of tokens over the generators

    ("T", k)  upper shear [[1, k], [0, 1]]
    ("S", 1)  [[0, -1], [1, 0]];  ("S", -1) its inverse;  ("S", 2) = S^2
    ("D", a)  dilatation diag(a, a^{-1}) for a unit

read left to right.  Every element decomposes into a five-token word
through the parity split on the lower-right entry: odd d goes through
D(d^{-1}), even d (which forces odd c) through a trailing S^2.  The
inner shear exponent of the even branch is +d c^{-1}: the word
T(a c^{-1}) D(c^{-1}) S^{-1} T(d c^{-1}) S^2 multiplies out to
[[a, (a d - 1) c^{-1}], [c, d]], which is A.  Both words are checked
on return.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .exactnum import _mod_inv

__all__ = [
    "BadDeterminant",
    "TooLarge",
    "SL2Element",
    "Token",
    "sl2_s",
    "sl2_t",
    "dilatation",
    "dilatation_word",
    "word_element",
    "decompose",
    "act_on_point",
    "symplectic_form",
    "sl2_order",
    "enumerate_sl2",
    "sample_sl2",
]

Token = tuple[str, int]


class BadDeterminant(ValueError):
    """Entries with determinant != 1 mod N."""


class TooLarge(ValueError):
    """Exhaustive enumeration refused beyond the desk-scale cap."""


@dataclass(frozen=True)
class SL2Element:
    a: int
    b: int
    c: int
    d: int
    N: int

    def __post_init__(self) -> None:
        N = self.N
        if N < 2:
            raise ValueError(f"modulus must be >= 2, got {N}")
        self.__dict__.update(vars(SL2Element._trusted(self.a, self.b, self.c, self.d, N)))
        det = (self.a * self.d - self.b * self.c) % N
        if det != 1:
            raise BadDeterminant(
                f"det = {det} mod {N} for ({self.a},{self.b},{self.c},{self.d})"
            )

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def identity(cls, N: int) -> SL2Element:
        return cls(1, 0, 0, 1, N)

    @classmethod
    def _trusted(cls, a: int, b: int, c: int, d: int, N: int) -> SL2Element:
        # entries mod N, hashed once (elements key the suites' operator caches);
        # no determinant check, so products of valid elements come here directly
        out = object.__new__(cls)
        a, b, c, d = a % N, b % N, c % N, d % N
        out.__dict__.update(a=a, b=b, c=c, d=d, N=N, _hash=hash((a, b, c, d, N)))
        return out

    def __mul__(self, other: SL2Element) -> SL2Element:
        if self.N != other.N:
            raise ValueError(f"mixed moduli {self.N} and {other.N}")
        return SL2Element._trusted(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.N,
        )

    def inv(self) -> SL2Element:
        # adjugate; determinant is 1
        return SL2Element(self.d, -self.b, -self.c, self.a, self.N)

    def __pow__(self, e: int) -> SL2Element:
        if e < 0:
            return self.inv() ** (-e)
        out = SL2Element.identity(self.N)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def sl2_s(N: int) -> SL2Element:
    return SL2Element(0, -1, 1, 0, N)


def sl2_t(N: int, k: int = 1) -> SL2Element:
    return SL2Element(1, k, 0, 1, N)


def dilatation(N: int, a: int) -> SL2Element:
    return SL2Element(a, 0, 0, _mod_inv(a, N), N)


def dilatation_word(N: int, a: int) -> list[Token]:
    """Six-token S,T word multiplying out to diag(a, a^{-1})."""
    a_inv = _mod_inv(a, N)
    return [("T", -a), ("S", 1), ("T", -a_inv), ("S", -1), ("T", -a), ("S", -1)]


def _token_element(token: Token, N: int) -> SL2Element:
    kind, arg = token
    if kind == "T":
        return sl2_t(N, arg)
    if kind == "S":
        if arg == 1:
            return sl2_s(N)
        if arg == -1:
            return sl2_s(N).inv()
        if arg == 2:
            return sl2_s(N) ** 2
        raise ValueError(f"S exponent must be in {{1, -1, 2}}, got {arg}")
    if kind == "D":
        return dilatation(N, arg)
    raise ValueError(f"unknown token kind {kind!r}")


def word_element(word: list[Token], N: int) -> SL2Element:
    out = SL2Element.identity(N)
    for token in word:
        out = out * _token_element(token, N)
    return out


def decompose(A: SL2Element) -> list[Token]:
    """Five-token generator word reproducing A (validated on return)."""
    N = A.N
    a, b, c, d = A.entries()
    if math.gcd(d, N) == 1:
        d_inv = _mod_inv(d, N)
        word = [
            ("T", b * d_inv % N),
            ("D", d_inv),
            ("S", -1),
            ("T", -c * d_inv % N),
            ("S", 1),
        ]
    else:  # even d forces odd c when N = 2^n (determinant is odd)
        c_inv = _mod_inv(c, N)
        word = [
            ("T", a * c_inv % N),
            ("D", c_inv),
            ("S", -1),
            ("T", d * c_inv % N),
            ("S", 2),
        ]
    if word_element(word, N) != A:
        raise RuntimeError(f"generator word failed to reproduce {A}")
    return word


def act_on_point(A: SL2Element, r: int, s: int) -> tuple[int, int]:
    """Right action (r, s) -> (r, s) A = (a r + c s, b r + d s) mod N."""
    return ((A.a * r + A.c * s) % A.N, (A.b * r + A.d * s) % A.N)


def symplectic_form(x: tuple[int, int], y: tuple[int, int], N: int) -> int:
    """Antisymmetric pairing r' s - r s' mod N."""
    r, s = x
    rp, sp = y
    return (rp * s - r * sp) % N


def sl2_order(N: int) -> int:
    order = N**3
    m = N
    p = 2
    while m > 1:
        if m % p == 0:
            order = order // p**2 * (p**2 - 1)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    return order


def _d_values(N: int, a: int, b: int, c: int) -> list[int]:
    """Every d in Z_N with a d = 1 + b c (mod N), in increasing order."""
    t = (1 + b * c) % N
    g = math.gcd(a, N)
    if t % g:
        return []
    step = N // g
    d0 = pow((a // g) % step, -1, step) * (t // g) % step if step > 1 else 0
    return [d0 + k * step for k in range(g)]


def enumerate_sl2(N: int, cap: int = 100_000) -> list[SL2Element]:
    if sl2_order(N) > cap:
        raise TooLarge(f"|SL2(Z_{N})| = {sl2_order(N)} exceeds cap {cap}")
    out = []
    for a in range(N):
        for b in range(N):
            for c in range(N):
                out.extend(SL2Element(a, b, c, d, N) for d in _d_values(N, a, b, c))
    return out


def sample_sl2(N: int, count: int, seed: int) -> list[SL2Element]:
    """Seeded sample: (a, b, c) uniform, d solved from the determinant."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c = (rng.randrange(N) for _ in range(3))
        ds = _d_values(N, a, b, c)
        if ds:
            out.append(SL2Element(a, b, c, ds[rng.randrange(len(ds))], N))
    return out
