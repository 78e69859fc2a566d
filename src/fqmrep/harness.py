"""Named verification suites over the representation families.

Each suite replays the invariants of one module at chosen parameters
and fills a VerifyReport: checks are counted in scan order, failures
carry an identity string plus the offending inputs, and the largest
absolute deviation seen by any comparison is tracked (exact-backend
equalities contribute 0.0).  Reports are deterministic for fixed
parameters and seed.

Every law over many keys records through `VerifyReport.scan`.  Laws of
phased permutations are decided in bulk on one table of their omega_N
exponents, from the builders' support formulas: `_support_law` decides the
exact `heisenberg` commutator law on a table prepared once per suite call
(`_law_table`).  The exact twisted cocycle and its dagger law are proven
from the 2 N^2 generator steps of the J table (`_generator_cocycle`, the
cocycle lemma); where a step fails, `_support_law` decides every pair
(`check_pair_law`) and every point as J[l] J[-l] == I on the same table.
`_conjugation_scan` decides J[l] U(A) == U(A) J[lA] on such a table, in
one scan over every (element, point) of a suite call: for `metaplectic`
over S, T and the samples, each on U's exponent index from its closed-form
builder's table (`_closed_form`, `_index`), from its two generator points
once the run's J's meet the cocycle lemma; for `weil-odd` over SL2(Z_N) on
the float stack of its U(A) (`_weil_odd_stack`) and that of its J's.  The
float pair laws (`cocycle-odd` and its dagger law, the `feichtinger-defect`
pi law, `weil-odd`'s U(A) U(B) == U(AB)) are decided on float stacks in
stacked products whose deviations keep their bits; `feichtinger-defect`
reads the characters of all its elements in one stacked scan
(`_character_scan`).
The exact `homomorphism` law is decided on the builders' tables by
`_phase_law`, each read once into a `_SlotTable`: a pair with a c = 0 side
on exponent indexes, a pair of factor tables modulo a word prime, a block
of slots at a time, past dim 64 by one table's two batched stages: on the
first N columns only where U(A), U(B) and U(AB) meet their conjugation
laws (`_covariance`, each element once per run), as J-covariance proves
the rest (`_covariance_law`).  Exact
`decomposition` chains that law over the prefixes of each element's word,
holding the tables of S, S^-1 and S^2 for the run (`_s_images_hold` ties
the word's images of them to the closed forms).  Keys a kernel does not
prove equal, and the keys of every other law, are compared one at a time,
so a passing exact twisted or `metaplectic` run builds no J, a passing
exact `homomorphism` or `metaplectic` run no U, a passing exact
`decomposition` run no matrix and a passing `weil-odd`, `cocycle-odd` or
`feichtinger-defect` run compares no key alone and scans no character alone.
The backend picks, no option does.

Backends follow the desk-scale rule: exact by default for N = 2^n
with n <= 3, float beyond, and a requested exact backend is never
downgraded silently (unsupported moduli raise instead).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from itertools import accumulate
from operator import mul

import numpy as np

from .exactnum import CycNum
from .heisenberg import (
    HWParams, _gamma_support, _root_scalar, fourier, gamma_p, p_inv_matrix, p_matrix, q_matrix,
)
from .magnetic import j_odd, j_twisted
from .matrixcore import (
    OpMatrix, _float_stack, _law_table, _member_is_identity, _phase_law, _phase_table,
    _slot_table, _stack_deviation, _support_law, _SupportTable, mat_eq,
)
from .metaplectic import (
    _closed_form,
    _conjugation_scan,
    _generator_cocycle,
    _generator_points,
    _j_table,
    _odd_prime,
    _s_table,
    _table_op,
    _weil_odd_stack,
    u_a_closed,
    u_general,
    u_of_word,
)
from .report import VerifyReport
from .sl2 import (
    SL2Element,
    TooLarge,
    _sl2_entries,
    _token_element,
    decompose,
    sample_sl2,
    sl2_order,
    sl2_s,
    sl2_t,
)
from .weilmod import (
    QuadraticModule,
    _character_scan,
    _feichtinger_array,
    _nonhom_witness,
    _pi_support,
    alpha_q,
    chirp,
    chirp_wrap_sign,
    find_theta_witness,
    generator_defect,
    pi_shift,
    theta_defect,
)

__all__ = ["UnknownSuite", "TooLarge", "SuiteSpec", "SUITE_NAMES", "check_pair_law", "run_suite"]

_PAIR_CAP = 10_000_000
_DIM_CAP = 4096


class UnknownSuite(ValueError):
    """Suite name outside SUITE_NAMES."""


@dataclass(frozen=True)
class SuiteSpec:
    """A suite name with its parameter dict (N or n, p, seed, samples...)."""

    suite: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.suite not in SUITE_NAMES:
            raise UnknownSuite(f"unknown suite {self.suite!r}; known: {', '.join(SUITE_NAMES)}")
        if int(self.params.get("samples") or 0) < 0:  # a negative count would run no check
            raise ValueError(f"samples must be >= 0, got {self.params['samples']}")


def _even_modulus(params: dict) -> HWParams:
    if "n" in params and params["n"] is not None:
        N = 2 ** int(params["n"])
    elif "N" in params and params["N"] is not None:
        N = int(params["N"])
    else:
        raise ValueError("suite needs n or N")
    return HWParams(N, 1 if params.get("p") is None else int(params["p"]))


def _odd_modulus(params: dict) -> int:
    N = params.get("N")
    if N is None:
        raise ValueError("suite needs N")
    N = int(N)
    if N < 3 or N % 2 == 0:
        raise ValueError(f"suite needs an odd modulus >= 3, got {N}")
    return N


def _default_backend(pr: HWParams) -> str:
    return "exact" if pr.is_even and pr.N <= 8 else "float"


def _backend_of(params: dict, pr: HWParams) -> str:
    backend = params.get("backend") or _default_backend(pr)
    if backend not in ("exact", "float"):
        raise ValueError(f"unknown backend {backend!r}")
    return backend


def _guard_pairs(count: int) -> None:
    if count > _PAIR_CAP:
        raise TooLarge(f"{count} pairs exceed the exhaustive cap {_PAIR_CAP}")


def _guard_dim(dim: int) -> None:
    if dim > _DIM_CAP:
        raise TooLarge(f"dimension {dim} exceeds the cap {_DIM_CAP}")


# -- pair laws ---------------------------------------------------------------


def _pair_compare(op, N: int, tol: float, x, y, z, e) -> tuple[bool, float]:
    # the product first: a lazy op(z) is not built while the product's
    # temporaries are alive
    X, Y = op(x), op(y)
    if X.backend == "exact":
        got = X @ Y
        Z = op(z)
        return mat_eq(got, Z if e is None else Z.scalar_mul(CycNum.root(N, e)), tol)
    got = X.data @ Y.data
    Z = op(z).data
    want = Z if e is None else _root_scalar(N, e, "float") * Z
    dev = float(np.abs(got - want).max())
    return dev <= tol, dev


@cache
def _float_roots(N: int) -> np.ndarray:
    # omega_N^k for k < N by `_root_scalar`'s scalar formula: the phases
    # `_pair_compare` multiplies, bit for bit
    return np.array([_root_scalar(N, k, "float") for k in range(N)])


def check_pair_law(rep, identity, pairs, op, compose, phase, inputs, tol, members=None) -> None:
    """Record op(x) op(y) == omega_N^{e(x, y)} op(compose(x, y)) for every
    (x, y) of `pairs`, an array of keys, in scan order (`VerifyReport.scan`).

    `op` is a cached builder, `phase` is (N, e) or None for the bare law,
    and `inputs(x, y)` names a failing pair.  `members` is None or
    (table, index), `index` numbering keys into the table's members; with
    it, a chunk of pairs is decided at once, its key arrays given to
    `compose`, `e` and `index`.  A family of phased permutations with a
    phase passes its `_SupportTable` of root order N, prepared once
    (`_law_table`) and decided by `_support_law` on integer exponents;
    a bare law may pass instead a cached table(number) -> `_SlotTable`, each
    pair then decided by `_phase_law`: on exponent indexes where a side is
    a phased permutation, else one block of slots at a time.  A float
    family passes the stack (members, dim, dim) of its matrices, and blocks
    of pairs are decided as |S[x] @ S[y] - phi S[xy]| in stacked products
    (`_stack_deviation`), phi read from a table of `_root_scalar`'s values,
    so each deviation is the one of the pair's own product.  The pairs
    left, and every pair without a table, are compared one at a time.
    """
    N, exponent = phase or (1, None)

    def compare(x, y):
        e = None if exponent is None else exponent(x, y)
        return _pair_compare(op, N, tol, x, y, compose(x, y), e)

    def stacked(x, y):
        table, index = members
        left, right, out = index(x), index(y), index(compose(x, y))
        if isinstance(table, np.ndarray):  # a float stack
            phi = None if exponent is None else _float_roots(N)[exponent(x, y) % N]

            def sides(k):
                want = table[out[k]] if phi is None else phi[k, None, None] * table[out[k]]
                return table[left[k]] @ table[right[k]], want

            dev = _stack_deviation(len(left), table.shape[1], sides)
            return dev <= tol, dev
        if not callable(table):  # a support table, not table(number)
            return _support_law(table, left, right, out, exponent(x, y)), 0.0
        keys = zip(left.tolist(), right.tolist(), out.tolist())
        return np.array([_phase_law(*map(table, key)) for key in keys], dtype=bool), 0.0

    rep.scan(identity, pairs, compare, inputs, None if members is None else stacked)


def _key_pairs(N: int, width: int) -> np.ndarray:
    # every pair (x, y) of keys in Z_N^width, x-major, each key row-major, as
    # an array (2, width, count) of key coordinates
    return np.indices((N,) * (2 * width)).reshape(2, width, -1)


def _torus_law(rep, identity, N, op, exponent, tol, table=None) -> None:
    # over all (l, l') in (Z_N^2)^2, l = (r, s) r-major, composed by addition;
    # `table` holds op(l) at row N r + s
    check_pair_law(
        rep, identity, _key_pairs(N, 2), op,
        lambda l, m: ((l[0] + m[0]) % N, (l[1] + m[1]) % N), (N, exponent),
        lambda l, m: {"l": list(l), "l'": list(m)}, tol,
        None if table is None else (table, lambda l: N * l[0] + l[1]),
    )


def _entries(elems) -> np.ndarray:
    # SL2 elements as an array (4, count) of their entries (a, b, c, d)
    return np.array([A.entries() for A in elems], dtype=np.int64).reshape(-1, 4).T


def _every_pair(entries: np.ndarray) -> np.ndarray:
    # every pair (A, B) of the elements of `entries`, an array (4, count),
    # A-major, as an array (2, 4, count^2) of entries
    n = entries.shape[1]
    return np.stack((np.repeat(entries, n, axis=1), np.tile(entries, n)))


def _sl2_law(rep, N, pairs, op, tol, members=None) -> None:
    # `pairs` an array (2, 4, count) of entries; op keyed by the entries (a, b, c, d)
    def compose(x, y):
        return ((x[0] * y[0] + x[1] * y[2]) % N, (x[0] * y[1] + x[1] * y[3]) % N,
                (x[2] * y[0] + x[3] * y[2]) % N, (x[2] * y[1] + x[3] * y[3]) % N)

    check_pair_law(
        rep, "U(A) U(B) == U(AB)", pairs, op, compose, None,
        lambda x, y: {"A": list(x), "B": list(y)}, tol, members,
    )


def _dagger_law(rep, N, op, tol, table=None) -> None:
    # J[l]^dagger == J[-l] over l = (r, s) r-major; `table` holds op(l) at
    # row N r + s.  A float stack decides blocks of points with the deviation
    # mat_eq gives.  On a `_support_law` table the law is J[l] J[-l] == I,
    # decided as J[l] J[-l] == J[0] once member 0 is the identity (never
    # unless c_l is a permutation); the points left are compared as matrices
    stacked = None
    if isinstance(table, np.ndarray):

        def stacked(r, s):
            l, m = N * r + s, N * (-r % N) + -s % N
            sides = lambda k: (table[l[k]].conj().transpose(0, 2, 1), table[m[k]])  # noqa: E731
            dev = _stack_deviation(len(l), table.shape[1], sides)
            return dev <= tol, dev

    elif table is not None and _member_is_identity(table, 0):

        def stacked(r, s):
            zero = np.zeros_like(r)
            return _support_law(table, N * r + s, N * (-r % N) + -s % N, zero, zero), 0.0

    rep.scan(
        "J[l]^dagger == J[-l]", np.indices((N, N)).reshape(2, -1),
        lambda r, s: mat_eq(op((r, s)).dagger(), op((-r % N, -s % N)), tol),
        lambda r, s: {"r": r, "s": s}, stacked,
    )


# -- suites ------------------------------------------------------------------


def _commutator_compare(gamma, pr: HWParams, backend: str, tol: float, g, h):
    # [Gamma(g), Gamma(h)] == (w^{p r' s} - w^{p r s'}) Gamma(gh) for one
    # pair of (m, r, s) triples reduced mod N
    lhs = gamma(g) @ gamma(h) - gamma(h) @ gamma(g)
    scalar = _root_scalar(pr.N, pr.p * h[1] * g[2], backend)
    scalar = scalar - _root_scalar(pr.N, pr.p * g[1] * h[2], backend)
    return mat_eq(lhs, gamma(tuple((a + b) % pr.N for a, b in zip(g, h))).scalar_mul(scalar), tol)


def _suite_heisenberg(params: dict) -> VerifyReport:
    pr = _even_modulus(params)
    backend = _backend_of(params, pr)
    tol = float(params.get("tol", 1e-9))
    seed = int(params.get("seed", 7))
    samples = int(params.get("samples", 1000))
    N, p = pr.N, pr.p
    _guard_dim(N)
    rep = VerifyReport(
        "heisenberg", {"N": N, "p": p, "backend": backend, "seed": seed}
    )
    eye = OpMatrix.identity(N, backend, order=max(N, 8))
    Q, P, Pinv = q_matrix(pr, backend), p_matrix(pr, backend), p_inv_matrix(pr, backend)
    cmp = mat_eq(Pinv @ Q, (Q @ Pinv).scalar_mul(_root_scalar(N, p, backend)), tol)
    rep.record(cmp.equal, cmp.max_deviation, "P^-1 Q == omega^p Q P^-1", {})
    cmp = mat_eq(Q**N, eye, tol)
    rep.record(cmp.equal, cmp.max_deviation, "Q^N == I", {})
    cmp = mat_eq(P**N, eye, tol)
    rep.record(cmp.equal, cmp.max_deviation, "P^N == I", {})
    F = fourier(pr, backend)
    cmp = mat_eq(F @ P**p @ F.dagger(), Q, tol)
    rep.record(cmp.equal, cmp.max_deviation, "F P^p F^-1 == Q", {})

    # commutator law over pairs of (m, r, s) triples scanned in [0, 2N)^3;
    # matrices and scalars repeat with period N per slot, so each residue
    # class is multiplied once and counted with multiplicity 2^6
    exhaustive = bool(params.get("exhaustive", N <= 4))
    gamma = cache(lambda key: gamma_p(pr, *key, backend))
    mod = lambda g: (g[0] % N, g[1] % N, g[2] % N)  # noqa: E731
    exponent = lambda g, h: p * h[1] * g[2]  # noqa: E731
    stacked = None
    if backend == "exact":  # float reports carry each pair's deviation
        # the table of all N^3 elements, Gamma(z^m x^r y^s) at row N(N m + r) + s
        elements = np.unravel_index(np.arange(N**3), (N, N, N))
        table = _law_table(_SupportTable(N, *_gamma_support(pr, *elements)))

        def stacked(g, h):
            # Gamma(g) Gamma(h) = w^{p s r'} Gamma(gh) and Gamma(h) Gamma(g) =
            # w^{p s' r} Gamma(gh): the two product laws give the commutator law
            g, h = g % N, h % N
            x, y, z = (N * (N * t[0] + t[1]) + t[2] for t in (g, h, (g + h) % N))
            return (_support_law(table, x, y, z, exponent(g, h))
                    & _support_law(table, y, x, z, exponent(h, g))), 0.0

    if exhaustive:
        _guard_pairs((2 * N) ** 6)
        pairs = _key_pairs(N, 3)
        rep.params["mode"] = "exhaustive"
    else:  # drawn in [0, 2N), g then h, reduced mod N for the operators
        rng = random.Random(seed)
        pairs = np.array([rng.randrange(2 * N) for _ in range(6 * samples)], dtype=np.int64)
        pairs = pairs.reshape(samples, 2, 3).transpose(1, 2, 0)
        rep.params["mode"] = "sampled"
        rep.params["samples"] = samples
    rep.scan(
        "[Gamma(g), Gamma(h)] == (w^{p r' s} - w^{p r s'}) Gamma(gh)", pairs,
        lambda g, h: _commutator_compare(gamma, pr, backend, tol, mod(g), mod(h)),
        lambda g, h: {"g": list(g), "h": list(h)}, stacked, 64 if exhaustive else 1,
    )
    return rep


def _suite_cocycle_odd(params: dict) -> VerifyReport:
    N = _odd_modulus(params)
    tol = float(params.get("tol", 1e-9))
    _guard_pairs(N**4)
    rep = VerifyReport("cocycle-odd", {"N": N})
    inv2 = pow(2, -1, N)
    op = cache(lambda l: j_odd(N, l))
    stack = _float_stack(_j_table("weil_odd", N, None))
    _dagger_law(rep, N, op, tol, stack)
    _torus_law(
        rep, "J[l] J[l'] == omega^{(r' s - r s')/2} J[l+l']", N, op,
        lambda l, m: (m[0] * l[1] - l[0] * m[1]) * inv2, tol, stack,
    )
    return rep


def _suite_cocycle_twisted(params: dict) -> VerifyReport:
    pr = _even_modulus(params)
    backend = _backend_of(params, pr)
    tol = float(params.get("tol", 1e-9))
    N, p = pr.N, pr.p
    _guard_dim(N * N)
    _guard_pairs(N**4)
    rep = VerifyReport("cocycle-twisted", {"N": N, "p": p, "backend": backend})
    op = cache(lambda l: j_twisted(pr, l, backend=backend))
    table = None
    if backend == "exact":  # phased permutations: laws on integer exponents
        table = _law_table(_j_table("twisted_even", N, pr))
        if _generator_cocycle(table, pr):  # the lemma proves every point and pair
            rep.checks_run = N**2 + N**4
            return rep
    _dagger_law(rep, N, op, tol, table)
    _torus_law(
        rep, "J[l] J[l'] == omega^{p(r' s - s' r)} J[l+l']", N, op,
        lambda l, m: p * (m[0] * l[1] - m[1] * l[0]), tol, table,
    )
    return rep


def _suite_metaplectic(params: dict) -> VerifyReport:
    pr = _even_modulus(params)
    tol = float(params.get("tol", 1e-9))
    samples = int(params.get("samples", 0))
    seed = int(params.get("seed", 7))
    N = pr.N
    _guard_dim(N * N)
    rep = VerifyReport("metaplectic", {"N": N, "p": pr.p, "samples": samples, "seed": seed})
    table = _j_table("twisted_even", N, pr)
    # at S and T the closed form is u_s and u_t; U is built only for a
    # failing element, once on its first failing point
    elements = [sl2_s(N), sl2_t(N)] + sample_sl2(N, samples, seed)
    names = ["S", "T"] + [list(A.entries()) for A in elements[2:]]
    closed = lru_cache(maxsize=4)(lambda e: _closed_form(pr, elements[e])[0])
    matrix = lru_cache(maxsize=1)(lambda e: _table_op(pr, closed(e), "exact", "U"))
    _conjugation_scan(
        rep, N, table, _entries(elements), closed, lambda pt: j_twisted(pr, pt, backend="exact"),
        matrix, tol, lambda e, l: {"element": names[e], "r": l // N, "s": l % N},
        _generator_cocycle(_law_table(table), pr),  # the cocycle lemma, once per run
    )
    return rep


def _suite_homomorphism(params: dict) -> VerifyReport:
    pr = _even_modulus(params)
    backend = _backend_of(params, pr)
    tol = float(params.get("tol", 1e-9))
    seed = int(params.get("seed", 7))
    N = pr.N
    _guard_dim(N * N)
    exhaustive = bool(params.get("exhaustive", sl2_order(N) ** 2 <= 10_000))
    rep = VerifyReport(
        "homomorphism",
        {"N": N, "p": pr.p, "backend": backend,
         "mode": "exhaustive" if exhaustive else "sampled"},
    )
    if exhaustive:
        entries = _sl2_entries(N)
        _guard_pairs(entries.shape[1] ** 2)
        pairs = _every_pair(entries)
    else:
        samples = int(params.get("samples", 500))
        rep.params["samples"] = samples
        rep.params["seed"] = seed
        pairs = np.stack((_entries(sample_sl2(N, samples, seed)),
                          _entries(sample_sl2(N, samples, seed + 1))))
    # a sampled pair uses its U(A), U(B), U(AB) once: keep only the last few
    keep = lru_cache(maxsize=None if exhaustive else 4)
    element = lambda x: SL2Element._trusted(*x, N)  # noqa: E731
    op = keep(lambda x: u_general(pr, element(x), backend))
    members = None
    if backend == "exact":  # the builders' tables decide; elements are numbered by their entries
        shape = (N,) * 4
        entries = lambda k: tuple(map(int, np.unravel_index(k, shape)))  # noqa: E731
        attach = _covariance(pr)
        table = keep(lambda k: attach(_slot_table(_closed_form(pr, element(entries(k)))[0]), k,
                                      entries(k)))
        members = (table, lambda x: np.ravel_multi_index(x, shape))
    _sl2_law(rep, N, pairs, op, tol, members)
    return rep


def _covariance(pr: HWParams):
    """A function (slot, key, entries) -> slot that appends to the slot
    table of U(A), A = entries, the run's verdict on J_l U(A) == U(A) J_{lA}
    at every l, decided on first use: once per run, the J table meets
    `_generator_cocycle` and its J's carry the first N columns to every
    column (J_m e_j is a unit times e_i, i the row holding column j), as
    `_covariance_law` needs; once per key, the slot's index meets the law at
    the two generator points (`_generator_points`)."""

    @cache
    def j_table():
        # in the smallest unsigned types (the index kernel's exponents wrap
        # mod 2^8, a multiple of the order): held in int64, it raised the
        # peak RSS of an N = 16 run by 1 MB
        table = _j_table("twisted_even", pr.N, pr)
        return table._replace(cols=table.cols.astype(np.min_scalar_type(pr.N**2 - 1)),
                              exps=table.exps.astype(np.min_scalar_type(pr.N - 1)))

    cocycle = cache(lambda: _generator_cocycle(_law_table(j_table()), pr)
                    and bool((j_table().cols < pr.N).any(axis=0).all()))
    verdicts = {}

    def covariant(key, index, order, entries) -> bool:
        if key not in verdicts:
            verdicts[key] = cocycle() and _generator_points(j_table(), index, order, entries)
        return verdicts[key]

    def attach(slot, key, entries):  # no reference to the slot: no cycle keeps it alive
        slot.covariant.append(partial(covariant, key, slot.index, 2 * len(slot.roots), entries))
        return slot

    return attach


def _suite_decomposition(params: dict) -> VerifyReport:
    pr = _even_modulus(params)
    backend = _backend_of(params, pr)
    tol = float(params.get("tol", 1e-9))
    seed = int(params.get("seed", 7))
    samples = int(params.get("samples", 200))
    _guard_dim(pr.N * pr.N)
    rep = VerifyReport(
        "decomposition",
        {"N": pr.N, "p": pr.p, "backend": backend, "samples": samples, "seed": seed},
    )
    # a sample uses its prefixes' tables once: keep only the last few; the
    # S-power tables serve every sample and `_s_images_hold`: hold them
    S = sl2_s(pr.N)
    powers = (S, S.inv(), S**2)
    closed = cache(lambda X: _closed_form(pr, X)[0])  # S powers only
    held = cache(lambda X: _slot_table(closed(X)))
    recent = lru_cache(maxsize=4)(lambda X: _slot_table(_closed_form(pr, X)[0]))
    slot = lambda X: (held if X in powers else recent)(X)  # noqa: E731
    s_images = cache(lambda: _s_images_hold(pr, closed, slot))

    def chain(word) -> bool:
        # U(P_i) U(t_{i+1}) == U(P_{i+1}) over the prefixes P_i = t_1 ... t_i:
        # then the word product is U(P_5) = U(A)
        tokens = [_token_element(t, pr.N) for t in word]
        P = list(accumulate(tokens, mul))
        return all(_phase_law(slot(x), slot(t), slot(z)) for x, t, z in zip(P, tokens[1:], P[1:]))

    for A in sample_sl2(pr.N, samples, seed):
        try:
            word = decompose(A)  # raises if the word does not reproduce A
            if backend == "exact" and s_images() and chain(word):
                ok, dev = True, 0.0
            else:
                cmp = mat_eq(u_a_closed(pr, A, backend), u_of_word(pr, word, backend), tol)
                ok, dev = cmp.equal, cmp.max_deviation
        except RuntimeError:
            ok, dev = False, float("inf")
        rep.record(ok, dev, "closed form == generator word product", {"A": list(A.entries())})
    return rep


def _s_images_hold(pr: HWParams, closed, slot) -> bool:
    """Whether `u_of_word`'s U(S), U(S)^dagger and U(S) U(S) are the closed
    forms at S, S^-1 and S^2: the closed form at S (`closed`, a builder's
    table) is u_s's own table, the one at S^-1 that table's exponents negated
    and transposed (unmasked, at the same scale), and `_phase_law` proves the
    square on the tables `slot` reads."""
    S = sl2_s(pr.N)
    own = _s_table(pr)
    for X, want in ((S, own), (S.inv(), own._replace(exps=-own.exps.T))):
        c = _phase_table(closed(X))
        if not (c.mask is want.mask is None and c.scale_pow2 == want.scale_pow2
                and c.order == want.order
                and np.array_equal(c.exps % c.order, want.exps % c.order)):
            return False
    return _phase_law(slot(S), slot(S), slot(S**2))


def _suite_weil_odd(params: dict) -> VerifyReport:
    N = _odd_prime(_odd_modulus(params))
    tol = float(params.get("tol", 1e-9))
    order = sl2_order(N)
    _guard_pairs(order * N * N)  # also bounds the J stack's N^4 entries
    rep = VerifyReport("weil-odd", {"N": N})
    entries = _sl2_entries(N)
    stack = _weil_odd_stack(N, entries)  # U(A) of every element, in one pass
    matrix = cache(lambda e: OpMatrix.from_complex(stack[e], meta="weil_odd_general"))
    _conjugation_scan(
        rep, N, _float_stack(_j_table("weil_odd", N, None)), entries, stack,
        lambda pt: j_odd(N, pt), matrix, tol,
        lambda e, l: {"element": entries[:, e].tolist(), "r": l // N, "s": l % N},
    )
    run_pairs = bool(params.get("pairs", order**2 <= 20_000))
    rep.params["pairs"] = run_pairs
    if run_pairs:
        _guard_pairs(order**2)
        shape = (N,) * 4
        number = np.zeros(N**4, dtype=np.intp)  # elements numbered by their entries
        number[np.ravel_multi_index(entries, shape)] = np.arange(order)
        index = lambda x: number[np.ravel_multi_index(x, shape)]  # noqa: E731
        op = lambda x: matrix(int(index(x)))  # noqa: E731
        _sl2_law(rep, N, _every_pair(entries), op, tol, (stack, index))
    return rep


def _suite_quadratic_module(params: dict) -> VerifyReport:
    pr = _even_modulus(params)
    N = pr.N
    tol = float(params.get("tol", 1e-9))
    _guard_dim(N * N)
    qm = QuadraticModule(N)
    rep = VerifyReport("quadratic-module", {"N": N})
    for x1 in range(N):
        for x2 in range(N):
            ok = qm.q((-x1 % N, -x2 % N)) == qm.q((x1, x2))
            rep.record(ok, 0.0 if ok else 1.0, "Q(-x) == Q(x)", {"x": [x1, x2]})
    units = list(range(1, N, 2))
    alpha = {a: alpha_q(qm, a) for a in units}
    for a in units:
        dev = abs(alpha[a] - 1)
        rep.record(dev <= 1e-10, dev, "alpha_Q(a) == 1", {"a": a})
    for a in units:
        for b in units:
            dev = abs(alpha[a] * alpha[b] - alpha[1] * alpha[a * b % N])
            rep.record(
                dev <= 1e-10, dev,
                "alpha(a) alpha(b) == alpha(1) alpha(ab)", {"a": a, "b": b},
            )
    probes = [("T", None), ("Sinv", None)] + [("D", a) for a in units]
    for kind, a in probes:
        out = generator_defect(qm, kind, a)
        dev = max(out["defect"], abs(out["phase"] - 1))
        rep.record(
            dev <= tol, dev,
            f"Gamma({kind}) == {out['partner']}", {"kind": kind, "a": a},
        )
    return rep


def _suite_feichtinger_defect(params: dict) -> VerifyReport:
    N = 2 ** int(params["n"]) if params.get("n") is not None else int(params.get("N") or 0)
    if N < 2:
        raise ValueError("suite needs N >= 2")
    tol = float(params.get("tol", 1e-9))
    seed = int(params.get("seed", 7))
    _guard_pairs(N**4)
    rep = VerifyReport("feichtinger-defect", {"N": N, "seed": seed})
    if N % 2:
        for c1 in range(2 * N):
            for c2 in range(2 * N):
                ok = theta_defect(N, c1, c2) == 1
                rep.record(ok, 0.0 if ok else 1.0, "theta(c1, c2) == +1", {"c": [c1, c2]})
    else:
        witness = find_theta_witness(N)
        ok = witness is not None and theta_defect(N, *witness) == -1
        rep.record(ok, 0.0 if ok else 1.0, "a theta == -1 witness exists", {})
        if witness is not None:
            rep.params["theta_witness"] = list(witness)
    k = np.arange(N)
    for c1 in range(N):
        for c2 in range(N):
            lhs = (chirp(N, c1) @ chirp(N, c2)).to_complex_array()
            sign = float(chirp_wrap_sign(N, c1, c2))
            rhs = (sign ** (k * k))[:, None] * chirp(N, (c1 + c2) % N).to_complex_array()
            dev = float(np.abs(lhs - rhs).max())
            rep.record(
                dev <= tol, dev,
                "R[c1] R[c2] == sign^(k^2) R[c1+c2]", {"c": [c1, c2]},
            )
    r, s = np.divmod(np.arange(N * N), N)
    _torus_law(
        rep, "pi(l) pi(l') == omega^{s r'} pi(l+l')", N, cache(lambda l: pi_shift(N, *l)),
        lambda l, m: l[1] * m[0], tol, _float_stack(_SupportTable(N, *_pi_support(N, r, s))),
    )
    entries = _sl2_entries(N)
    if entries.shape[1] > 60:
        rng = random.Random(seed)
        entries = entries[:, sorted(rng.sample(range(entries.shape[1]), 48))]
    matrix = cache(lambda x: _feichtinger_array(N, x))  # each U built once: scan and witness
    formed = [x for x in map(tuple, entries.T.tolist()) if matrix(x) is not None]
    if formed:  # one character scan over every well-formed element
        _, faults = _character_scan(np.array([matrix(x) for x in formed]), np.array(formed).T, tol)
        for x, fault in zip(formed, faults):
            ok = fault is None
            rep.record(ok, 0.0 if ok else 1.0, "U pi(k,l) U^-1 == psi pi((k,l)A)", {"A": list(x)})
    if len(formed) < entries.shape[1]:
        rep.params["ill_formed"] = entries.shape[1] - len(formed)
    if N % 2 == 0:
        witness = _nonhom_witness(N, matrix, 1e-6)
        ok = witness is not None
        rep.record(ok, 0.0 if ok else 1.0, "some product defect survives every global phase", {})
        if ok:
            rep.params["nonhom_pair"] = witness["pair"]
            rep.params["nonhom_defect_norm"] = witness["defect_norm"]
    elif sl2_order(N) ** 2 <= 20_000:
        witness = _nonhom_witness(N, matrix, 1e-6)
        ok = witness is None
        rep.record(ok, 0.0 if ok else witness["defect_norm"],
                   "every product composes up to a global phase", {})
    return rep


_SUITES = {
    "heisenberg": _suite_heisenberg,
    "cocycle-odd": _suite_cocycle_odd,
    "cocycle-twisted": _suite_cocycle_twisted,
    "metaplectic": _suite_metaplectic,
    "homomorphism": _suite_homomorphism,
    "decomposition": _suite_decomposition,
    "weil-odd": _suite_weil_odd,
    "quadratic-module": _suite_quadratic_module,
    "feichtinger-defect": _suite_feichtinger_defect,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(spec: SuiteSpec) -> VerifyReport:
    """Execute one named suite and return its filled report."""
    t0 = time.perf_counter()
    rep = _SUITES[spec.suite](dict(spec.params))
    rep.runtime_ms = (time.perf_counter() - t0) * 1000.0
    return rep
