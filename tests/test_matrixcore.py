import json
import math
import random

import numpy as np
import pytest

from fqmrep import exactnum, heisenberg, matrixcore, metaplectic
from fqmrep.exactnum import CycNum
from fqmrep.harness import _DIM_CAP
from fqmrep.heisenberg import (
    HWParams,
    fourier,
    gamma_p,
    p_inv_matrix,
    p_matrix,
    q_matrix,
)
from fqmrep.magnetic import j_odd, j_twisted
from fqmrep.matrixcore import (
    BackendMismatch,
    DimMismatch,
    ExactOverflow,
    OpMatrix,
    kron,
    mat_eq,
    matrix_to_csv_text,
    matrix_to_json_dict,
    twist_perm,
)
from fqmrep.metaplectic import u_d, u_general, u_s, u_t_pow
from fqmrep.sl2 import SL2Element, enumerate_sl2, sample_sl2
from fqmrep.weilmod import QuadraticModule, chirp, pi_shift, weil_generator_action


def _random_exact(rng, dim, order=8):
    size = order // 2
    grid = [
        [
            CycNum(order, tuple(rng.randrange(-3, 4) for _ in range(size)), rng.randrange(0, 3))
            for _ in range(dim)
        ]
        for _ in range(dim)
    ]
    return OpMatrix.from_cyc_entries(grid)


def _entrywise_product(a, b):
    # Independent oracle: plain CycNum sums, no tensor machinery.
    rows = []
    for i in range(a.dim):
        row = []
        for j in range(b.dim):
            acc = CycNum.zero(a.order)
            for l in range(a.dim):
                acc = acc + a.entry(i, l) * b.entry(l, j)
            row.append(acc)
        rows.append(row)
    return OpMatrix.from_cyc_entries(rows)


def _entrywise_scalar(a, s):
    return OpMatrix.from_cyc_entries(
        [[a.entry(i, j) * s for j in range(a.dim)] for i in range(a.dim)]
    )


def test_exact_matmul_matches_entrywise_oracle():
    rng = random.Random(10)
    for dim in (1, 2, 3, 4):
        a = _random_exact(rng, dim)
        b = _random_exact(rng, dim)
        expected = _entrywise_product(a, b)
        assert mat_eq(a @ b, expected).equal


def test_exact_matmul_overflow_fallback_matches():
    rng = random.Random(11)
    a = _random_exact(rng, 2)
    b = _random_exact(rng, 2)
    big = (1 << 27) + 1  # odd: a power of two would go into the scale
    abig = a.scalar_mul(big)
    bbig = b.scalar_mul(big)
    prod = abig @ bbig  # trips the float64 exactness guard
    assert mat_eq(prod, (a @ b).scalar_mul(big * big)).equal


def test_float_matmul_matches_numpy():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    y = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a, b = OpMatrix.from_complex(x), OpMatrix.from_complex(y)
    assert np.allclose((a @ b).to_complex_array(), x @ y)


def test_exact_and_float_products_agree():
    rng = random.Random(13)
    for _ in range(20):
        a = _random_exact(rng, 3)
        b = _random_exact(rng, 3)
        exact = (a @ b).to_complex_array()
        approx = (a.to_float() @ b.to_float()).to_complex_array()
        assert np.abs(exact - approx).max() < 1e-9


def test_kron_index_convention():
    rng = random.Random(14)
    a = _random_exact(rng, 2)
    b = _random_exact(rng, 3)
    k = kron(a, b)
    assert k.dim == 6
    for k1 in range(2):
        for k2 in range(3):
            for j1 in range(2):
                for j2 in range(3):
                    assert k.entry(3 * k1 + k2, 3 * j1 + j2) == a.entry(k1, j1) * b.entry(k2, j2)


def test_kron_associativity():
    rng = random.Random(15)
    for _ in range(5):
        a, b, c = (_random_exact(rng, 2) for _ in range(3))
        assert mat_eq(kron(kron(a, b), c), kron(a, kron(b, c))).equal


def test_kron_mixed_backend_rejected():
    a = OpMatrix.identity(2)
    b = OpMatrix.identity(2, backend="float")
    with pytest.raises(BackendMismatch):
        kron(a, b)


def test_dagger_is_an_antihomomorphism():
    rng = random.Random(16)
    for _ in range(10):
        a = _random_exact(rng, 3)
        b = _random_exact(rng, 3)
        assert mat_eq((a @ b).dagger(), b.dagger() @ a.dagger()).equal
    x = OpMatrix.from_complex(np.random.default_rng(17).normal(size=(4, 4)) + 0j)
    y = OpMatrix.from_complex(np.random.default_rng(18).normal(size=(4, 4)) + 0j)
    assert mat_eq((x @ y).dagger(), y.dagger() @ x.dagger()).equal


def test_dagger_involution():
    rng = random.Random(19)
    a = _random_exact(rng, 4)
    assert mat_eq(a.dagger().dagger(), a).equal


def test_twist_perm_is_an_involution():
    for d in (2, 3, 4):
        tau = twist_perm(d)
        assert mat_eq(tau @ tau, OpMatrix.identity(d * d)).equal


def test_twist_perm_swaps_tensor_factors():
    rng = random.Random(20)
    a = _random_exact(rng, 3)
    b = _random_exact(rng, 3)
    tau = twist_perm(3)
    assert mat_eq(tau @ kron(a, b) @ tau, kron(b, a)).equal


def test_pow_matches_repeated_product():
    rng = random.Random(21)
    a = _random_exact(rng, 3)
    assert mat_eq(a**4, a @ a @ a @ a).equal
    assert mat_eq(a**1, a).equal
    assert mat_eq(a**0, OpMatrix.identity(3)).equal


def test_scalar_mul_backends_agree():
    rng = random.Random(22)
    a = _random_exact(rng, 3)
    s = CycNum.root(8, 3)
    exact = a.scalar_mul(s).to_complex_array()
    approx = a.to_float().scalar_mul(s.to_complex()).to_complex_array()
    assert np.abs(exact - approx).max() < 1e-9


def test_add_aligns_scales():
    one = OpMatrix.identity(2)
    half = one.scalar_mul(CycNum.inv_sqrt2_pow(2))
    total = one + half
    assert total.entry(0, 0) == CycNum(8, (3, 0, 0, 0), 1)


def test_dim_mismatch_raises():
    with pytest.raises(DimMismatch):
        OpMatrix.identity(2) @ OpMatrix.identity(3)
    with pytest.raises(DimMismatch):
        mat_eq(OpMatrix.identity(2), OpMatrix.identity(3))


def test_backend_mismatch_raises():
    with pytest.raises(BackendMismatch):
        OpMatrix.identity(2) @ OpMatrix.identity(2, backend="float")


def test_mat_eq_exact_ignores_tol():
    a = OpMatrix.identity(2)
    b = a.scalar_mul(CycNum(8, (1, 1, 0, 0), 40))  # tiny but nonzero perturbation
    cmp = mat_eq(a @ b, a, tol=1.0)
    assert not cmp.equal
    assert cmp.max_deviation > 0


def test_mat_eq_float_uses_tol():
    x = np.eye(2, dtype=complex)
    a = OpMatrix.from_complex(x)
    b = OpMatrix.from_complex(x + 1e-12)
    assert mat_eq(a, b, tol=1e-9).equal
    assert not mat_eq(a, b, tol=1e-15).equal


def test_mat_eq_mixed_backend_compares_numerically():
    a = OpMatrix.identity(3)
    b = OpMatrix.identity(3, backend="float")
    assert mat_eq(a, b, tol=1e-12).equal


def test_from_phase_table_backend_agreement():
    rng = np.random.default_rng(23)
    exponents = rng.integers(0, 16, size=(4, 4))
    mask = rng.integers(0, 2, size=(4, 4)).astype(bool)
    exact = OpMatrix.from_phase_table(16, exponents, mask, scale_pow2=2)
    approx = OpMatrix.from_phase_table(16, exponents, mask, scale_pow2=2, backend="float")
    assert np.abs(exact.to_complex_array() - approx.to_complex_array()).max() < 1e-12


def test_float_phase_tables_are_bit_identical_to_exp_per_entry(monkeypatch):
    # the root table must give every float family the bits of the complex exp
    # per entry it replaced (weil_odd_* build from complex arrays, not here);
    # phased permutations come through from_support, dense tables through
    # from_phase_table and factor tables through `_table_op`'s one gather
    # from their index, so all three are spied on
    real = OpMatrix.__dict__["from_phase_table"].__func__
    real_support = OpMatrix.__dict__["from_support"].__func__
    real_op = metaplectic._table_op
    built = []

    def check(out, root_order, e, mask, scale_pow2, meta):
        want = np.where(
            mask, np.exp(2j * np.pi * (e % root_order) / root_order), 0
        ) * 2.0 ** (-scale_pow2)
        assert out.data.dtype == np.complex128
        assert np.array_equal(out.data.view(np.uint64), want.view(np.uint64))
        built.append(meta)

    def spy(cls, root_order, exponents, mask=None, scale_pow2=0, backend="exact", meta=None):
        out = real(cls, root_order, exponents, mask, scale_pow2, backend, meta)
        if backend == "float":
            e = np.asarray(exponents)
            mask = np.ones(e.shape, dtype=bool) if mask is None else mask
            check(out, root_order, e, mask, scale_pow2, meta)
        return out

    def spy_support(cls, root_order, cols, exponents, scale_pow2=0, backend="exact", meta=None):
        out = real_support(cls, root_order, cols, exponents, scale_pow2, backend, meta)
        if backend == "float":
            dim = len(cols)
            e = np.zeros((dim, dim), dtype=np.int64)
            e[np.arange(dim), cols] = exponents
            check(out, root_order, e, np.eye(dim, dtype=bool)[cols], scale_pow2, meta)
        return out

    def spy_op(params, table, backend, meta):
        out = real_op(params, table, backend, meta)
        if backend == "float" and isinstance(table, matrixcore._FactorTable):
            dense = matrixcore._phase_table(table)
            mask = np.ones(dense.exps.shape, dtype=bool) if dense.mask is None else dense.mask
            check(out, dense.order, dense.exps, mask, dense.scale_pow2, meta)
        return out

    monkeypatch.setattr(OpMatrix, "from_phase_table", classmethod(spy))
    monkeypatch.setattr(OpMatrix, "from_support", classmethod(spy_support))
    monkeypatch.setattr(metaplectic, "_table_op", spy_op)

    def family(*ops):
        before = len(built)
        for op in ops:
            op()
        return built[before:]

    even = [HWParams(N, p) for N in (2, 4, 8) for p in range(1, N, 2)]
    odd = [HWParams(N) for N in (3, 5, 7)]
    assert family(*(
        lambda pr=pr, m=m, r=r, s=s: gamma_p(pr, m, r, s, "float")
        for pr in even + odd for m in range(pr.N) for r in range(pr.N) for s in range(pr.N)
    ))
    assert family(*(
        lambda pr=pr, r=r, s=s: j_twisted(pr, (r, s), backend="float")
        for pr in even for r in range(pr.N) for s in range(pr.N)
    ))
    assert family(*(lambda N=N, r=r, s=s: j_odd(N, (r, s))
                    for N in (3, 5, 7) for r in range(N) for s in range(N)))
    elements = [
        (HWParams(N, p), A) for N in (2, 4) for p in range(1, N, 2) for A in enumerate_sl2(N)
    ]
    elements += [(HWParams(8, p), A) for p in (1, 3, 5, 7) for A in sample_sl2(8, 40, p)]
    branches = family(*(lambda pr=pr, A=A: u_general(pr, A, "float") for pr, A in elements))
    assert set(branches) == {"d-odd-triangular", "d-odd-reduced", "d-odd-sum", "d-even"}
    assert family(*(lambda pr=pr: u_s(pr, "float") for pr in even))
    assert family(*(lambda pr=pr, m=m: u_t_pow(pr, m, "float") for pr in even for m in range(pr.N)))
    assert family(*(lambda N=N, r=r, s=s: pi_shift(N, r, s)
                    for N in range(2, 9) for r in range(N) for s in range(N)))
    assert family(*(lambda N=N, c=c: chirp(N, c) for N in range(2, 9) for c in range(2 * N)))
    assert set(family(*(
        lambda N=N, kind=kind: weil_generator_action(QuadraticModule(N), kind)
        for N in (2, 4, 8) for kind in ("T", "Sinv")
    ))) == {"Gamma(T)", "Gamma(S^-1)"}


def _support_cases(family, backend):
    """(from_support build, root order, old dense exponent table, mask, scale) for
    every member of a phased-permutation family at N <= 8, the table and mask
    written out as the builder filled them before it handed over its support."""
    even = [HWParams(N, p) for N in (2, 4, 8) for p in range(1, N, 2)]
    odd = [HWParams(N) for N in (3, 5, 7)] if backend == "float" else []

    def table(dim, cols, values):
        E = np.zeros((dim, dim), dtype=np.int64)
        mask = np.zeros((dim, dim), dtype=bool)
        E[np.arange(dim), cols] = values
        mask[np.arange(dim), cols] = True
        return E, mask

    if family == "gamma_p":
        for pr in even + odd:
            N, p, k = pr.N, pr.p, np.arange(pr.N)
            for m, r, s in np.ndindex(N, N, N):
                E, mask = table(N, (k + s) % N, (p * m + p * k * r) % N)
                yield gamma_p(pr, m, r, s, backend), N, E, mask, 0
    elif family == "j_odd":
        for N in (3, 5, 7) if backend == "float" else ():
            k = np.arange(N)
            for r, s in np.ndindex(N, N):
                j = (k - r) % N
                E, mask = table(N, j, (r * s * pow(2, -1, N) + j * s) % N)
                yield j_odd(N, (r, s)), N, E, mask, 0
    elif family in ("j_twisted", "u_t_pow", "triangular"):
        for pr in even:
            N, p = pr.N, pr.p
            k1, k2 = np.divmod(np.arange(N * N), N)
            if family == "j_twisted":
                for r, s in np.ndindex(N, N):
                    E, mask = table(N * N, N * ((k1 - r) % N) + (k2 - r) % N,
                                    (p * (-s * r + (k1 + k2) * s)) % N)
                    yield j_twisted(pr, (r, s), backend), N, E, mask, 0
            elif family == "u_t_pow":
                for m in range(-1, N + 1):
                    E, mask = table(N * N, np.arange(N * N), (-p * (m % N) * k1 * k2) % N)
                    yield u_t_pow(pr, m, backend), N, E, mask, 0
            else:
                for A in enumerate_sl2(N):
                    if A.c == 0:
                        dinv = pow(A.d, -1, N)
                        E, mask = table(N * N, N * ((dinv * k1) % N) + (dinv * k2) % N,
                                        (-p * A.b * dinv * k1 * k2) % N)
                        support = metaplectic._closed_triangular(pr, A)
                        yield OpMatrix.from_support(*support, backend=backend), N, E, mask, 0
    elif family in ("pi_shift", "chirp", "Gamma(T)") and backend == "float":
        for N in range(2, 9):
            k = np.arange(N)
            if family == "pi_shift":
                for r, s in np.ndindex(N, N):
                    j = (k - r) % N
                    E, mask = table(N, j, j * (s % N) % N)
                    yield pi_shift(N, r, s), N, E, mask, 0
            elif family == "chirp":
                for c in range(-1, 2 * N + 1):
                    E, mask = table(N, k, (N + 1) * c * k * k % (2 * N))
                    yield chirp(N, c), 2 * N, E, mask, 0
            elif N in (2, 4, 8):
                x1, x2 = np.divmod(np.arange(N * N), N)
                E, mask = table(N * N, np.arange(N * N), x1 * x2 % N)
                yield weil_generator_action(QuadraticModule(N), "T"), N, E, mask, 0
    elif family == "twist_perm":
        for dim in range(1, 9):
            swap = np.arange(dim * dim).reshape(dim, dim).T.ravel()
            for order in (8, 16):
                mask = np.eye(dim * dim, dtype=bool)[swap]
                yield twist_perm(dim, backend, order), order, np.zeros(mask.shape, int), mask, 0
    elif family == "identity":
        for dim in range(1, 17):
            for order in (8, 16):
                mask = np.eye(dim, dtype=bool)
                yield OpMatrix.identity(dim, backend, order), order, np.zeros(mask.shape, int), mask, 0
    elif family == "densify" and backend == "exact":  # random supports, written out dense
        rng = np.random.default_rng(8)
        for order in (8, 16, 32):
            for dim in (1, 4, 16, 64):
                cols, entries = rng.permutation(dim), rng.integers(0, order, dim)
                scale = int(rng.integers(0, 4))
                E, mask = table(dim, cols, entries)
                yield OpMatrix.from_support(order, cols, entries, scale), order, E, mask, scale


SUPPORT_FAMILIES = ["gamma_p", "j_odd", "j_twisted", "u_t_pow", "triangular", "pi_shift",
                    "chirp", "Gamma(T)", "twist_perm", "identity", "densify"]


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("family", SUPPORT_FAMILIES)
def test_support_builders_match_the_dense_phase_table(family, backend):
    # every phased-permutation family written from its support equals the dense
    # from_phase_table(exponents, mask) it was built with before: same exact
    # coefficients, order and scale, same float bits
    count = 0
    for got, root_order, E, mask, scale in _support_cases(family, backend):
        want = OpMatrix.from_phase_table(root_order, E, mask, scale, backend)
        assert got.backend == backend
        if backend == "exact":
            assert (got.order, got.scale_log2) == (want.order, want.scale_log2)
            assert np.array_equal(got.coeffs, want.coeffs)
        else:
            assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))
        count += 1
    only = {"exact": {"j_odd", "pi_shift", "chirp", "Gamma(T)"}, "float": {"densify"}}
    assert (count == 0) == (family in only[backend])


def test_entry_returns_canonical_cycnum():
    m = OpMatrix.identity(2).scalar_mul(2)
    e = m.entry(0, 0)
    assert e == CycNum.from_int(2)
    assert e.coeffs == (1, 0, 0, 0) and e.scale_log2 == -1


def test_json_export_shape():
    m = OpMatrix.identity(2)
    d = matrix_to_json_dict(m)
    assert d["dim"] == 2 and d["backend"] == "exact"
    assert d["entries"][0][0] == {"order": 8, "coeffs": [1, 0, 0, 0], "scale_log2": 0}
    f = matrix_to_json_dict(m.to_float())
    assert f["entries"][0][0] == {"re": 1.0, "im": 0.0}
    json.dumps(d), json.dumps(f)  # serializable


def test_csv_export_layout():
    m = OpMatrix.identity(2, backend="float")
    text = matrix_to_csv_text(m)
    lines = text.strip().split("\n")
    assert lines[0] == "# dim=2 backend=float"
    assert len(lines) == 3
    assert [float(x) for x in lines[1].split(",")] == [1.0, 0.0, 0.0, 0.0]


def test_unitary_defect():
    h = OpMatrix.from_complex(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    assert h.unitary_defect() < 1e-12
    assert OpMatrix.from_complex(np.eye(2) * 2).unitary_defect() > 1


# -- phased permutations -------------------------------------------------------


def _exact_twin(m, order):
    # exact copy of a float matrix whose entries are 0 or order-th roots of unity
    data = m.to_complex_array()
    exps = np.rint(np.angle(data) * order / (2 * np.pi)).astype(np.int64) % order
    return OpMatrix.from_phase_table(order, exps, np.abs(data) > 0.5)


def _monomial_pair(family):
    """Two members of a phased-permutation family, N <= 8 (dim <= 16 when twisted)."""
    p8, p4 = HWParams(8, 3), HWParams(4, 1)
    if family == "Q":
        return q_matrix(p8), q_matrix(p8) ** 3
    if family == "P":
        return p_matrix(p8), p_inv_matrix(p8)
    if family == "gamma_p":
        return gamma_p(p8, 1, 2, 3), gamma_p(p8, 5, 7, 1)
    if family == "j_twisted":
        return j_twisted(p4, (1, 3)), j_twisted(p4, (2, 1))
    if family == "u_t_pow":
        return u_t_pow(p4, 3), u_t_pow(p4, 1)
    if family == "u_d":
        return u_d(p4, 3), u_d(p4, 1)
    if family == "u_general_c0":
        x, y = u_general(p4, SL2Element(3, 1, 0, 3, 4)), u_general(p4, SL2Element(1, 2, 0, 1, 4))
        assert "d-odd-triangular" in x.meta and "d-odd-triangular" in y.meta
        return x, y
    if family == "pi_shift":
        return _exact_twin(pi_shift(8, 3, 5), 8), _exact_twin(pi_shift(8, 6, 1), 8)
    if family == "chirp":
        return _exact_twin(chirp(8, 3), 16), _exact_twin(chirp(8, 6), 16)
    raise ValueError(family)


MONOMIAL_FAMILIES = [
    "Q", "P", "gamma_p", "j_twisted", "u_t_pow", "u_d", "u_general_c0", "pi_shift", "chirp",
]


@pytest.mark.parametrize("case", ["mono@mono", "mono@dense", "dense@mono"])
@pytest.mark.parametrize("family", MONOMIAL_FAMILIES)
def test_monomial_fast_path_matches_oracle(family, case, ntt_calls):
    # products with a phased permutation are NTT products like any other pair
    x, y = _monomial_pair(family)
    dense = _random_exact(random.Random(30), x.dim, x.order)
    a, b = {"mono@mono": (x, y), "mono@dense": (x, dense), "dense@mono": (dense, x)}[case]
    ntt_calls.clear()  # builders multiply too
    prod = a @ b
    assert len(ntt_calls) == 1
    assert mat_eq(prod, _entrywise_product(a, b)).equal


@pytest.mark.parametrize("family", MONOMIAL_FAMILIES)
def test_scalar_mul_matches_oracle(family):
    x, _ = _monomial_pair(family)
    for s in (CycNum.root(16, 5), CycNum(8, (2, -1, 0, 3), 1)):
        assert mat_eq(x.scalar_mul(s), _entrywise_scalar(x, s)).equal
    dense = _random_exact(random.Random(31), x.dim, x.order)
    s = CycNum(16, (1, 0, -2, 0, 0, 5, 0, 1), 2)
    assert mat_eq(dense.scalar_mul(s), _entrywise_scalar(dense, s)).equal


def _perm_matrix(dim, order=8):
    rng = random.Random(32)
    cols = list(range(dim))
    rng.shuffle(cols)
    entries = [[CycNum.zero(order)] * dim for _ in range(dim)]
    for i, j in enumerate(cols):
        entries[i][j] = CycNum.root(order, rng.randrange(order))
    return entries


@pytest.mark.parametrize("defect", ["two nonzeros in a row", "zero row"])
def test_non_monomial_operands_take_the_dense_path(defect, ntt_calls):
    entries = _perm_matrix(6)
    if defect == "two nonzeros in a row":
        j = next(j for j in range(6) if entries[2][j].is_zero())
        entries[2][j] = CycNum(8, (1, 1, 0, 0), 0)
    else:
        entries[4] = [CycNum.zero(8)] * 6
        # keep dim nonzero coefficients, so the count alone cannot tell
        j = next(j for j in range(6) if not entries[2][j].is_zero())
        entries[2][j] = CycNum(8, (1, 1, 0, 0), 0)
    m = OpMatrix.from_cyc_entries(entries)
    dense = _random_exact(random.Random(33), 6)
    for a, b in ((m, dense), (dense, m)):
        assert mat_eq(a @ b, _entrywise_product(a, b)).equal
    assert len(ntt_calls) == 2


def test_guard_tripping_monomial_takes_the_object_path(ntt_calls):
    big = (1 << 27) + 1  # odd: powers of two go into the scale
    m = OpMatrix.from_cyc_entries(_perm_matrix(3)).scalar_mul(big)
    dense = _random_exact(random.Random(34), 3).scalar_mul(big)
    for a, b in ((m, dense), (dense, m), (m, m)):
        assert mat_eq(a @ b, _entrywise_product(a, b)).equal
    assert ntt_calls == []


# -- int64 headroom ---------------------------------------------------------------


def test_rescaled_add_raises_instead_of_wrapping():
    eye = OpMatrix.identity(4)
    tiny = OpMatrix(4, "exact", coeffs=eye.coeffs, scale_log2=64)
    with pytest.raises(ExactOverflow):
        tiny + eye.scalar_mul(3)  # 3 << 64 used to wrap to 0, giving 2^-64 I
    zero, tiny_entry = CycNum.zero(8), CycNum(8, (1, 0, 0, 0), 64)
    with pytest.raises(ExactOverflow):
        OpMatrix.from_cyc_entries([[tiny_entry, zero], [zero, CycNum.from_int(3)]])


def test_mat_eq_far_apart_scales():
    eye = OpMatrix.identity(4)
    tiny = OpMatrix(4, "exact", coeffs=eye.coeffs, scale_log2=64)
    assert not mat_eq(tiny, eye.scalar_mul(3)).equal
    assert mat_eq(tiny, OpMatrix(4, "exact", coeffs=eye.coeffs * 4, scale_log2=66)).equal


def test_products_raise_instead_of_wrapping():
    m = OpMatrix.identity(2).scalar_mul((1 << 40) + 1)
    with pytest.raises(ExactOverflow):
        m.scalar_mul((1 << 30) + 1)
    with pytest.raises(ExactOverflow):
        m.scalar_mul(CycNum(8, (1 << 22, 1 << 22, 1, 0), 0))
    with pytest.raises(ExactOverflow):
        kron(m, m)
    # a dense pair past the prime takes the object path, whose int64 cast
    # must raise ExactOverflow too, not OverflowError
    c = np.zeros((2, 2, 4), dtype=np.int64)
    c[..., 0] = 2**40 + 1
    dense = OpMatrix(2, "exact", coeffs=c)
    with pytest.raises(ExactOverflow):
        dense @ dense


# -- multi-modular (NTT) dense product ---------------------------------------------


def _embedding_product(a, b):
    # Independent oracle for large operands: embed a as the (dim L)^2 integer
    # matrix sum_k a[:, :, k] (x) W^k and multiply in float64, exact while
    # every |a||b| sum stays below 2^52.
    d, _, size = a.shape
    emb = np.einsum(
        "ilk,kab->ialb", a.astype(np.float64), exactnum._wstack(size).astype(np.float64)
    ).reshape(d * size, d * size)
    prod = emb @ b.transpose(0, 2, 1).reshape(d * size, d).astype(np.float64)
    return np.rint(prod).astype(np.int64).reshape(d, size, d).transpose(0, 2, 1)


@pytest.fixture
def ntt_calls(monkeypatch):
    calls = []
    real = matrixcore._ntt_matmul

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matrixcore, "_ntt_matmul", spy)
    return calls


def _branch_pair(branch):
    params = HWParams(4, 3)
    found = []
    for A in enumerate_sl2(4):
        u = u_general(params, A)
        if u.meta.endswith(f"[{branch}]"):
            found.append(u)
        if len(found) == 2:
            return found
    raise AssertionError(branch)


def _dense_pair(family):
    """Two dense exact operators of one family, N <= 8 (dim <= 16)."""
    if family == "u_s":
        return u_s(HWParams(4, 1)), u_s(HWParams(4, 3))
    if family == "fourier":
        return fourier(HWParams(8, 1)), fourier(HWParams(8, 3)).dagger()
    if family == "fourier_kron":
        f = fourier(HWParams(4, 1))
        return f.kron(f), f.kron(f.dagger())
    return _branch_pair(family)


DENSE_FAMILIES = ["u_s", "fourier", "fourier_kron", "d-even", "d-odd-reduced", "d-odd-sum"]


@pytest.mark.parametrize("family", DENSE_FAMILIES)
def test_dense_product_matches_oracle(family, ntt_calls):
    x, y = _dense_pair(family)
    for a, b in ((x, y), (y, x), (x, x)):
        ntt_calls.clear()
        prod = a @ b
        assert len(ntt_calls) == 1
        assert mat_eq(prod, _entrywise_product(a, b)).equal


def _plan(dim, size):
    return matrixcore._ntt_plan((max(dim, size) - 1).bit_length(), size)


@pytest.mark.parametrize("size", [4, 8])
@pytest.mark.parametrize("dim", [4, 16, 64, 256])
def test_ntt_kernel_at_prime_thresholds(dim, size, ntt_calls):
    # one word prime p: a product bound just under p/2 goes through the
    # kernel, just over it through the object path (checked at dim <= 16 only,
    # as the object path is slow), and both equal the embedding oracle
    p = _plan(dim, size)[0]
    rng = np.random.default_rng(dim * size)
    unit = dim * size
    for over in (False, True) if dim <= 16 else (False,):
        target = (p + 1) // 2 if over else (p - 1) // 2
        # constant tensors reach |coefficient| = amax bmax dim L in slot L - 1;
        # the skewed split puts nearly all of the bound on one operand
        for amax in (max(1, math.isqrt(target // unit)), max(1, target // unit)):
            bmax = -(-target // (amax * unit)) if over else target // (amax * unit)
            if over:  # odd, so that no factor of two is stripped into the scale
                amax, bmax = amax | 1, bmax | 1
            bound = amax * bmax * unit
            assert 2 * bound > p if over else 2 * bound < p
            shape = (dim, dim, size)
            const = np.full(shape, amax), np.full(shape, -bmax)
            rand = rng.integers(-amax, amax + 1, shape), rng.integers(-bmax, bmax + 1, shape)
            rand[0][0, 0, 0], rand[1][0, 0, 0] = amax, -bmax
            for a, b in (const, rand):
                want = _embedding_product(a, b)
                ntt_calls.clear()
                x, y = (OpMatrix(dim, "exact", coeffs=c, order=2 * size) for c in (a, b))
                assert mat_eq(x @ y, OpMatrix(dim, "exact", coeffs=want, order=2 * size)).equal
                assert len(ntt_calls) == (not over), (target, amax, bmax)
                kernel_exact = np.array_equal(matrixcore._ntt_matmul(a, b), want)
                if a is const[0]:  # reaches the bound, which one prime cannot hold past p/2
                    assert np.abs(want).max() == bound and kernel_exact != over
                else:
                    assert kernel_exact or over


def test_embedding_oracle_matches_entrywise():
    rng = random.Random(40)
    a, b = _random_exact(rng, 4), _random_exact(rng, 4)
    assert np.array_equal(_embedding_product(a.coeffs, b.coeffs), (a @ b).coeffs)
    assert mat_eq(a @ b, _entrywise_product(a, b)).equal


def _is_prime(m):
    return m > 1 and all(m % q for q in range(2, math.isqrt(m) + 1))


@pytest.mark.parametrize("size", [4, 8, 16])
def test_ntt_plan_for_every_dim(size):
    checked = set()
    for dim in range(1, _DIM_CAP + 1):
        p, fwd, inv = _plan(dim, size)
        # every float64 operand is a centred residue; dot products stay exact,
        # and so do _slot_table's scaled roots, below p^2/2
        assert max(dim, size) * ((p - 1) // 2) ** 2 < 2**51 and p * p // 2 < 2**51
        span = 1 << (max(dim, size) - 1).bit_length()
        if span in checked:
            continue
        checked.add(span)
        assert _is_prime(p) and p % (2 * size) == 1
        # the largest such prime: every candidate above p within the bound is composite
        q = p + 2 * size
        while span * ((q - 1) // 2) ** 2 < 2**51:
            assert not _is_prime(q)
            q += 2 * size
        assert np.abs(fwd).max() <= (p - 1) // 2 and np.abs(inv).max() <= (p - 1) // 2
        zeta = int(fwd[0, 1]) % p
        assert pow(zeta, size, p) == p - 1
        for m in range(size):
            for k in range(size):
                assert int(fwd[m, k]) % p == pow(zeta, (2 * m + 1) * k, p)
        ident = (inv.astype(object) @ fwd.astype(object)) % p
        assert (ident == np.eye(size, dtype=object)).all()


def test_guard_tripping_dense_pair_takes_the_object_path(ntt_calls):
    rng = random.Random(41)
    a, b = _random_exact(rng, 3), _random_exact(rng, 3)
    big = (1 << 27) + 1  # odd: powers of two go into the scale
    abig, bbig = a.scalar_mul(big), b.scalar_mul(big)
    assert mat_eq(abig @ bbig, _entrywise_product(abig, bbig)).equal
    assert ntt_calls == []
    assert mat_eq(a @ b, _entrywise_product(a, b)).equal
    assert len(ntt_calls) == 1


@pytest.mark.parametrize("order,target,dtype", [
    (8, 8, np.uint8), (8, 32, np.uint8), (128, 128, np.uint8), (128, 256, np.uint16),
])
def test_index_kernel_reads_a_table_in_the_smallest_type(order, target, dtype):
    # `_index` gives the omega_target exponents of X, the table's matrix up
    # to its scale, and `target` off its mask or support, in the smallest
    # type; on it the conjugation kernel decides J_l X == X J_m as the dense
    # products do: for a phase table with a mask, one without and a 1-d
    # support table, against phased permutations J at the table's order
    # (for the support table also J_m = X^-1 J_l X, where the law holds) and
    # a J that is no permutation
    rng = np.random.default_rng(order + target)
    exps, mask = rng.integers(-order, order, size=(6, 6)), rng.random((6, 6)) < 0.7
    cols = rng.permutation(6)
    support = np.zeros((6, 6), dtype=bool)
    support[np.arange(6), cols] = True
    dense = lambda c, e: OpMatrix.from_support(order, c, e).to_complex_array()  # noqa: E731
    for table, on in [
        (matrixcore._PhaseTable(order, exps, mask, 3), mask),
        (matrixcore._PhaseTable(order, exps, None, 3), np.ones((6, 6), dtype=bool)),
        (matrixcore._SupportTable(order, cols, exps[np.arange(6), cols]), support),
    ]:
        index = matrixcore._index(table, target)
        assert index.dtype == dtype and index.shape == (6, 6)
        assert np.array_equal(index, np.where(on, exps * (target // order) % target, target))
        support_table = isinstance(table, matrixcore._SupportTable)
        X = (OpMatrix.from_support if support_table else OpMatrix.from_phase_table)(*table)
        X = X.to_complex_array()
        members = [(rng.permutation(6), rng.integers(order, size=6)) for _ in range(3)]
        if support_table:
            for c, e in list(members):
                image = np.linalg.inv(X) @ dense(c, e) @ X
                c = np.abs(image).argmax(axis=1)
                angle = np.angle(image[np.arange(6), c]) * order / (2 * np.pi)
                members.append((c, np.rint(angle).astype(np.int64) % order))
        members.append((np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.int64)))
        J = matrixcore._SupportTable(order, *map(np.array, zip(*members)))
        left, right = np.indices((len(members),) * 2).reshape(2, -1)
        got = metaplectic._index_conjugation(J, index, target, left, right)
        want = [np.allclose(dense(*members[l]) @ X, X @ dense(*members[m]))
                for l, m in zip(left, right)]
        assert got.tolist() == want and any(want) == support_table


def _law_family(family, pr):
    """(member keys as coordinate rows, member t in column t; the exponent
    table; the builder; the exponent e of the product law X Y = omega^e Z)."""
    N, p = pr.N, pr.p
    if family == "gamma":  # Gamma(g) Gamma(h) = omega^{p s r'} Gamma(gh)
        keys = np.unravel_index(np.arange(N**3), (N, N, N))
        table = matrixcore._SupportTable(N, *heisenberg._gamma_support(pr, *keys))
        return np.stack(keys), table, lambda k: gamma_p(pr, *k), lambda g, h: p * g[2] * h[1]
    keys = np.unravel_index(np.arange(N**2), (N, N))
    table = metaplectic._j_table("twisted_even", N, pr)
    return (np.stack(keys), table, lambda l: j_twisted(pr, l),
            lambda l, m: p * (m[0] * l[1] - m[1] * l[0]))


def _keep_the_form(table, flaw, t):
    """The J table with member t flawed so that it stays in square Kronecker
    form: times omega ("scalar"), or rebuilt as omega^{x0} (F' (x) F') from
    its factor F with row 1 moved to the next column ("factor-row")."""
    cols, exps = table.cols.copy(), table.exps.copy()
    n = math.isqrt(cols.shape[1])
    if flaw == "scalar":
        exps[t] = (exps[t] + 1) % table.order
    else:
        c = cols[t, ::n] // n
        c[1 % n] = (c[1 % n] + 1) % n
        cols[t] = (n * c[:, None] + c).ravel()
    return matrixcore._SupportTable(table.order, cols, exps)


@pytest.mark.parametrize("family,flaw", [
    *[("gamma", flaw) for flaw in (None, "phase", "composition")],
    *[("j_twisted", flaw) for flaw in (None, "phase", "composition", "scalar", "factor-row")],
])
def test_support_law_matches_the_dense_products(family, flaw):
    # seeded triples (X, Y, Z) at every N <= 8 and odd p: the table's verdict
    # on X Y == omega_N^e Z is mat_eq's on the dense product.  A flaw moves
    # the phase (by omega_N) or the member Z of about half the triples, or
    # flaws the member (1, 2 mod N) of the J table in a way that keeps its
    # square Kronecker form and puts it at X, Y or Z of about half the triples
    rng = np.random.default_rng(5)
    verdicts, caught = [], set()  # caught: the positions of the flawed member seen to fail
    for N in (2, 4, 8):
        for p in range(1, N, 2):
            keys, table, build, exponent = _law_family(family, HWParams(N, p))
            count = keys.shape[1]
            left, right = rng.integers(count, size=(2, 40))
            flip = rng.random(40) < 0.5
            flawed = N + 2 % N
            if flaw in ("scalar", "factor-row"):
                table = _keep_the_form(table, flaw, flawed)
                at = rng.integers(3, size=40)
                left = np.where(flip & (at == 0), flawed, left)
                right = np.where(flip & (at == 1), flawed, right)
                minus = np.ravel_multi_index((keys[:, flawed, None] - keys[:, left]) % N, (N, N))
                right = np.where(flip & (at == 2), minus, right)
            x, y = keys[:, left], keys[:, right]
            out = np.ravel_multi_index((x + y) % N, (N,) * len(keys))
            phase = exponent(x, y)
            if flaw == "phase":
                phase = phase + flip
            elif flaw == "composition":
                out = np.where(flip, rng.integers(count, size=40), out)

            def member(t):
                if t == flawed and flaw in ("scalar", "factor-row"):
                    return OpMatrix.from_support(N, table.cols[t], table.exps[t])
                return build(tuple(keys[:, t].tolist()))

            got = matrixcore._support_law(matrixcore._law_table(table), left, right, out, phase)
            want = [
                mat_eq(member(a) @ member(b), member(c).scalar_mul(CycNum.root(table.order, e))).equal
                for a, b, c, e in zip(left, right, out, phase.tolist())
            ]
            assert got.tolist() == want
            if flaw == "phase":
                assert want == (~flip).tolist()
            if flaw in ("scalar", "factor-row"):
                caught |= set(at[flip & ~np.array(want)].tolist())
            verdicts += want
    assert all(verdicts) == (flaw is None)
    assert caught == ({0, 1, 2} if flaw in ("scalar", "factor-row") else set())


def _support_law_int64(table, left, right, out, phase):
    # the law on int64 exponents reduced by `%`, the reference for the
    # kernel's narrow wrapping exponents
    cols, exps = table.cols, table.exps
    y, cx = right[:, None], cols[left]
    e = exps[left] + exps[y, cx] - exps[out] - phase[:, None]
    return ((cols[y, cx] == cols[out]) & (e % table.order == 0)).all(axis=1)


@pytest.mark.parametrize("order", [2**m for m in range(1, 13)])
def test_narrow_support_law_equals_the_int64_formula(order, monkeypatch):
    # seeded random tables at every dim 1..64, prepared by `_law_table` in
    # codes of the smallest unsigned type: members 0..7 are random and member 8 + k is the
    # product of key k over omega^phase[k], so key k holds unless a flaw
    # moves an exponent (key 1) or a column (key 2) of that product; keys
    # past `count` name a random member.  A small block runs many blocks.
    monkeypatch.setattr(matrixcore, "_LAW_BLOCK", 1 << 7)
    rng = np.random.default_rng(order)
    count = 24
    for dim in range(1, 65):
        cols, exps = rng.integers(dim, size=(8, dim)), rng.integers(order, size=(8, dim))
        left, right = rng.integers(8, size=(2, 2 * count))
        phase = rng.integers(-(1 << 20), 1 << 20, size=2 * count)
        assert (phase < 0).any() and (phase >= 1 << 16).any()
        y, cx = right[:count, None], cols[left[:count]]
        products = (cols[y, cx], (exps[left[:count]] + exps[y, cx] - phase[:count, None]) % order)
        products[1][1, rng.integers(dim)] += 1
        products[1][1] %= order
        if dim > 1:
            products[0][2, 0] = (products[0][2, 0] + 1) % dim
        table = matrixcore._SupportTable(order, *map(np.vstack, zip((cols, exps), products)))
        out = np.concatenate((8 + np.arange(count), rng.integers(8 + count, size=count)))
        law = matrixcore._law_table(table)
        assert law.shift == (dim - 1).bit_length()
        assert law.codes.dtype == np.min_scalar_type((order << law.shift) - 1)
        got = matrixcore._support_law(law, left, right, out, phase)
        assert got.tolist() == _support_law_int64(table, left, right, out, phase).tolist()
        assert (~got[:count]).nonzero()[0].tolist() == ([1, 2] if dim > 1 else [1])
        # the table cast to narrow columns and exponents first gives the same verdicts
        narrow = table._replace(
            cols=table.cols.astype(np.min_scalar_type(dim - 1)),
            exps=table.exps.astype(np.uint8 if order <= 256 else np.uint16),
        )
        got_narrow = matrixcore._support_law(matrixcore._law_table(narrow), left, right, out, phase)
        assert got_narrow.tolist() == got.tolist()
    empty = np.zeros(0, dtype=np.int64)
    assert matrixcore._support_law(law, empty, empty, empty, empty).shape == (0,)


@pytest.mark.parametrize("order", [3, 6, 1 << 17])
def test_support_law_refuses_orders_not_dividing_2_16(order):
    table = matrixcore._SupportTable(order, np.zeros((1, 2), np.int64), np.zeros((1, 2), np.int64))
    with pytest.raises(ValueError, match=f"got {order}$"):
        matrixcore._law_table(table)
