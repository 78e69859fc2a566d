import json
import random

import numpy as np
import pytest

from fqmrep import matrixcore
from fqmrep.exactnum import CycNum
from fqmrep.heisenberg import HWParams, gamma_p, p_inv_matrix, p_matrix, q_matrix
from fqmrep.magnetic import j_twisted
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
from fqmrep.metaplectic import u_d, u_general, u_t_pow
from fqmrep.sl2 import SL2Element
from fqmrep.weilmod import chirp, pi_shift


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


# -- monomial fast path ---------------------------------------------------------


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


@pytest.fixture
def monomial_calls(monkeypatch):
    calls = []
    real = matrixcore._monomial_matmul

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matrixcore, "_monomial_matmul", spy)
    return calls


@pytest.mark.parametrize("case", ["mono@mono", "mono@dense", "dense@mono"])
@pytest.mark.parametrize("family", MONOMIAL_FAMILIES)
def test_monomial_fast_path_matches_oracle(family, case, monomial_calls):
    x, y = _monomial_pair(family)
    dense = _random_exact(random.Random(30), x.dim, x.order)
    a, b = {"mono@mono": (x, y), "mono@dense": (x, dense), "dense@mono": (dense, x)}[case]
    monomial_calls.clear()  # builders multiply too
    prod = a @ b
    assert len(monomial_calls) == 1
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
def test_non_monomial_operands_take_the_dense_path(defect, monomial_calls):
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
    assert monomial_calls == []


def test_guard_tripping_monomial_takes_the_object_path(monomial_calls):
    big = (1 << 27) + 1  # odd: powers of two go into the scale
    m = OpMatrix.from_cyc_entries(_perm_matrix(3)).scalar_mul(big)
    dense = _random_exact(random.Random(34), 3).scalar_mul(big)
    for a, b in ((m, dense), (dense, m), (m, m)):
        assert mat_eq(a @ b, _entrywise_product(a, b)).equal
    assert monomial_calls == []


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
