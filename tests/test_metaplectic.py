"""Tests for the metaplectic representations, twisted and odd-prime."""

import numpy as np
import pytest

from fqmrep.exactnum import CycNum, NotAUnit
from fqmrep import metaplectic
from fqmrep.heisenberg import HWParams, fourier, p_matrix, q_matrix
from fqmrep.magnetic import j_odd, j_twisted
from fqmrep.matrixcore import OpMatrix, mat_eq, twist_perm
from fqmrep.metaplectic import (
    BadBranch,
    MetaplecticRep,
    NonGeneric,
    _closed_odd_sum,
    u_a_closed,
    u_d,
    u_general,
    u_of_word,
    u_s,
    u_t,
    u_t_pow,
    verify_metaplectic,
    weil_odd_d,
    weil_odd_general,
    weil_odd_generic,
    weil_odd_s,
)
from fqmrep.sl2 import (
    SL2Element,
    decompose,
    dilatation,
    enumerate_sl2,
    sample_sl2,
    sl2_s,
    sl2_t,
)


def test_u_s_frozen_n1():
    half = CycNum.inv_sqrt2_pow(2)
    m = u_s(HWParams(2))
    for j in range(4):
        assert m.entry(0, j) == half
        assert m.entry(j, 0) == half
    assert m.entry(1, 1) == half
    assert m.entry(1, 3) == -half
    assert m.entry(3, 3) == half


def test_u_t_frozen():
    m = u_t(HWParams(4))
    for k2 in range(4):
        assert m.entry(k2, k2) == CycNum.one()
    assert m.entry(5, 5) == CycNum.root(4, -1)
    assert abs(m.entry(5, 5).to_complex() - (-1j)) < 1e-15
    assert m.entry(0, 1).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_periodicity(n):
    N = 2**n
    for p in range(1, max(N, 2), 2):
        params = HWParams(N, p)
        S, T = u_s(params), u_t(params)
        ident = OpMatrix.identity(N * N, "exact", order=max(N, 8))
        assert mat_eq(S**4, ident).equal
        assert mat_eq((S @ T) ** 6, ident).equal
        assert mat_eq(T**N, ident).equal


@pytest.mark.parametrize("n", [1, 2, 3])
def test_u_s_is_twisted_double_fourier(n):
    params = HWParams(2**n)
    F = fourier(params)
    tw = twist_perm(params.N, "exact", order=max(2 * params.N, 8))
    assert mat_eq(tw @ F.kron(F), u_s(params)).equal


@pytest.mark.parametrize("n,p", [(1, 1), (2, 1), (2, 3), (3, 1), (3, 5)])
def test_twisted_fourier_conjugation(n, p):
    params = HWParams(2**n, p)
    N = params.N
    S = u_s(params)
    Q, P = q_matrix(params), p_matrix(params)
    ident = OpMatrix.identity(N, "exact", order=max(N, 8))
    assert mat_eq(S.dagger() @ Q.kron(ident) @ S, ident.kron(P)).equal
    assert mat_eq(S.dagger() @ ident.kron(Q) @ S, P.kron(ident)).equal


@pytest.mark.parametrize("n,p", [(1, 1), (2, 1), (2, 3)])
def test_u_t_as_double_q_sum(n, p):
    # 2^{-n} sum over (s1, s2) of omega^{p s1 s2} Q^{s1} (x) Q^{s2}.
    params = HWParams(2**n, p)
    N = params.N
    Q = q_matrix(params)
    acc = None
    for s1 in range(N):
        for s2 in range(N):
            term = (Q**s1).kron(Q**s2).scalar_mul(CycNum.root(N, p * s1 * s2))
            acc = term if acc is None else acc + term
    acc = acc.scalar_mul(CycNum.inv_sqrt2_pow(2 * n))
    assert mat_eq(acc, u_t(params)).equal


def test_u_d_identity_and_inverses():
    params = HWParams(8)
    ident = OpMatrix.identity(64, "exact")
    assert mat_eq(u_d(params, 1), ident).equal
    for a in (1, 3, 5, 7):
        assert mat_eq(u_d(params, a) @ u_d(params, pow(a, -1, 8)), ident).equal


@pytest.mark.parametrize("p", [1, 3])
def test_u_d_is_bare_permutation(p):
    # The six-token word collapses to the permutation k -> a^{-1} k
    # with global phase exactly 1.
    params = HWParams(4, p)
    for a in (1, 3):
        got = u_d(params, a)
        ainv = pow(a, -1, 4)
        perm = np.zeros((16, 16), dtype=complex)
        for k1 in range(4):
            for k2 in range(4):
                perm[4 * ((ainv * k1) % 4) + (ainv * k2) % 4, 4 * k1 + k2] = 1
        assert np.max(np.abs(got.to_complex_array() - perm)) < 1e-12


def test_u_d_metaplectic_exhaustive_n2():
    params = HWParams(4)
    for a in (1, 3):
        rep = verify_metaplectic(
            u_d(params, a), dilatation(4, a), "twisted_even", params=params
        )
        assert rep.passed and rep.checks_run == 16
        assert rep.max_abs_deviation == 0.0


def test_closed_form_trivial_branches():
    params = HWParams(4)
    ident = OpMatrix.identity(16, "exact")
    assert mat_eq(u_a_closed(params, SL2Element(1, 0, 0, 1, 4)), ident).equal
    assert mat_eq(u_a_closed(params, sl2_t(4)), u_t(params)).equal
    assert mat_eq(u_a_closed(params, sl2_s(4)), u_s(params)).equal


def test_closed_form_equals_word_product_sampled():
    params = HWParams(8, 1)
    for A in sample_sl2(8, 200, seed=424):
        word = u_of_word(params, decompose(A))
        assert mat_eq(u_a_closed(params, A), word).equal


def test_closed_form_equals_word_product_other_p():
    params = HWParams(8, 5)
    for A in sample_sl2(8, 40, seed=97):
        assert mat_eq(u_a_closed(params, A), u_of_word(params, decompose(A))).equal


@pytest.mark.parametrize("N", [4, 8])
def test_reduced_branch_matches_sum(N):
    # Whenever c d^{-1} is odd the collapsed phase table must equal
    # the full r-sum.
    params = HWParams(N)
    hit = 0
    for A in enumerate_sl2(N):
        a, b, c, d = A.entries()
        if d % 2 == 1 and c % N != 0 and (c * pow(d, -1, N)) % 2 == 1:
            hit += 1
            assert mat_eq(
                u_a_closed(params, A), _closed_odd_sum(params, A, "exact")
            ).equal
    assert hit > 0


def test_branch_metadata():
    params = HWParams(8)
    st = sl2_s(8) * sl2_t(8)
    assert "d-odd" in u_general(params, st).meta
    assert "d-even" in u_general(params, sl2_s(8)).meta
    assert "triangular" in u_general(params, sl2_t(8)).meta


def test_u_general_inverses_seeded():
    params = HWParams(8)
    ident = OpMatrix.identity(64, "exact")
    for A in sample_sl2(8, 200, seed=1812):
        assert mat_eq(u_general(params, A) @ u_general(params, A.inv()), ident).equal


def test_homomorphism_exhaustive_mod4():
    params = HWParams(4)
    elems = enumerate_sl2(4)
    mats = {A: u_a_closed(params, A) for A in elems}
    for A in elems:
        for B in elems:
            assert mat_eq(mats[A] @ mats[B], mats[A * B]).equal


def test_homomorphism_seeded_mod8():
    params = HWParams(8)
    pairs = zip(sample_sl2(8, 60, seed=7), sample_sl2(8, 60, seed=8))
    for A, B in pairs:
        assert mat_eq(
            u_a_closed(params, A) @ u_a_closed(params, B), u_a_closed(params, A * B)
        ).equal


def test_homomorphism_seeded_mod16_float():
    params = HWParams(16)
    pairs = zip(sample_sl2(16, 40, seed=15), sample_sl2(16, 40, seed=16))
    for A, B in pairs:
        lhs = u_a_closed(params, A, "float") @ u_a_closed(params, B, "float")
        rhs = u_a_closed(params, A * B, "float")
        assert mat_eq(lhs, rhs, tol=1e-9).equal


def test_twisted_unitarity_all_mod4():
    params = HWParams(4, 3)
    for A in enumerate_sl2(4):
        U = u_a_closed(params, A)
        assert U.unitary_defect() == 0.0


def test_closed_form_guards():
    with pytest.raises(BadBranch):
        u_a_closed(HWParams(5), sl2_s(5))
    with pytest.raises(BadBranch):
        u_a_closed(HWParams(4), sl2_s(8))
    with pytest.raises(ValueError):
        u_of_word(HWParams(4), [("X", 1)])


@pytest.mark.parametrize("n,p", [(1, 1), (2, 1), (2, 3)])
def test_verify_metaplectic_generators(n, p):
    params = HWParams(2**n, p)
    N = params.N
    for U, A in [(u_s(params), sl2_s(N)), (u_t(params), sl2_t(N))]:
        rep = verify_metaplectic(U, A, "twisted_even", params=params)
        assert rep.passed
        assert rep.checks_run == N * N
        assert rep.max_abs_deviation == 0.0


def test_verify_metaplectic_builds_each_j_once(monkeypatch):
    params = HWParams(4)
    built = []

    def counting_j(params, pt, backend=None):
        built.append(pt)
        return j_twisted(params, pt, backend)

    monkeypatch.setattr(metaplectic, "j_twisted", counting_j)
    A = SL2Element(1, 1, 1, 2, 4)
    assert verify_metaplectic(u_general(params, A), A, "twisted_even", params).passed
    assert sorted(built) == [(r, s) for r in range(4) for s in range(4)]
    # a wrong U still reports every failing point, in (r, s) order
    rep = verify_metaplectic(u_s(params), A, "twisted_even", params)
    points = [(f.inputs["r"], f.inputs["s"]) for f in rep.failures]
    assert points and points == sorted(points)
    assert len(built) == 32


def test_verify_metaplectic_rejects_identity_for_s():
    params = HWParams(2)
    ident = OpMatrix.identity(4, "exact")
    rep = verify_metaplectic(ident, sl2_s(2), "twisted_even", params=params)
    assert not rep.passed
    # S fixes (0,0) and (1,1) on the order-2 torus; the other two
    # points must be reported.
    failing = {(f.inputs["r"], f.inputs["s"]) for f in rep.failures}
    assert failing == {(0, 1), (1, 0)}


def test_weil_odd_s_frozen_n3():
    m = weil_odd_s(3)
    assert abs(m.entry(0, 0) - (-1j / np.sqrt(3))) < 1e-15
    assert abs(m.entry(1, 2) - (-1j / np.sqrt(3)) * np.exp(4j * np.pi / 3)) < 1e-14


@pytest.mark.parametrize("N", [3, 5, 7])
def test_weil_odd_s_unitary(N):
    assert weil_odd_s(N).unitary_defect() < 1e-12


def test_weil_odd_d_frozen():
    assert mat_eq(weil_odd_d(5, 1), OpMatrix.identity(5, "float"), tol=0).equal
    m = weil_odd_d(5, 2)
    # phase (2 - 2 - 3 | 5) = (2 | 5) = -1 on the permutation l = 2m.
    assert abs(m.entry(2, 1) - (-1.0)) < 1e-15
    assert abs(m.entry(0, 0) - (-1.0)) < 1e-15
    assert abs(m.entry(1, 1)) == 0.0
    with pytest.raises(NotAUnit):
        weil_odd_d(9, 3)


def test_weil_odd_d_realizes_inverse_dilatation():
    # The permutation delta_{l, a m} transforms the torus by
    # diag(a^{-1}, a), not diag(a, a^{-1}).
    N = 5
    for a in (2, 3, 4):
        rep = verify_metaplectic(
            weil_odd_d(N, a), dilatation(N, pow(a, -1, N)), "weil_odd", tol=1e-10
        )
        assert rep.passed and rep.checks_run == 25


def test_weil_odd_generic_needs_c():
    with pytest.raises(NonGeneric):
        weil_odd_generic(5, sl2_t(5))


@pytest.mark.parametrize("N,ratio", [(3, 1.0), (5, 1.0), (7, -1.0)])
def test_weil_odd_generic_vs_s_formula(N, ratio):
    # The quadratic-phase family and the printed S matrix agree up to
    # a global sign that depends on N; tabulated here.
    got = weil_odd_generic(N, sl2_s(N)).to_complex_array()
    want = ratio * weil_odd_s(N).to_complex_array()
    assert np.max(np.abs(got - want)) < 1e-12


def test_weil_odd_general_identity():
    assert mat_eq(
        weil_odd_general(5, SL2Element(1, 0, 0, 1, 5)),
        OpMatrix.identity(5, "float"),
        tol=0,
    ).equal


def test_weil_odd_general_metaplectic_exhaustive_n3():
    for A in enumerate_sl2(3):
        rep = verify_metaplectic(weil_odd_general(3, A), A, "weil_odd", tol=1e-10)
        assert rep.passed, (A, rep.failures[:2])


@pytest.mark.parametrize("N", [3, 5])
def test_weil_odd_general_homomorphism_exhaustive(N):
    elems = enumerate_sl2(N)
    mats = {A: weil_odd_general(N, A).to_complex_array() for A in elems}
    for A in elems:
        for B in elems:
            dev = np.max(np.abs(mats[A] @ mats[B] - mats[A * B]))
            assert dev < 1e-10, (A, B, dev)


def test_weil_odd_general_inverses_n7():
    for A in sample_sl2(7, 40, seed=77):
        got = weil_odd_general(7, A) @ weil_odd_general(7, A.inv())
        assert mat_eq(got, OpMatrix.identity(7, "float"), tol=1e-10).equal


@pytest.mark.parametrize("N", [3, 5])
def test_weil_odd_unitarity_all(N):
    for A in enumerate_sl2(N):
        assert weil_odd_general(N, A).unitary_defect() < 1e-12


def test_metaplectic_rep_container():
    rep = MetaplecticRep(HWParams(4), "twisted_even")
    assert rep.dim == 16
    out = rep.verify(sl2_s(4) * sl2_t(4))
    assert out.passed and out.checks_run == 16
    odd = MetaplecticRep(HWParams(5), "weil_odd")
    assert odd.dim == 5
    assert odd.verify(sl2_t(5), tol=1e-10).passed
    with pytest.raises(ValueError):
        MetaplecticRep(HWParams(5), "twisted_even")
    with pytest.raises(ValueError):
        MetaplecticRep(HWParams(4), "weil_odd")
    with pytest.raises(ValueError):
        MetaplecticRep(HWParams(4), "other")


def test_u_t_pow_wraps():
    params = HWParams(4, 3)
    assert mat_eq(u_t_pow(params, 5), u_t_pow(params, 1)).equal
    assert mat_eq(u_t_pow(params, -1) @ u_t(params), OpMatrix.identity(16, "exact")).equal
