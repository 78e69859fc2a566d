"""Tests for the metaplectic representations, twisted and odd-prime."""

import itertools
import json
import math
from functools import cache

import numpy as np
import pytest

from fqmrep.exactnum import CycNum, NotAUnit, _exact_order, jacobi_symbol
from fqmrep import harness, matrixcore, metaplectic, report
from fqmrep.harness import SuiteSpec, run_suite
from fqmrep.heisenberg import HWParams, _gamma_support, fourier, gamma_p, p_matrix, q_matrix
from fqmrep.magnetic import j_odd, j_twisted
from fqmrep.matrixcore import (
    BackendMismatch,
    DimMismatch,
    OpMatrix,
    _FactorTable,
    _phase_law,
    _phase_table,
    _roots,
    _slot_table,
    _SupportTable,
    mat_eq,
    twist_perm,
)
from fqmrep.metaplectic import (
    BadBranch,
    NonGeneric,
    _closed_form,
    _closed_odd_sum,
    _table_op,
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
from fqmrep.report import VerifyReport
from fqmrep.sl2 import (
    SL2Element,
    _sl2_entries,
    act_on_point,
    decompose,
    dilatation,
    dilatation_word,
    enumerate_sl2,
    sample_sl2,
    sl2_s,
    sl2_t,
    word_element,
)
from test_harness import _assert_same_json, _perturb_twisted


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


@pytest.mark.parametrize("p", [1, 3, 5, 7])
def test_u_d_is_bare_permutation(p):
    # U(D(a)) is the permutation k -> a^{-1} k, and the six-token word
    # collapses to it with global phase exactly 1
    for N in (N for N in (2, 4, 8) if p < N):
        params = HWParams(N, p)
        for a, backend in itertools.product(range(1, N, 2), ("exact", "float")):
            ainv = pow(a, -1, N)
            perm = np.zeros((N * N, N * N), dtype=complex)
            for k1, k2 in np.ndindex(N, N):
                perm[N * ((ainv * k1) % N) + (ainv * k2) % N, N * k1 + k2] = 1
            got = u_d(params, a, backend)
            assert got.backend == backend
            assert np.array_equal(got.to_complex_array(), perm)
            word = u_of_word(params, dilatation_word(N, a), backend)
            if backend == "exact":
                assert mat_eq(word, got).equal
            else:
                assert np.max(np.abs(word.to_complex_array() - perm)) < 1e-12


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


def _r_sum_reference(params, A, backend):
    # The r-sum term by term: sum over r of 2^-n omega^{base + p e r} on the
    # entries with c d^{-1} r = d^{-1} k1 - j1 (mod N), accumulated directly.
    N, p, n = params.N, params.p, params.n
    _, b, c, d = A.entries()
    dinv = pow(d, -1, N)
    dim = N * N
    k1, k2 = np.divmod(np.arange(dim), N)
    j1, j2 = k1, k2
    base = (-p * b * dinv * k1 * k2) % N
    order = max(N, 8)
    size = order // 2
    coeffs = np.zeros((dim, dim, size), dtype=np.int64)
    data = np.zeros((dim, dim), dtype=complex)
    for r in range(N):
        # N is a power of two: & (N - 1) reduces mod N
        sel = ((-dinv * k1[:, None] + c * dinv * r + j1[None, :]) & (N - 1)) == 0
        ii, jj = np.nonzero(sel)
        E = (base[ii] + p * (-dinv * k2[ii] + j2[jj]) * r) & (N - 1)
        if backend == "float":
            data[ii, jj] += np.exp(2j * np.pi * E / N)
        else:
            e = E * (order // N)
            coeffs[ii, jj, e % size] += np.where(e < size, 1, -1)
    if backend == "float":
        return OpMatrix.from_complex(data * 2.0**-n)
    return OpMatrix(dim, "exact", coeffs=coeffs, order=order, scale_log2=n)


def _branch_of(A):
    N = A.N
    _, _, c, d = A.entries()
    if d % 2 == 0:
        return "d-even"
    if c % N == 0:
        return "d-odd-triangular"
    return "d-odd-reduced" if (c * pow(d, -1, N)) % 2 else "d-odd-sum"


@pytest.mark.parametrize("N", [4, 8])
def test_reduced_branch_matches_sum(N):
    # Whenever c d^{-1} is odd the collapsed phase table must equal
    # the full r-sum.
    params = HWParams(N)
    hit = 0
    for A in enumerate_sl2(N):
        if _branch_of(A) == "d-odd-reduced":
            hit += 1
            assert mat_eq(
                u_a_closed(params, A), _r_sum_reference(params, A, "exact")
            ).equal
    assert hit > 0


def _reduced_table(params, A, backend):
    # the d-odd-reduced builder as it stood before u_a_closed sent every odd c
    # to one table: c d^{-1} odd, one phase per entry, written in d^{-1}
    N, p = params.N, params.p
    _, b, c, d = A.entries()
    dinv, cinv = pow(d, -1, N), pow(c, -1, N)
    ratio_inv = pow(c * dinv, -1, N)
    k1, k2 = np.divmod(np.arange(N * N), N)
    E = (
        p
        * (
            -((b * dinv + cinv * dinv) % N) * (k1 * k2)[:, None]
            - ratio_inv * (k1 * k2)[None, :]
            + cinv * (k2[:, None] * k1[None, :] + k2[None, :] * k1[:, None])
        )
    ) % N
    return OpMatrix.from_phase_table(N, E, scale_pow2=params.n, backend=backend)


def _sum_op(params, A, backend):
    # the matrix of the d-odd-sum table, from the factors the builder returns
    return OpMatrix.from_phase_table(*_phase_table(_closed_odd_sum(params, A)), backend=backend)


def _same_bits(x, y):
    if x.backend == "exact":
        return (x.order, x.scale_log2) == (y.order, y.scale_log2) and np.array_equal(
            x.coeffs, y.coeffs
        )
    return np.array_equal(x.data.view(np.uint64), y.data.view(np.uint64))


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_c_odd_table_equals_the_reduced_table_for_odd_d(backend):
    # for odd c and d, b d^{-1} + c^{-1} d^{-1} = a c^{-1}: the one c-odd table
    # reproduces the reduced one bit for bit, and the r-sum at v = 0
    cases = [
        (HWParams(N, p), A)
        for N in (2, 4, 8) for p in range(1, N, 2) for A in enumerate_sl2(N)
    ]
    cases += [(HWParams(16, p), A) for p in (1, 7, 13) for A in sample_sl2(16, 60, 29 + p)]
    hit = 0
    for params, A in cases:
        if A.c % 2 == 0 or A.d % 2 == 0:
            continue
        hit += 1
        got = u_a_closed(params, A, backend)
        assert _same_bits(got, _reduced_table(params, A, backend))
        assert _same_bits(got, _sum_op(params, A, backend))
        assert u_general(params, A, backend).meta.endswith("[d-odd-reduced]")
    assert hit > 100


def _assert_closed_sum_matches(params, A):
    got, ref = _sum_op(params, A, "exact"), _r_sum_reference(params, A, "exact")
    assert mat_eq(got, ref).equal and got.scale_log2 == ref.scale_log2
    assert u_general(params, A).meta.endswith("[d-odd-sum]")


@pytest.mark.parametrize("N", [4, 8])
def test_closed_sum_matches_r_sum_exhaustive(N):
    hit = 0
    for p in range(1, N, 2):
        params = HWParams(N, p)
        for A in enumerate_sl2(N):
            if _branch_of(A) == "d-odd-sum":
                hit += 1
                _assert_closed_sum_matches(params, A)
                got = _sum_op(params, A, "float").to_complex_array()
                ref = _r_sum_reference(params, A, "float").to_complex_array()
                assert np.abs(got - ref).max() < 1e-12
    assert hit > 0


@pytest.mark.parametrize("p", [1, 3])
def test_closed_sum_matches_r_sum_mod16(p):
    params = HWParams(16, p)
    elems = [A for A in sample_sl2(16, 2000, seed=160 + p) if _branch_of(A) == "d-odd-sum"]
    assert len(elems) >= 100
    for A in elems[:100]:  # 200 elements over the two values of p
        _assert_closed_sum_matches(params, A)
    for A in elems[:5]:
        got = _sum_op(params, A, "float").to_complex_array()
        ref = _r_sum_reference(params, A, "float").to_complex_array()
        assert np.abs(got - ref).max() < 1e-12


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


@pytest.mark.parametrize("k", [0, 3])
def test_u_of_word_rejects_an_s_exponent_outside_1_minus1_2(k):
    # U(S)^k used to come back as U(S)^2 for any k but 1 and -1
    message = rf"S exponent must be in \{{1, -1, 2\}}, got {k}"
    with pytest.raises(ValueError, match=message):
        word_element([("S", k)], 4)
    for word in ([("S", k)], [("T", 1), ("S", 1), ("S", k)]):
        with pytest.raises(ValueError, match=message):
            u_of_word(HWParams(4), word)


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
    # one J table per call; the builder runs only for the two J's of each
    # point the stacked pass finds unequal
    params = HWParams(4)
    tables, built = [], []
    real_table = metaplectic._j_table

    def counting_table(*args):
        tables.append(args)
        return real_table(*args)

    def counting_j(params, pt, backend=None):
        built.append(pt)
        return j_twisted(params, pt, backend)

    monkeypatch.setattr(metaplectic, "_j_table", counting_table)
    monkeypatch.setattr(metaplectic, "j_twisted", counting_j)
    A = SL2Element(1, 1, 1, 2, 4)
    assert verify_metaplectic(_closed_form(params, A)[0], A, "twisted_even", params).passed
    assert len(tables) == 1 and built == []
    # a wrong U still reports every failing point, in (r, s) order
    rep = verify_metaplectic(_closed_form(params, sl2_s(4))[0], A, "twisted_even", params)
    points = [(f.inputs["r"], f.inputs["s"]) for f in rep.failures]
    assert points and points == sorted(points)
    assert len(tables) == 2
    assert built == [q for pt in points for q in (pt, act_on_point(A, *pt))]


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


@pytest.mark.parametrize("N", [3, 5, 7, 11, 13])
def test_weil_odd_d_equals_the_kappa_squared_formula(N):
    # the sign (a + a^{-1} - 2 | N) is kappa^2 (1|N) (2 - a - a^{-1} | N),
    # and 1 at a = 1, for every unit a
    kappa = 1.0 + 0j if N % 4 == 1 else -1j
    for a in range(1, N):
        arg = (2 - a - pow(a, -1, N)) % N
        phase = 1 if a == 1 else kappa**2 * jacobi_symbol(1, N) * jacobi_symbol(arg, N)
        want = np.zeros((N, N), dtype=complex)
        want[a * np.arange(N) % N, np.arange(N)] = phase
        assert (weil_odd_d(N, a).to_complex_array() == want).all(), a


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


@pytest.mark.parametrize("N,ratio", [(3, 1.0), (5, 1.0), (7, -1.0), (11, 1.0), (13, 1.0),
                                     (17, -1.0), (19, 1.0), (23, -1.0)])
def test_weil_odd_generic_vs_s_formula(N, ratio):
    # The quadratic-phase family and the printed S matrix agree up to
    # the global sign -(2|N), tabulated here.
    assert ratio == -jacobi_symbol(2, N)
    got = weil_odd_generic(N, sl2_s(N)).to_complex_array()
    want = ratio * weil_odd_s(N).to_complex_array()
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.array_equal(weil_odd_general(N, sl2_s(N)).to_complex_array(), got)


@pytest.mark.parametrize("N", [3, 5, 7, 11, 13])
def test_weil_odd_root_table_matches_the_exp_formula(N):
    # U(S) and every c != 0 Gauss-sum matrix gather omega^k from the root
    # table: bit for bit the complex exp of the same exponents
    l, m = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    t = 0 if N % 4 == 1 else 1
    want = (-1) ** N * 1j**t / np.sqrt(N) * np.exp(2j * np.pi * (l * m % N) / N)
    assert np.array_equal(weil_odd_s(N).data.view(np.uint64), want.view(np.uint64))
    kappa = 1.0 + 0j if N % 4 == 1 else -1j
    generic = [A for A in enumerate_sl2(N) if A.c % N]
    assert len(generic) == N * (N * N - 1) - N * (N - 1)
    for A in generic:
        a, _, c, d = A.entries()
        pref = jacobi_symbol(-2 * c, N) * kappa / np.sqrt(N)
        expo = (-(a * l * l + d * m * m - 2 * l * m) * pow(2 * c, -1, N)) % N
        want = pref * np.exp(2j * np.pi * expo / N)
        assert np.array_equal(weil_odd_generic(N, A).data.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("N", [9, 15, 21])
def test_weil_odd_general_refuses_a_composite_modulus(N):
    # c = 0 and c != 0 alike, before any builder divides by a non-unit
    for A in (SL2Element(1, 0, 0, 1, N), dilatation(N, 2), sl2_s(N)):
        with pytest.raises(ValueError, match=f"N must be an odd prime, got {N}"):
            weil_odd_general(N, A)
    with pytest.raises(ValueError, match=f"N must be an odd prime, got {N}"):
        run_suite(SuiteSpec("weil-odd", {"N": N}))


def test_weil_odd_general_identity():
    assert mat_eq(
        weil_odd_general(5, SL2Element(1, 0, 0, 1, 5)),
        OpMatrix.identity(5, "float"),
        tol=0,
    ).equal


@pytest.mark.parametrize("N", [3, 5, 7, 11, 13])
def test_weil_odd_c0_is_a_phased_permutation_like_the_t_power_product(N):
    # c = 0: one nonzero entry per column, within 1e-14 of
    # U(D(a^{-1})) (U(S)^dagger U(ST))^{a^{-1} b}, U(T) as a product of two
    # Gauss-sum matrices
    uS = weil_odd_generic(N, sl2_s(N))
    uT = uS.dagger() @ weil_odd_generic(N, sl2_s(N) * sl2_t(N))
    triangular = [A for A in enumerate_sl2(N) if A.c == 0]
    assert len(triangular) == N * (N - 1)
    for A in triangular:
        a_inv = pow(A.a, -1, N)
        want = (weil_odd_d(N, a_inv) @ uT ** (a_inv * A.b % N)).to_complex_array()
        got = weil_odd_general(N, A).to_complex_array()
        assert ((got != 0).sum(axis=0) == 1).all(), A
        assert np.abs(got - want).max() < 1e-14, A


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


def _weil_odd_per_element(N, A):
    # the odd-N builders as they were written one element at a time: the
    # Gauss-sum form for c != 0, the signed permutation times the column
    # phases for c = 0
    a, b, c, d = A.entries()
    kappa = 1.0 + 0j if N % 4 == 1 else -1j
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    if c % N:
        l, m = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
        pref = jacobi_symbol(-2 * c, N) * kappa / np.sqrt(N)
        return pref * roots[(-(a * l * l + d * m * m - 2 * l * m) * pow(2 * c, -1, N)) % N]
    a_inv, m = pow(a, -1, N), np.arange(N)
    perm = np.zeros((N, N), dtype=complex)
    perm[(a_inv * m) % N, m] = jacobi_symbol(a_inv + pow(a_inv, -1, N) - 2, N) or 1
    return perm * roots[(-a_inv * b * pow(2, -1, N) % N) * m * m % N]


@pytest.mark.parametrize("N", [3, 5, 7, 11, 13])
def test_weil_odd_stack_equals_the_per_element_formulas(N):
    # every element of both branches, bit for bit, in the stack and in the
    # one-element builders that read it
    elems = enumerate_sl2(N)
    stack = metaplectic._weil_odd_stack(N, harness._entries(elems))
    assert stack.shape == (len(elems), N, N) and stack.dtype == np.complex128
    assert {A.c == 0 for A in elems} == {True, False}
    for U, A in zip(stack, elems):
        want = _weil_odd_per_element(N, A).view(np.uint64)
        assert np.array_equal(U.view(np.uint64), want), A
        assert np.array_equal(weil_odd_general(N, A).data.view(np.uint64), want), A
        if A.c:
            assert np.array_equal(weil_odd_generic(N, A).data.view(np.uint64), want), A
    for a in range(1, N):  # weil_odd_d(N, a) is the c = 0 branch at D(a^{-1})
        want = _weil_odd_per_element(N, dilatation(N, pow(a, -1, N))).view(np.uint64)
        assert np.array_equal(weil_odd_d(N, a).data.view(np.uint64), want), a


def test_u_t_pow_wraps():
    params = HWParams(4, 3)
    assert mat_eq(u_t_pow(params, 5), u_t_pow(params, 1)).equal
    assert mat_eq(u_t_pow(params, -1) @ u_t(params), OpMatrix.identity(16, "exact")).equal


# -- the stacked conjugation check against the cycle walk ----------------------


def _conjugation_reference(U, A, flavor, params=None, tol=1e-9):
    """The cycle walk the stacked check replaced: one J U and one U J product
    and one mat_eq per point, each J built by the (possibly patched) builder;
    a builder's table for U is built into its exact matrix first."""
    if not isinstance(U, OpMatrix):
        U = _table_op(params, U, "exact", "U")
    if flavor == "twisted_even":
        N = params.N
        j_of = lambda pt: metaplectic.j_twisted(params, pt, backend=U.backend)
        rep_params = {"flavor": flavor, "N": N, "p": params.p}
    else:
        N = A.N
        j_of = lambda pt: metaplectic.j_odd(N, pt)
        rep_params = {"flavor": flavor, "N": N}
    rep_params["element"] = list(A.entries())
    rep = VerifyReport(suite="metaplectic", params=rep_params)
    points = [(r, s) for r in range(N) for s in range(N)]
    compared = {}
    for start in points:
        if start in compared:
            continue
        j_start = j_of(start)
        point, j_point = start, j_start
        while point not in compared:
            image = act_on_point(A, *point)
            j_image = j_start if image == start else j_of(image)
            compared[point] = mat_eq(j_point @ U, U @ j_image, tol=tol)
            point, j_point = image, j_image
    for r, s in points:
        cmp = compared[(r, s)]
        rep.record(cmp.equal, cmp.max_deviation, "J[r,s] U == U J[(r,s)A]", {"r": r, "s": s})
    return rep


CONJUGATION = "J[r,s] U == U J[(r,s)A]"


def _spy_conjugation(monkeypatch, deviations=None):
    """The `equal` mask of each chunk of keys the conjugation scan decides,
    and its deviations appended to `deviations` unless that is None.

    Unequal points are recomputed, so a decision that wrongly finds points
    unequal leaves the report as it is: tests count its flags."""
    seen = []
    real = VerifyReport.scan

    def scan(self, identity, keys, compare, inputs, decide=None, weight=1):
        def spy(*chunk):
            out = decide(*chunk)
            seen.append(out[0].copy())
            if deviations is not None:
                deviations.append(np.array(out[1], dtype=float))
            return out

        law = decide is not None and identity == CONJUGATION
        real(self, identity, keys, compare, inputs, spy if law else decide, weight)

    monkeypatch.setattr(VerifyReport, "scan", scan)
    return seen


def _weil_odd_reference_json(params):
    """The weil-odd suite as one loop per element: U(A) built alone, the
    cycle walk of its conjugations, failures tagged with the element, then
    one product and one comparison per pair."""
    N, tol = params["N"], params.get("tol", 1e-9)
    rep = VerifyReport("weil-odd", {"N": N})
    elems = enumerate_sl2(N)
    mats = {A.entries(): weil_odd_general(N, A) for A in elems}
    for A in elems:
        sub = _conjugation_reference(mats[A.entries()], A, "weil_odd", tol=tol)
        rep.checks_run += sub.checks_run
        rep.max_abs_deviation = max(rep.max_abs_deviation, sub.max_abs_deviation)
        for f in sub.failures:
            f.inputs = {"element": list(A.entries()), **f.inputs}
            rep.failures.append(f)
    rep.params["pairs"] = params.get("pairs", len(elems) ** 2 <= 20_000)
    if rep.params["pairs"]:
        for A, B in itertools.product(elems, repeat=2):
            got = mats[A.entries()].data @ mats[B.entries()].data
            dev = float(np.abs(got - mats[(A * B).entries()].data).max())
            rep.record(dev <= tol, dev, "U(A) U(B) == U(AB)",
                       {"A": list(A.entries()), "B": list(B.entries())})
    return rep.to_json()


def _metaplectic_reference_json(params):
    """The metaplectic suite as one loop per element: S, T and the samples,
    each U built from its element's (possibly patched) closed-form table,
    the cycle walk of its conjugations, failures tagged with the element's
    name."""
    pr = HWParams(2 ** params["n"], params.get("p", 1))
    N, samples, seed = pr.N, params.get("samples", 0), params.get("seed", 7)
    rep = VerifyReport("metaplectic", {"N": N, "p": pr.p, "samples": samples, "seed": seed})
    named = [("S", sl2_s(N)), ("T", sl2_t(N))]
    for name, A in named + [(list(A.entries()), A) for A in sample_sl2(N, samples, seed)]:
        U = harness._closed_form(pr, A)[0]
        sub = _conjugation_reference(U, A, "twisted_even", pr, params.get("tol", 1e-9))
        rep.checks_run += sub.checks_run
        rep.max_abs_deviation = max(rep.max_abs_deviation, sub.max_abs_deviation)
        for f in sub.failures:
            f.inputs = {"element": name, **f.inputs}
            rep.failures.append(f)
    return rep.to_json()


def _reference_suite_json(monkeypatch, name, params):
    # the per-element loop, which scans nothing: it never reaches the code
    # under test
    calls = []
    with monkeypatch.context() as m:
        for module in (harness, metaplectic):
            m.setattr(module, "_conjugation_scan", lambda *args: calls.append(args))
        want = (_weil_odd_reference_json if name == "weil-odd" else _metaplectic_reference_json)(params)
    assert calls == []
    return want


CONJUGATION_SUITES = (
    [("metaplectic", {"n": n, "p": p, "samples": 3}) for n in (1, 2, 3) for p in range(1, 2**n, 2)]
    + [("metaplectic", {"n": 1, "p": 1})]
    + [("weil-odd", {"N": N}) for N in (3, 5, 7)]
    + [("weil-odd", {"N": 5, "tol": 1e-20, "pairs": False})]  # float deviations as failures
)


@pytest.mark.parametrize("name,params", CONJUGATION_SUITES)
def test_conjugation_reports_match_the_cycle_walk(name, params, monkeypatch):
    seen = _spy_conjugation(monkeypatch)
    got = run_suite(SuiteSpec(name, params))
    assert seen  # the stacked pass decided the points, flagging just the failures
    assert sum(int((~mask).sum()) for mask in seen) == len(got.failures)
    _assert_same_json(got.to_json(), _reference_suite_json(monkeypatch, name, params))


def _flaw_weil_odd(monkeypatch, N, target, flaw):
    # one element's U, in the stack the suite reads and in the one-element
    # builders the reference reads: one entry's phase moved by omega, or the
    # whole matrix times omega (which J U == U J cannot see)
    real = metaplectic._weil_odd_stack

    def flawed(N, entries):
        out = real(N, entries)
        hit = (np.asarray(entries).reshape(4, -1).T % N == target).all(axis=1)
        for e in np.flatnonzero(hit):
            if flaw == "moved phase":
                out[e, 0, np.flatnonzero(out[e, 0])[-1]] *= np.exp(2j * np.pi / N)
            else:
                out[e] *= np.exp(2j * np.pi / N)
        return out

    monkeypatch.setattr(metaplectic, "_weil_odd_stack", flawed)
    monkeypatch.setattr(harness, "_weil_odd_stack", flawed)


@pytest.mark.parametrize("N", [3, 5, 7])
@pytest.mark.parametrize("flaw,branch", [(None, None)] + list(
    itertools.product(["moved phase", "times omega"], ["c != 0", "c = 0"])))
def test_weil_odd_reports_equal_the_per_element_loop(N, flaw, branch, monkeypatch):
    # one conjugation scan over every (element, point) and the stacked pair
    # law give the per-element loop's report: the same failures in the same
    # order with the same deviations
    target = (0, N - 1, 1, 0) if branch == "c != 0" else (2, 1, 0, pow(2, -1, N))
    if flaw:
        _flaw_weil_odd(monkeypatch, N, target, flaw)
    got = run_suite(SuiteSpec("weil-odd", {"N": N}))
    want = json.loads(_weil_odd_reference_json({"N": N}))
    _assert_same_json(got.to_json(), json.dumps(want, sort_keys=True, separators=(",", ":")))
    if flaw == "moved phase":
        assert got.failures and {tuple(f.inputs.get("element", ())) for f in got.failures
                                 if f.identity.startswith("J")} == {target}
    if flaw == "times omega":  # only the pair law sees a scalar, and N = 7 runs no pairs
        assert {f.identity for f in got.failures} == (set() if N == 7 else {"U(A) U(B) == U(AB)"})
    assert got.passed == (flaw is None or (flaw == "times omega" and N == 7))


@pytest.mark.parametrize("name,params,builder,count", [
    ("metaplectic", {"n": 3, "samples": 3}, "j_twisted", 64),
    ("weil-odd", {"N": 5, "pairs": False}, "j_odd", 25),
])
def test_suite_builds_each_j_once(name, params, builder, count, monkeypatch):
    # one table of all `count` J's per suite call; a passing run calls no builder
    tables, built = [], []
    real = getattr(metaplectic, builder)

    def counting_table(*args):
        tables.append(metaplectic._j_table(*args))
        return tables[-1]

    def counting(*args, **kwargs):
        built.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "_j_table", counting_table)
    monkeypatch.setattr(metaplectic, builder, counting)
    assert run_suite(SuiteSpec(name, params)).passed
    assert len(tables) == 1 and tables[0].cols.shape[0] == count
    assert built == []


def _flawed_u_report(bad, A, params, monkeypatch):
    # the stacked passes' masks and the failing points for a flawed U, after
    # checking the report against the cycle walk's
    seen = _spy_conjugation(monkeypatch)
    got = verify_metaplectic(bad, A, "twisted_even", params)
    _assert_same_json(got.to_json(), _conjugation_reference(bad, A, "twisted_even", params).to_json())
    assert 0 < len(got.failures) < 64
    return seen, {params.N * f.inputs["r"] + f.inputs["s"] for f in got.failures}


def _flawed_table(params, A, flaw):
    # U(A)'s table with one entry on the mask moved to omega times itself
    # ("moved") or to its negative ("sign"), or one entry off the mask
    # switched on ("mask bit"); a c = 0 table (a phased permutation) moves
    # the entry of row 5, and an unmasked one is masked everywhere
    table = _phase_table(_closed_form(params, A)[0])
    shift = 1 if flaw == "moved" else table.order // 2
    if isinstance(table, _SupportTable):
        exps = table.exps.copy()
        exps[5] = (exps[5] + shift) % table.order
        return table._replace(exps=exps)
    exps = table.exps.copy()
    mask = np.ones(exps.shape, dtype=bool) if table.mask is None else table.mask.copy()
    i, j = np.argwhere(~mask if flaw == "mask bit" else mask)[5]
    if flaw == "mask bit":
        mask[i, j] = True
    else:
        exps[i, j] += shift
    return table._replace(exps=exps, mask=mask)


@pytest.mark.parametrize("in_support", [True, False])
def test_perturbed_u_fails_like_the_cycle_walk(in_support, monkeypatch):
    # one coefficient of U moves, inside a nonzero entry, which then holds
    # two coefficients: no table writes that U, so the exact OpMatrix takes
    # no stacked pass and each point is compared by its products; or a zero
    # entry becomes 2^-s omega^E, a flipped mask bit of U's table, and the
    # stacked pass flags exactly the failing points
    params = HWParams(8, 3)
    A = SL2Element(3, 2, 4, 3, 8)
    if in_support:
        U = u_general(params, A)
        coeffs = U.coeffs.copy()
        i, j = np.argwhere(coeffs.any(axis=2))[5]
        coeffs[i, j, 1] += 1
        bad = OpMatrix(U.dim, "exact", coeffs=coeffs, order=U.order, scale_log2=U.scale_log2)
    else:
        bad = _flawed_table(params, A, "mask bit")
    seen, failing = _flawed_u_report(bad, A, params, monkeypatch)
    if in_support:
        assert seen == []
    else:
        assert len(seen) == 1 and set(np.flatnonzero(~seen[0])) == failing


@pytest.mark.parametrize("flaw", ["moved", "sign"])
def test_signed_root_flaws_fail_like_the_cycle_walk(flaw, monkeypatch):
    # one entry of U's table moves to omega times itself or flips its sign
    # (E + 1 or E + order/2): the stacked pass flags exactly the failing points
    params = HWParams(8, 3)
    A = SL2Element(3, 2, 4, 3, 8)
    seen, failing = _flawed_u_report(_flawed_table(params, A, flaw), A, params, monkeypatch)
    assert len(seen) == 1 and set(np.flatnonzero(~seen[0])) == failing


def _count_scatter(monkeypatch):
    # the dims of the exact matrices built, each through OpMatrix._scatter
    built = []
    real = OpMatrix.__dict__["_scatter"].__func__

    def counting(cls, dim, *args):
        built.append(dim)
        return real(cls, dim, *args)

    monkeypatch.setattr(OpMatrix, "_scatter", classmethod(counting))
    return built


@pytest.mark.parametrize("params", [{"n": 3, "samples": 3}, {"n": 4, "p": 3}])
def test_passing_exact_metaplectic_run_builds_no_matrix(params, monkeypatch):
    # S, T and the samples are decided on their builders' tables alone: no
    # U and no J is built
    built = _count_scatter(monkeypatch)
    rep = run_suite(SuiteSpec("metaplectic", params))
    assert rep.passed and rep.checks_run == (2 + params.get("samples", 0)) * 4**params["n"]
    assert built == []


def test_flawed_table_builds_its_u_once(monkeypatch):
    # every point the stacked pass leaves builds its two J's; U is built
    # once, on the first of them
    params = HWParams(8, 3)
    A = SL2Element(3, 2, 4, 3, 8)
    built = _count_scatter(monkeypatch)
    rep = verify_metaplectic(_flawed_table(params, A, "moved"), A, "twisted_even", params)
    assert 1 < len(rep.failures) < 64
    assert built == [64] * (1 + 2 * len(rep.failures))


N4_ELEMENTS = {  # S, T and one element of each closed-form branch at N = 16
    "S": sl2_s(16),
    "T": sl2_t(16),
    "d-odd-triangular": SL2Element(3, 5, 0, 11, 16),
    "d-odd-reduced": SL2Element(1, 2, 3, 7, 16),
    "d-even": SL2Element(3, 1, 5, 2, 16),
    "d-odd-sum": SL2Element(3, 2, 4, 3, 16),
}
N4_FLAWS = {"moved exponent": "d-odd-reduced", "mask bit": "d-odd-sum", "swapped J column": "S"}


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("case", [*N4_ELEMENTS, *N4_FLAWS])
def test_exponent_kernel_agrees_with_mat_eq_at_n4(case, p):
    # the exact index kernel over all 256 points at N = 16 on U's table; a
    # seeded subset of its verdicts, equal and unequal, is the dense
    # mat_eq(J U, U J)'s, U built from the table.  A flaw moves one exponent
    # of U's table, flips one mask bit, or swaps the columns of rows 0 and 1
    # of one J
    params = HWParams(16, p)
    name = N4_FLAWS.get(case, case)
    A = N4_ELEMENTS[name]
    U, branch = _closed_form(params, A)
    U = _phase_table(U)
    assert name in ("S", "T", branch)
    table = metaplectic._j_table("twisted_even", 16, params)
    rng = np.random.default_rng(p)
    i, j = rng.integers(256, size=2)
    if case in ("moved exponent", "mask bit"):
        exps, mask = U.exps.copy(), None if U.mask is None else U.mask.copy()
        if case == "moved exponent":
            exps[i, j] += 1
        else:
            mask[i, j] = not mask[i, j]
        U = U._replace(exps=exps, mask=mask)
    elif case == "swapped J column":
        cols = table.cols.copy()
        cols[i, :2] = cols[i, 1::-1]
        table = table._replace(cols=cols)
    a, b, c, d = A.entries()
    r, s = np.divmod(np.arange(256), 16)
    image = 16 * ((a * r + c * s) % 16) + (b * r + d * s) % 16
    equal = metaplectic._index_conjugation(table, matrixcore._index(U, 16), 16, np.arange(256), image)
    assert equal.all() == (case in N4_ELEMENTS)
    J = lambda t: OpMatrix.from_support(16, table.cols[t], table.exps[t])  # noqa: E731
    U = _table_op(params, U, "exact", case)
    for verdict in (True, False):
        where = np.flatnonzero(equal == verdict)
        for t in rng.choice(where, size=min(8, len(where)), replace=False):
            assert mat_eq(J(t) @ U, U @ J(image[t])).equal == verdict


def test_stacked_conjugation_proves_nothing_for_a_non_permutation_j():
    # J[1] sends both rows to column 0: U J[1] has a zero column, so the law
    # J[0] U == U J[1] fails for U = I, although reading the row order that
    # sorts c_1 as its inverse would give I
    table = _SupportTable(8, np.array([[0, 1], [0, 0]]), np.zeros((2, 2), dtype=np.int64))
    U = _SupportTable(8, np.arange(2), np.zeros(2, dtype=np.int64))  # I
    J = [OpMatrix.from_support(8, table.cols[t], table.exps[t]) for t in (0, 1)]
    assert not mat_eq(J[0] @ OpMatrix.identity(2), OpMatrix.identity(2) @ J[1]).equal
    left, right = np.array([0, 0]), np.array([0, 1])
    equal = metaplectic._index_conjugation(table, matrixcore._index(U, 8), 8, left, right)
    assert equal.tolist() == [True, False]
    # U of equal columns (all ones): U at the columns c_1 is U again, but
    # U J[1] has column 0 twice U's and column 1 zero
    ones = matrixcore._PhaseTable(8, np.zeros((2, 2), dtype=np.int64), None, 0)
    U = OpMatrix.from_phase_table(*ones)
    assert not mat_eq(J[0] @ U, U @ J[1]).equal
    equal = metaplectic._index_conjugation(table, matrixcore._index(ones, 8), 8, left, right)
    assert equal.tolist() == [True, False]


@pytest.mark.parametrize("N", [3, 5, 7])
def test_float_conjugation_reads_a_j_stack_like_its_table(N, monkeypatch):
    # the scan's float branch gathers each block's J's from the stack of
    # every J with the bits of densifying them per block from the support
    # table, on every (element, point) of SL2(Z_N), with one entry of one U
    # moved
    table = metaplectic._j_table("weil_odd", N, None)
    entries = _sl2_entries(N)
    stack = metaplectic._weil_odd_stack(N, entries)
    stack[3, 0, 0] += 1e-3
    deviations = []
    seen = _spy_conjugation(monkeypatch, deviations)
    reports = []
    for J in (matrixcore._float_stack(table), table):
        reports.append(VerifyReport("conjugation", {}))
        metaplectic._conjugation_scan(
            reports[-1], N, J, entries, stack, lambda pt: j_odd(N, pt),
            lambda e: OpMatrix.from_complex(stack[e]), 1e-9, lambda e, l: {"e": e, "l": l},
        )
    half = len(seen) // 2
    got, want = np.concatenate(seen[:half]), np.concatenate(seen[half:])
    assert len(got) == entries.shape[1] * N * N
    assert np.array_equal(got, want) and not got.all()
    got, want = np.concatenate(deviations[:half]), np.concatenate(deviations[half:])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    _assert_same_json(reports[0].to_json(), reports[1].to_json())


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("element", ["S", "T"])
@pytest.mark.parametrize("higher", ["U", "J"])
def test_promoted_order_and_scale_match_the_cycle_walk(n, element, higher, monkeypatch):
    # U(S)'s table carries 2^-n; times omega_16^3 its order 16 exceeds the
    # J's order N, or the J's are given order 16 (table and builder) over
    # U's order N: the index is read at the higher order, and the table
    # meets the cocycle lemma with phi in its own units
    params = HWParams(2**n)
    U = _phase_table(_closed_form(params, sl2_s(params.N))[0])
    table = metaplectic._j_table("twisted_even", params.N, params)
    if higher == "U":
        U = U._replace(order=16, exps=U.exps * (16 // params.N) + 3)
    else:
        table = table._replace(order=16, exps=table.exps * (16 // params.N))
        monkeypatch.setattr(
            metaplectic, "j_twisted", lambda *args, **kw: j_twisted(*args, **kw)._promoted(16)
        )
    assert U.scale_pow2 == n
    assert (U.order, table.order) == ((16, params.N) if higher == "U" else (params.N, 16))
    A = sl2_s(params.N) if element == "S" else sl2_t(params.N)  # T: U(S) is wrong
    monkeypatch.setattr(metaplectic, "_j_table", lambda *args: table)
    seen = _spy_conjugation(monkeypatch)
    verdicts, points = _spy_two_points(monkeypatch)
    got = verify_metaplectic(U, A, "twisted_even", params)
    assert len(seen) == 1 and int((~seen[0]).sum()) == len(got.failures)
    _assert_same_json(got.to_json(), _conjugation_reference(U, A, "twisted_even", params).to_json())
    assert got.passed == (element == "S")
    assert verdicts == [True] and points == ([2] if got.passed else [2, params.N**2])


def test_float_twisted_matches_the_cycle_walk(monkeypatch):
    params = HWParams(4, 3)
    A = SL2Element(1, 1, 1, 2, 4)
    seen = _spy_conjugation(monkeypatch)
    for U, tol in [(u_general(params, A).to_float(), 1e-9), (u_s(params).to_float(), 1e-9),
                   (u_general(params, A).to_float(), 1e-20)]:
        got = verify_metaplectic(U, A, "twisted_even", params, tol=tol)
        assert int((~seen[-1]).sum()) == len(got.failures)
        want = _conjugation_reference(U, A, "twisted_even", params, tol)
        _assert_same_json(got.to_json(), want.to_json())
    assert len(seen) == 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_float_u_on_the_shared_table_matches_the_cycle_walk(n, monkeypatch):
    # the support table of the J's serves a float U too, densified a block
    # at a time: it takes the stacked pass and gives the per-point report
    params = HWParams(2**n, 2**n - 1)
    seen = _spy_conjugation(monkeypatch)
    cases = [(u_general(params, A), A, True)
             for A in [sl2_s(params.N), sl2_t(params.N)] + sample_sl2(params.N, 3, 5)]
    cases.append((u_s(params), sl2_t(params.N), False))  # U(S) is wrong for T
    for U, A, passes in cases:
        got = verify_metaplectic(U.to_float(), A, "twisted_even", params)
        assert int((~seen[-1]).sum()) == len(got.failures)
        want = _conjugation_reference(U.to_float(), A, "twisted_even", params)
        _assert_same_json(got.to_json(), want.to_json())
        assert got.passed == passes
    assert len(seen) == len(cases)


def test_mismatched_operands_raise_like_the_cycle_walk():
    for U, flavor, A, error in [
        (u_s(HWParams(2)), "twisted_even", sl2_s(4), DimMismatch),  # dim 4, J of dim 16
        (_closed_form(HWParams(2), sl2_s(2))[0], "twisted_even", sl2_s(4), DimMismatch),
        (OpMatrix.identity(3, "exact"), "weil_odd", sl2_s(3), BackendMismatch),  # J float
        (_SupportTable(8, np.arange(3), np.zeros(3, dtype=np.int64)), "weil_odd", sl2_s(3),
         BackendMismatch),
    ]:
        for check in (verify_metaplectic, _conjugation_reference):
            with pytest.raises(error):
                check(U, A, flavor, HWParams(4))


def test_root_encoding_round_trips():
    # CycNum.root, exact phase tables, the row-support decoder and from_support
    # agree on omega^k
    for order in (8, 16, 32, 64):
        k = np.arange(2 * order)
        M = OpMatrix.from_phase_table(order, np.diag(k), np.eye(len(k), dtype=bool))
        cols, exponents = _unit_support(M)
        assert (cols == k).all() and (exponents == k % order).all()
        assert mat_eq(OpMatrix.from_support(order, cols, exponents), M).equal
        for e in k.tolist():
            assert M.entry(e, e) == CycNum.root(order, e)


def _unit_support(J):
    """(cols, entries) of a phased permutation with unit entries, an exact
    entry omega^k as k, read back from the dense matrix."""
    if J.backend == "float":
        assert np.count_nonzero(J.data) == J.dim
        cols = np.abs(J.data).argmax(axis=1)
        return cols, J.data[np.arange(J.dim), cols]
    # omega^k is one coefficient +-1: of x^k, or -1 of x^{k-L} for k >= L
    rows, cols, pos = np.nonzero(J.coeffs)
    assert np.array_equal(rows, np.arange(J.dim)) and np.abs(J.coeffs).max() == 1
    return cols, pos + J.coeffs.shape[2] * (J.coeffs[rows, cols, pos] < 0)


def _assert_table_row(table, t, M, backend):
    # member t of an exponent table is M's support: the same columns, exact
    # exponents scaled to M's ring, float entries _roots(order)[exps] bit for bit
    cols, entries = _unit_support(M)
    assert np.array_equal(table.cols[t], cols)
    if backend == "exact":
        assert M.order == _exact_order(table.order) and M.scale_log2 == 0
        assert np.array_equal(table.exps[t] * (M.order // table.order), entries)
    else:
        got = _roots(table.order)[table.exps[t]]
        assert np.array_equal(got.view(np.uint64), entries.view(np.uint64))


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_j_table_equals_the_builders(backend):
    # the formula table holds, point by point, the support of j_twisted / j_odd
    # on either backend
    cases = [("twisted_even", HWParams(N, p)) for N in (2, 4, 8) for p in range(1, N, 2)]
    if backend == "float":
        cases += [("weil_odd", HWParams(N)) for N in (3, 5, 7)]
    for flavor, pr in cases:
        N = pr.N
        table = metaplectic._j_table(flavor, N, pr)
        dim = N * N if flavor == "twisted_even" else N
        assert table.order == N and table.cols.shape == table.exps.shape == (N * N, dim)
        for l, (r, s) in enumerate(np.ndindex(N, N)):
            J = j_twisted(pr, (r, s), backend) if flavor == "twisted_even" else j_odd(N, (r, s))
            _assert_table_row(table, l, J, backend)


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_gamma_table_equals_the_builders(backend):
    # the table of all N^3 elements z^m x^r y^s, at row N(N m + r) + s, holds
    # gamma_p's support on either backend
    for N in (2, 4, 8):
        for p in range(1, N, 2):
            pr = HWParams(N, p)
            elements = np.unravel_index(np.arange(N**3), (N, N, N))
            table = _SupportTable(N, *_gamma_support(pr, *elements))
            assert table.cols.shape == table.exps.shape == (N**3, N)
            for t, (m, r, s) in enumerate(np.ndindex(N, N, N)):
                _assert_table_row(table, t, gamma_p(pr, m, r, s, backend), backend)


# -- U(A) U(B) == U(AB) on the builders' tables -------------------------------


def _kernel_cases(N):
    # all of SL2(Z_N) at every odd p for N <= 4 (p = 1 only at N = 2); seeded
    # sampled pairs at N = 8 (300) and N = 16 (30)
    if N <= 4:
        elems = enumerate_sl2(N)
        return [(HWParams(N, p), A, B) for p in range(1, N, 2) for A in elems for B in elems]
    count = 300 if N == 8 else 30
    pairs = zip(sample_sl2(N, count, N), sample_sl2(N, count, N + 1))
    return [(HWParams(N), A, B) for A, B in pairs]


@pytest.mark.parametrize("N", [2, 4, 8, 16])
def test_phase_law_agrees_with_the_dense_product(N):
    # against U(AB), and against U(BA) as well: dense mat_eq finds the pairs
    # that do not commute unequal, and the kernel must say the same, pair by pair
    U = cache(lambda pr, X: u_general(pr, X))
    table = cache(lambda pr, X: _slot_table(metaplectic._closed_form(pr, X)[0]))
    verdicts = []
    for pr, A, B in _kernel_cases(N):
        product = U(pr, A) @ U(pr, B)
        for C in (A * B, B * A):
            dense = mat_eq(product, U(pr, C)).equal
            assert _phase_law(table(pr, A), table(pr, B), table(pr, C)) == dense, (pr, A, B, C)
            verdicts.append(dense)
    assert all(verdicts[::2]) and not all(verdicts[1::2])


def _flaw(table, flaw, rng):
    """A builder's table with one flaw, or None where it takes none of that
    kind: one entry of a factor moved where the cosets keep it, or one row's
    exponent of a c = 0 table (`exponent`); the cosets of two indices of
    different cosets swapped (`mask`, a factor table with g > 1); one column
    of a c = 0 table moved (`column`); the scale of a factor table off by one
    (`scale`)."""
    if isinstance(table, _SupportTable):
        i = rng.integers(len(table.cols))
        if flaw == "exponent":
            exps = table.exps.copy()
            exps[i] = (exps[i] + rng.integers(1, table.order)) % table.order
            return table._replace(exps=exps)
        if flaw == "column":
            cols = table.cols.copy()
            cols[i] = (cols[i] + rng.integers(1, len(cols))) % len(cols)
            return table._replace(cols=cols)
        return None
    if flaw == "scale":
        return table._replace(scale_pow2=table.scale_pow2 + int(rng.choice([-1, 1])))
    n, g, cosets = len(table.cosets), table.g, table.cosets
    if flaw == "mask" and g > 1:
        i = rng.integers(n)
        j = rng.choice(np.flatnonzero(cosets != cosets[i]))
        swapped = cosets.copy()
        swapped[[i, j]] = cosets[[j, i]]
        return table._replace(cosets=swapped)
    if flaw == "exponent":  # a[k1, j1, j2] or b[k1, k2, j1], j1 in the coset of k1
        k1, other = rng.integers(n, size=2)
        j1 = cosets[k1] + g * rng.integers(n // g)
        name = str(rng.choice(["a", "b"]))
        factor = getattr(table, name).copy()
        at = (k1, j1, other) if name == "a" else (k1, other, j1)
        factor[at] = (factor[at] + rng.integers(1, table.order)) % table.order
        return table._replace(**{name: factor})
    return None


# the rules a flaw is caught on: a moved column leaves a c = 0 Y's columns
# no permutation, so with a factor X the pair is not proven; where Z is a
# c = 0 table, X and Y are both c = 0 (the rows) or both factor tables with
# cosets of one size, so X's stages are taken, never Y's
FLAW_ROUTES = {
    "exponent": {"side rows", "side columns", "left stages", "right stages"},
    "mask": {"side rows", "side columns", "left stages", "right stages"},
    "column": {"side rows", "left stages", "not proven"},
    "scale": {"side rows", "side columns", "left stages", "right stages"},
}


@pytest.mark.parametrize("flaw", ["exponent", "mask", "column", "scale"])
def test_phase_law_finds_a_flawed_table_unequal_like_the_dense_product(flaw, monkeypatch):
    # N = 8 with one slot per block, so every factor table has its stages;
    # the flaw goes into U(A), U(B) and U(AB) in turn, and the kernel's
    # verdict is mat_eq's on the dense product.  The flaw is caught at every
    # position and on every rule that can meet it
    monkeypatch.setattr(matrixcore, "_SLOT_BLOCK", 1)
    rng = np.random.default_rng(37)
    pr, caught = HWParams(8, 3), set()
    pairs = list(zip(sample_sl2(8, 60, 370), sample_sl2(8, 60, 371))) + _route_pairs(8)
    for A, B in pairs:
        tables = [metaplectic._closed_form(pr, X)[0] for X in (A, B, A * B)]
        for k in range(3):
            flawed = list(tables)
            flawed[k] = _flaw(tables[k], flaw, rng)
            if flawed[k] is None:
                continue
            x, y, z = map(_slot_table, flawed)
            X, Y, Z = (_table_op(pr, t, "exact", "") for t in flawed)
            equal = mat_eq(X @ Y, Z).equal
            assert _phase_law(x, y, z) == equal, (A, B, k)
            if not equal:
                caught.add((_route(x, y), k))
    assert {route for route, _ in caught} == FLAW_ROUTES[flaw]
    assert {k for _, k in caught} == {0, 1, 2}


def test_phase_law_proves_nothing_past_its_bound():
    # (2^-k X)(2^-k Y) == 2^-2k Z holds for every k, but once dim 2^{s_Z} +
    # 2^{s_X + s_Y} reaches the word prime the kernel leaves it undecided
    pr = HWParams(16)
    for A, B in zip(sample_sl2(16, 40, 160), sample_sl2(16, 40, 161)):
        tables = [metaplectic._closed_form(pr, X)[0] for X in (A, B, A * B)]
        if all(isinstance(t, _FactorTable) for t in tables):
            break
    p = _slot_table(tables[0]).p
    big = (p.bit_length() + 1) // 2

    def proves(k):
        raised = [t._replace(scale_pow2=t.scale_pow2 + m * k) for t, m in zip(tables, (1, 1, 2))]
        return _phase_law(*map(_slot_table, raised))

    assert [proves(k) for k in (0, 1, 4, big)] == [True, True, True, False]


def _route(x, y):
    # the rule `_phase_law` takes for the slot tables X, Y
    if x.support is not None:
        return "side rows"
    if y.support is not None:
        return "side columns" if y.support[2] is not None else "not proven"
    if x.values is not None:
        return "one block"
    routes = [(r, side) for r, side in ((x.left, "left"), (y.right, "right")) if r is not None]
    if not routes:
        return "not proven"
    return min(routes, key=lambda rs: rs[0].work)[1] + " stages"


def _spy_routes(monkeypatch):
    # one entry per `_apply` call (a block of one slot), and whether each
    # gather in a route's row order reads a transpose
    calls, sides, real_apply, real_gather = [], [], matrixcore._apply, matrixcore._gather

    def apply(*args):
        calls.append(1)
        return real_apply(*args)

    def gather(t, width, transpose, rows):
        sides.append(transpose)
        return real_gather(t, width, transpose, rows)

    monkeypatch.setattr(matrixcore, "_apply", apply)
    monkeypatch.setattr(matrixcore, "_gather", gather)
    return calls, sides


def _route_pairs(N):
    # a pair (A, B) per rule at N >= 8: c odd (g = 1), c = 2 (g = 2) and
    # c = 0 with d = 3, whose permutation is no involution past N = 8, in
    # the order of ROUTES
    odd, osum = SL2Element(3, 1, 5, 2, N), SL2Element(1, 0, 2, 1, N)
    tri = SL2Element(pow(3, -1, N), 1, 0, 3, N)
    return [(tri, osum), (osum, tri), (osum, odd), (odd, osum)]


ROUTES = ("side rows", "side columns", "left stages", "right stages")


@pytest.mark.parametrize("N", [8, 16])
def test_phase_law_routes_fire_and_agree_with_the_dense_product(N, monkeypatch):
    # a c = 0 X is decided on its rows, else a c = 0 Y on its columns read
    # through its inverse permutation, with no slot product.  Otherwise at
    # N = 8 every table is one block and a pair one product of the cached
    # values; at N = 16 X's stages (left) or Y^T's (right) are taken,
    # whichever do fewer multiply-adds, and run at every slot of an equal
    # pair.  Each rule fires, and its verdicts on U(AB) and U(BA) are mat_eq's
    calls, sides = _spy_routes(monkeypatch)
    pr = HWParams(N, 3)
    U = cache(lambda X: u_general(pr, X))
    table = cache(lambda X: _slot_table(metaplectic._closed_form(pr, X)[0]))
    pairs = list(zip(sample_sl2(N, 12, N), sample_sl2(N, 12, N + 1))) + _route_pairs(N)
    routes, verdicts = [], []
    for A, B in pairs:
        x, y = table(A), table(B)
        product = U(A) @ U(B)
        for C in (B * A, A * B):
            calls.clear(), sides.clear()
            got = _phase_law(x, y, table(C))
            assert got == mat_eq(product, U(C)).equal, (A, B, C)
            verdicts.append(got)
        routes.append(_route(x, y))  # U(AB), the last, is equal: every slot ran
        staged = routes[-1].endswith("stages")
        assert calls == ([1] * len(x.roots) if staged else [])
        assert sides == ([routes[-1] == "right stages"] * 2 if staged else [])
    assert all(verdicts[1::2]) and not all(verdicts[::2])
    whole = {"one block"} if N == 8 else {"left stages", "right stages"}
    assert set(routes) == {"side rows", "side columns"} | whole


def test_phase_law_compares_every_block(monkeypatch):
    # N = 16, one slot per block: an equal pair on either stage route, against
    # a Z whose last slot alone is off (two of its roots swapped), is unequal,
    # while a side law reads no slot and still holds.  With blocks of a
    # quarter of a slot's columns, a Z whose last column alone is off is
    # unequal on every rule
    calls, _ = _spy_routes(monkeypatch)
    pr = HWParams(16, 3)
    slot = lambda X: _slot_table(metaplectic._closed_form(pr, X)[0])  # noqa: E731
    cases = [(slot(A), slot(B), slot(A * B), route) for route, (A, B) in zip(ROUTES, _route_pairs(16))]
    for x, y, z, route in cases:
        assert _route(x, y) == route and _phase_law(x, y, z)
        roots = z.roots.copy()
        roots[-1, [1, 2]] = roots[-1, [2, 1]]
        assert _phase_law(x, y, z._replace(roots=roots)) == route.startswith("side"), route
    monkeypatch.setattr(matrixcore, "_SLOT_BLOCK", 1 << 14)
    for x, y, z, route in cases:
        calls.clear()
        assert _phase_law(x, y, z), route
        assert len(calls) == (0 if route.startswith("side") else 8 * 4)
        index = z.index.copy()
        index[:, -1] = np.where(index[:, -1] == 16, 0, 16)  # the last column's support moved
        assert not _phase_law(x, y, z._replace(index=index)), route


def test_a_c0_y_whose_columns_are_no_permutation_proves_nothing():
    # N = 4: Y is the identity with row 1 moved to column 0, so column 1 of
    # X Y is zero and X Y is neither X nor X with columns 0 and 1 swapped.
    # With a factor X the column law needs Y's inverse permutation, and Y has
    # none: the pair is not proven, where a stand-in (a sort of Y's columns:
    # the identity or that swap) would prove one of them.  With a c = 0 X
    # the row law holds for any Y: X Y == Y for X = 1
    pr = HWParams(4, 3)
    cols = np.arange(16)
    cols[1] = 0
    bad = _SupportTable(4, cols, np.zeros(16, dtype=np.int64))
    factor = _phase_table(metaplectic._closed_form(pr, SL2Element(1, 0, 1, 1, 4))[0])
    swapped = factor._replace(exps=factor.exps[:, [1, 0, *range(2, 16)]])
    x, y = _slot_table(factor), _slot_table(bad)
    assert y.support[2] is None and _route(x, y) == "not proven"
    XY = _table_op(pr, factor, "exact", "") @ _table_op(pr, bad, "exact", "")
    for z in (factor, swapped):
        assert not mat_eq(XY, _table_op(pr, z, "exact", "")).equal
        assert not _phase_law(x, y, _slot_table(z))
    one = _slot_table(metaplectic._closed_form(pr, SL2Element(1, 0, 0, 1, 4))[0])
    assert _route(one, y) == "side rows" and _phase_law(one, y, y)


def _split(exps, order):
    """(a, b) with exps[k, j] = a[k1, j1, j2] + b[k1, k2, j1] (mod order, a
    power of two) for every k = (k1, k2) and j = (j1, j2) of a dim n^2
    table, which holds exactly when E[k, j] = E[(k1, 0), j] - E[(k1, 0),
    (j1, 0)] + E[k, (j1, 0)]; else None."""
    dim, low = len(exps), order - 1
    n = math.isqrt(dim)
    e = exps.reshape(n, n, n, n) & low  # e[k1, k2, j1, j2]
    a, b = (e[:, 0] - e[:, 0, :, :1]) & low, e[..., 0]
    joined = np.add(a[:, None], b[..., None]) & low
    return (a, b) if np.array_equal(joined, e) else None


def _dense_c_odd(params, A):
    # the c-odd builder as it stood before builders wrote factors: one int64
    # exponent per entry, p (k1 j2 + k2 j1 - a k1 k2 - d j1 j2)/c mod N
    N, p = params.N, params.p
    a, _, c, d = A.entries()
    cinv = pow(c, -1, N)
    k1, k2 = np.divmod(np.arange(N * N), N)
    cross = k1[:, None] * k2 + k2[:, None] * k1
    return p * (cinv * cross - a * cinv * (k1 * k2)[:, None] - d * cinv * (k1 * k2)) % N


def _dense_odd_sum(params, A):
    # the d-odd-sum builder as it stood before builders wrote factors: its
    # exponents, mask and scale
    N, p = params.N, params.p
    _, b, c, d = A.entries()
    dinv = pow(d, -1, N)
    ratio = c * dinv % N
    v = (ratio & -ratio).bit_length() - 1
    k1, k2 = np.divmod(np.arange(N * N), N)
    t = (dinv * k1[:, None] - k1[None, :]) % N
    e = (k2[None, :] - dinv * k2[:, None]) % N
    r0 = (t >> v) * pow(ratio >> v, -1, N >> v)
    base = -p * b * dinv * k1 * k2 % N
    mask = ((t | e) & ((1 << v) - 1)) == 0
    return (base[:, None] + p * e * r0) % N, mask, params.n - v


@pytest.mark.parametrize("N", [2, 4, 8, 16])
def test_one_moved_exponent_breaks_the_split(N):
    # the factors of every odd-c table at every odd p (a seeded sample of
    # elements at N = 16) are the split of the dense formula they replaced,
    # and moving any one exponent of that formula breaks the split (every
    # entry at N <= 4, a seeded few at N >= 8)
    rng = np.random.default_rng(N)
    elems = enumerate_sl2(N) if N <= 8 else sample_sl2(N, 12, 3)
    for p in range(1, N, 2):
        for A in (A for A in elems if A.c % 2):
            pr = HWParams(N, p)
            table, exps = _closed_form(pr, A)[0], _dense_c_odd(pr, A)
            assert (table.g, table.scale_pow2) == (1, pr.n) and not table.cosets.any()
            a, b = _split(exps, N)
            assert np.array_equal(a, table.a) and np.array_equal(b, table.b)
            entries = np.ndindex(exps.shape) if N <= 4 else rng.integers(0, N * N, (4, 2))
            for i, j in entries:
                moved = exps.copy()
                moved[i, j] = (moved[i, j] + rng.integers(1, N)) % N
                assert _split(moved, N) is None


@pytest.mark.parametrize("N", [4, 8, 16])
def test_odd_sum_factors_reproduce_the_masked_formula(N):
    # the d-odd-sum factors give the table the builder wrote before, at
    # every odd p (a seeded sample of elements at N = 16): the same mask and
    # scale, and the same exponents on the mask
    elems = enumerate_sl2(N) if N <= 8 else sample_sl2(N, 30, 4)
    hit = 0
    for p in range(1, N, 2):
        for A in (A for A in elems if A.c and A.c % 2 == 0):
            pr = HWParams(N, p)
            table, branch = _closed_form(pr, A)
            got = _phase_table(table)
            exps, mask, scale = _dense_odd_sum(pr, A)
            assert branch == "d-odd-sum" and got.scale_pow2 == scale
            assert np.array_equal(got.mask, mask) and np.array_equal(got.exps[mask], exps[mask])
            hit += 1
    assert hit >= 8


def test_an_odd_c_table_with_a_moved_exponent_goes_dense_and_fails(monkeypatch):
    # N = 16: U(A) with c odd and U(B) with c = 2 are factor tables, and the
    # pair takes U(B)'s right stages.  U(A)'s dense table with one exponent
    # moved is no builder's and has no stages: with U(B)'s dense table the
    # pair is not proven, with no slot product, and with U(B)'s factor table
    # the right stages find it unequal at the first slot, as mat_eq does
    calls, sides = _spy_routes(monkeypatch)
    pr, (A, B) = HWParams(16, 5), _route_pairs(16)[-1]
    tables = [metaplectic._closed_form(pr, X)[0] for X in (A, B, A * B)]
    x, y, z = map(_slot_table, tables)
    assert _route(x, y) == "right stages" and _phase_law(x, y, z)
    assert calls == [1] * 8 and sides == [True, True]
    dense = _phase_table(tables[0])
    exps = dense.exps.copy()
    exps[37, 200] = (exps[37, 200] + 3) % 16
    flawed = dense._replace(exps=exps)
    fx, dy = _slot_table(flawed), _slot_table(_phase_table(tables[1]))
    assert fx.left is fx.right is dy.left is dy.right is None
    calls.clear()
    assert _route(fx, dy) == "not proven" and not _phase_law(fx, dy, z) and calls == []
    assert _route(fx, y) == "right stages" and not _phase_law(fx, y, z) and calls == [1]
    X, Y, Z = (_table_op(pr, t, "exact", "") for t in (flawed, tables[1], tables[2]))
    assert not mat_eq(X @ Y, Z).equal


def test_unequal_cosets_take_no_stages():
    # N = 16: U(B) with c = 2 has two cosets of 8; with one index moved to
    # the other coset (no builder writes that) they are 7 and 9, and it has
    # no stages.  A law it is in takes the other side's stages, or is not
    # proven where neither side has any; mat_eq finds both unequal
    pr, (A, B) = HWParams(16, 3), _route_pairs(16)[-1]
    tables = [metaplectic._closed_form(pr, X)[0] for X in (A, B, A * B, B * B)]
    cosets = tables[1].cosets.copy()
    cosets[0] = 1 - cosets[0]
    flawed = tables[1]._replace(cosets=cosets)
    x, fy, z, zz = map(_slot_table, (tables[0], flawed, tables[2], tables[3]))
    assert fy.left is fy.right is None
    assert _route(fy, fy) == "not proven" and _route(x, fy) == "left stages"
    X, Y, Z, ZZ = (_table_op(pr, t, "exact", "") for t in (tables[0], flawed, *tables[2:]))
    assert not mat_eq(X @ Y, Z).equal and not _phase_law(x, fy, z)
    assert not mat_eq(Y @ Y, ZZ).equal and not _phase_law(fy, fy, zz)


@pytest.mark.parametrize("N", [2, 4, 8, 16])
def test_staged_residues_equal_the_dense_slot_product(N, monkeypatch):
    # with one slot per block every factor table has its stages, at every odd
    # p (a seeded sample of elements at N = 16): X's and X^T's, at g = 1 and
    # g > 1.  Each, applied at each slot to a seeded block of centred residues
    # read in its row order, equals the dense slot product residue for
    # residue.  A c = 0 table has no route; its side law reads its columns'
    # inverse permutation
    monkeypatch.setattr(matrixcore, "_SLOT_BLOCK", 1)
    rng = np.random.default_rng(N + 1)
    elems = enumerate_sl2(N) if N <= 8 else sample_sl2(N, 4, 5) + [_route_pairs(N)[0][0]]
    seen, dim = set(), N * N
    for p in range(1, N, 2):
        for A in elems:
            table = metaplectic._closed_form(HWParams(N, p), A)[0]
            t = _slot_table(table)
            assert t.values is None
            if isinstance(table, _SupportTable):
                cols, _, inverse = t.support
                assert t.left is t.right is None and np.array_equal(cols[inverse], np.arange(dim))
                seen.add(("side", "c = 0"))
                continue
            assert t.support is None and t.left is not None and t.right is not None
            size = len(t.roots)
            X = t.roots.take(t.index.astype(np.intp), axis=1)
            half = (t.p - 1) // 2
            W = rng.integers(-half, half + 1, (size, dim, dim)).astype(np.float64)
            out, mid = np.empty((2, dim, dim))
            for side, route, F in (("left", t.left, X), ("right", t.right, X.transpose(0, 2, 1))):
                want = matrixcore._reduce(F @ W, t.p)[:, route.rows_out]
                for m in range(size):
                    stages = [residues[m].take(index) for residues, index in route.stages]
                    got = matrixcore._apply(*stages, W[m, route.rows_in], t.p, out, mid)
                    assert np.array_equal(got, want[m]), (p, A, side, m)
                seen.add((side, f"g = {min(table.g, 2)}"))
    kinds = {"g = 1"} | ({"g = 2"} if N >= 4 else set())
    assert seen == {("side", "c = 0")} | {(side, kind) for side in ("left", "right") for kind in kinds}


@pytest.mark.parametrize("N", [4, 8, 16, 32])
def test_coset_index_is_the_masked_sum_byte_for_byte(N):
    # the index of a d-odd-sum table, written as the marker and then the
    # exponents of each coset block, is the dense sum with the out-of-coset
    # marker put through the dim^2 mask, dtype and bytes, at every g = 2^v
    # the modulus allows (c = 2^v, d = 1) and on seeded elements, at the
    # slot order and at twice it; the dense table's mask is that mask
    pr = HWParams(N, 3)
    elems = [SL2Element(1, 0, 1 << v, 1, N) for v in range(1, pr.n)]
    elems += enumerate_sl2(N) if N <= 8 else sample_sl2(N, 30, N)
    seen = set()
    for A in (A for A in elems if A.c and A.c % 2 == 0):
        table = _closed_form(pr, A)[0]
        on = np.arange(N) % table.g == table.cosets[:, None]  # on[k, j]: j on k's coset
        mask = np.repeat(np.repeat(on, N, axis=0), N, axis=1) & np.tile(on, (N, N))
        for order in (_exact_order(N), 2 * N):
            want = matrixcore._factor_exps(table, order)
            np.putmask(want, ~mask, order)
            got = matrixcore._index(table, order)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (A, order)
        assert np.array_equal(_phase_table(table).mask, mask)
        seen.add(table.g)
    assert seen == {1 << v for v in range(1, pr.n)}


# -- the pair law from J-covariance ---------------------------------------------


def _covariant_slots(pr, closed, attach):
    # slot tables of U(A), U(B), U(AB), of the two stand-ins for U(AB) that
    # meet its conjugation law, U(AB) Swap (the tensor swap commutes with
    # every J) and omega U(AB), and of U(AB) with the exponent of its first
    # nonzero entry past the first N columns moved; the last three dense,
    # each with the run's verdict
    N = pr.N
    dim, swap = N * N, np.arange(N * N).reshape(N, N).T.ravel()

    def dense(table):
        if isinstance(table, _SupportTable):
            exps = np.zeros((dim, dim), dtype=np.int64)
            exps[np.arange(dim), table.cols] = table.exps
            return matrixcore._PhaseTable(N, exps, np.eye(dim, dtype=bool)[table.cols], 0)
        return _phase_table(table)

    def slots(A, B):
        tables = [closed(X) for X in (A, B, A * B)]
        z = dense(tables[2])
        mask = None if z.mask is None else z.mask[:, swap]
        on = np.ones((dim, dim), dtype=bool) if z.mask is None else z.mask
        i, j = np.argwhere(on[:, N:])[0]
        moved = z.exps.copy()
        moved[i, N + j] += 1
        tables += [z._replace(exps=z.exps[:, swap], mask=mask), z._replace(exps=z.exps + 1),
                   z._replace(exps=moved)]
        keys = [A, B, A * B, "swap", "omega", "moved"]
        elements = [A, B, A * B, A * B, A * B, A * B]
        return [attach(_slot_table(t), key, X.entries()) for t, key, X in zip(tables, keys, elements)]

    return slots


@pytest.mark.parametrize("N", [4, 8])
def test_covariance_law_proves_exactly_the_equal_pairs(N):
    # the certificate, called on its own at N <= 8 (from the one-block
    # values), against mat_eq(U(A) @ U(B), U(AB)): every factor x factor pair
    # of SL2(Z_4), or 500 seeded pairs of SL2(Z_8), for p = 1 and 3.  It
    # proves each equal pair; with U(AB) Swap or omega U(AB) in its place,
    # which meet U(AB)'s conjugation law, the verdicts still hold and the n
    # columns reject the pair, as mat_eq does.  Column 0 alone would not:
    # Swap fixes it.  U(AB) with an entry moved past the first N columns
    # fails its verdict, which the N columns alone would not see
    for p in (1, 3):
        pr = HWParams(N, p)
        closed = cache(lambda X: _closed_form(pr, X)[0])
        U = cache(lambda X: u_general(pr, X))
        slots = _covariant_slots(pr, closed, harness._covariance(pr))
        if N == 4:
            factors = [A for A in enumerate_sl2(4) if A.c]
            pairs = list(itertools.product(factors, factors))
        else:
            pairs = list(zip(sample_sl2(8, 500, 80 + p), sample_sl2(8, 500, 90 + p)))
        for A, B in pairs:
            x, y, z, swapped, scaled, moved = slots(A, B)
            product = U(A) @ U(B)
            assert matrixcore._covariance_law(x, y, z) == mat_eq(product, U(A * B)).equal, (A, B)
            assert mat_eq(_slot_op(z), U(A * B)).equal
            for flawed in (swapped, scaled):
                assert flawed.covariant[0]()
                assert not matrixcore._covariance_law(x, y, flawed)
                assert not mat_eq(product, _slot_op(flawed)).equal
            first = matrixcore._reduce(x.values @ y.values[..., :1], x.p)
            assert np.array_equal(first, swapped.values[..., :1])
            n = pr.N
            assert np.array_equal(matrixcore._reduce(x.values @ y.values[..., :n], x.p),
                                  moved.values[..., :n])
            assert not moved.covariant[0]() and not matrixcore._covariance_law(x, y, moved)
            assert not mat_eq(product, _slot_op(moved)).equal


def _slot_op(slot):
    # the exact matrix of a slot table, from its exponent index and scale
    order = 2 * len(slot.roots)
    mask = slot.index != order
    return OpMatrix.from_phase_table(order, np.where(mask, slot.index, 0), mask, slot.scale_pow2)


def test_covariance_law_applies_x_stages_to_n_columns(monkeypatch):
    # N = 16, past one block: on factor x factor pairs, the pair from X's
    # stages applied to the first 16 columns of Y at every slot (8 slots a
    # block), in agreement with `_phase_law` on tables with no verdicts;
    # U(AB) Swap and omega U(AB) keep the verdicts and are rejected, and so
    # is U(AB) whose last slot alone is off (two of its roots swapped, one
    # of them read in its first columns)
    widths = []
    real_apply = matrixcore._apply
    monkeypatch.setattr(matrixcore, "_apply", lambda *a: widths.append(a[2].shape) or real_apply(*a))
    pr = HWParams(16, 3)
    closed = cache(lambda X: _closed_form(pr, X)[0])
    slots = _covariant_slots(pr, closed, harness._covariance(pr))
    pairs = [pair for pair in zip(sample_sl2(16, 12, 7), sample_sl2(16, 12, 8)) if pair[0].c and pair[1].c]
    pairs += _route_pairs(16)[2:]
    for A, B in pairs:
        x, y, z, swapped, scaled, _ = slots(A, B)
        assert _phase_law(*(_slot_table(closed(X)) for X in (A, B, A * B)))
        widths.clear()
        assert matrixcore._covariance_law(x, y, z) and widths == [(8, 256, 16)]
        first = z.index[:, :16]
        e = first[first < 16][0]  # an exponent read in Z's first columns (16: the marker)
        roots = z.roots.copy()
        roots[-1, [e, (e + 1) % 16]] = roots[-1, [(e + 1) % 16, e]]
        for flawed in (swapped, scaled, z._replace(roots=roots)):
            assert flawed.covariant[0]() and not matrixcore._covariance_law(x, y, flawed)
    assert len(pairs) >= 4


# -- the conjugation law from two points ----------------------------------------


def _spy_two_points(monkeypatch):
    """The verdict of each `_generator_cocycle` call, from the suite or from
    `verify_metaplectic`, and the number of points each `_index_conjugation`
    call decides."""
    verdicts, points = [], []
    real_cocycle, real_kernel = metaplectic._generator_cocycle, metaplectic._index_conjugation

    def cocycle(*args):
        verdicts.append(real_cocycle(*args))
        return verdicts[-1]

    def kernel(table, index, order, left, right):
        points.append(len(left))
        return real_kernel(table, index, order, left, right)

    monkeypatch.setattr(harness, "_generator_cocycle", cocycle)
    monkeypatch.setattr(metaplectic, "_generator_cocycle", cocycle)
    monkeypatch.setattr(metaplectic, "_index_conjugation", kernel)
    return verdicts, points


@pytest.mark.parametrize("params", [{"n": 3, "samples": 3}, {"n": 3, "p": 5, "samples": 6, "seed": 2}])
def test_passing_run_decides_each_element_from_two_points(params, monkeypatch):
    # one conjugation scan over every (element, point), one generator-cocycle
    # check per run, and the index kernel reads the two generator points of
    # each element and nothing else: no element is verified alone and no
    # matrix is built
    scans, verified = [], []
    real_scan, real_verify = harness._conjugation_scan, metaplectic.verify_metaplectic

    def scan(rep, N, table, entries, *args):
        scans.append(entries.shape[1] * N * N)
        return real_scan(rep, N, table, entries, *args)

    monkeypatch.setattr(harness, "_conjugation_scan", scan)
    monkeypatch.setattr(metaplectic, "verify_metaplectic",
                        lambda *args, **kw: verified.append(args) or real_verify(*args, **kw))
    built = _count_scatter(monkeypatch)
    verdicts, points = _spy_two_points(monkeypatch)
    rep = run_suite(SuiteSpec("metaplectic", params))
    assert rep.passed and rep.checks_run == (2 + params["samples"]) * 64
    assert scans == [(2 + params["samples"]) * 64]
    assert verdicts == [True]
    assert points == [2] * (2 + params["samples"])
    assert verified == [] and built == []


def _full_cocycle(table, pr):
    # the twisted cocycle at all N^4 pairs (l, l'), on the N^2-row table
    N = pr.N
    x, y = harness._key_pairs(N, 2)
    out = N * ((x[0] + y[0]) % N) + (x[1] + y[1]) % N
    phase = pr.p * (y[0] * x[1] - y[1] * x[0])
    law = matrixcore._law_table(table)
    return bool(matrixcore._support_law(law, N * x[0] + x[1], N * y[0] + y[1], out, phase).all())


@pytest.mark.parametrize("flaw", [None, "phase", "scalar", "swap", "collision"])
@pytest.mark.parametrize("point", [(1, 2), (0, 0), (1, 0), (0, 1)])
def test_generator_cocycle_equals_the_full_pair_law(flaw, point, monkeypatch):
    # the cocycle lemma: on the real J table, and on ones flawed at a point
    # (J_0, a generator or another), the 2 N^2 generator pairs with J_0 = I
    # give the verdict of all N^4 pairs
    for n in (1, 2, 3):
        N = 2**n
        with monkeypatch.context() as m:
            if flaw:
                _perturb_twisted(m, flaw, (point[0] % N, point[1] % N))
            for p in range(1, N, 2):
                pr = HWParams(N, p)
                table = metaplectic._j_table("twisted_even", N, pr)
                full = _full_cocycle(table, pr)
                law = matrixcore._law_table(table)
                assert metaplectic._generator_cocycle(law, pr) == full, (n, p)
                assert full == (flaw is None), (n, p)


def test_generator_pairs_prove_nothing_unless_j0_is_the_identity():
    # every member sends each row to column 0, in a table of root order 1 so
    # that phi vanishes: every generator pair holds, yet J_0 is no identity
    pr = HWParams(4)
    zeros = np.zeros((16, 16), dtype=np.int64)
    table = _SupportTable(1, zeros, zeros)
    r, s = np.divmod(np.arange(16), 4)
    steps = np.concatenate((4 * ((r + 1) % 4) + s, 4 * r + (s + 1) % 4))
    pairs = (np.tile(np.arange(16), 2), np.repeat([4, 1], 16), steps, np.zeros(32, dtype=np.int64))
    law = matrixcore._law_table(table)
    assert matrixcore._support_law(law, *pairs).all()
    assert not metaplectic._generator_cocycle(law, pr)


@pytest.mark.parametrize("flaw", ["phase", "scalar", "swap", "collision"])
@pytest.mark.parametrize("point", [(1, 2), (0, 0)])
def test_flawed_j_table_decides_no_element_from_two_points(flaw, point, monkeypatch):
    # a flaw in the support formula that both the J table and j_twisted
    # read, at J_0 or elsewhere: the cocycle check fails, every element is
    # decided point by point, and the report is the cycle walk's (which J_0
    # = omega I, commuting with U, passes)
    _perturb_twisted(monkeypatch, flaw, point)
    params = {"n": 2, "p": 3, "samples": 4, "seed": 5}
    want = _reference_suite_json(monkeypatch, "metaplectic", params)
    verdicts, points = _spy_two_points(monkeypatch)
    got = run_suite(SuiteSpec("metaplectic", params))
    _assert_same_json(got.to_json(), want)
    assert verdicts == [False] and got.passed == (flaw == "scalar" and point == (0, 0))
    assert points == [16] * 6


U_FLAWS = [("d-odd-triangular", "moved"), ("d-odd-reduced", "moved"), ("d-even", "sign"),
           ("d-odd-sum", "moved"), ("d-odd-sum", "mask bit")]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("branch,flaw", U_FLAWS)
def test_flawed_u_falls_back_from_two_points_like_the_cycle_walk(n, branch, flaw, monkeypatch):
    # one entry of U's table moved in every element of one closed-form
    # branch: each such element fails at a generator point and goes to the
    # per-point kernel, the others are decided at two points, and the
    # report is the cycle walk's
    params = {"n": n, "p": 3, "samples": 10, "seed": 4}
    real = harness._closed_form

    def closed(pr, A):
        table, name = real(pr, A)
        return (_flawed_table(pr, A, flaw) if name == branch else table), name

    monkeypatch.setattr(harness, "_closed_form", closed)
    want = _reference_suite_json(monkeypatch, "metaplectic", params)
    verdicts, points = _spy_two_points(monkeypatch)
    got = run_suite(SuiteSpec("metaplectic", params))
    _assert_same_json(got.to_json(), want)
    N = 2**n
    elements = [sl2_s(N), sl2_t(N)] + sample_sl2(N, params["samples"], params["seed"])
    hit = [real(HWParams(N, 3), A)[1] == branch for A in elements]
    assert any(hit) and verdicts == [True]
    assert points == [k for flawed in hit for k in ([2, N * N] if flawed else [2])]
    failing = {json.dumps(f.inputs["element"]) for f in got.failures}
    named = ["S", "T"] + [list(A.entries()) for A in elements[2:]]
    assert failing == {json.dumps(name) for name, flawed in zip(named, hit) if flawed}


@pytest.mark.parametrize("chunk", [4096, 7])
@pytest.mark.parametrize("n", [1, 2])
def test_chunks_that_split_an_element_report_like_the_per_element_loop(n, chunk, monkeypatch):
    # at n = 1 and 2 one chunk of 4,096 keys holds every element, and chunks
    # of 7 split the elements' 4 or 16 points across chunks; with one entry
    # of every d-odd-reduced table moved, the report is the per-element
    # loop's, some elements failing and some passing, and the scan leaves
    # exactly the failing points to be compared
    params = {"n": n, "p": 1, "samples": 12, "seed": 1}
    real = harness._closed_form

    def closed(pr, A):
        table, name = real(pr, A)
        return (_flawed_table(pr, A, "moved") if name == "d-odd-reduced" else table), name

    monkeypatch.setattr(harness, "_closed_form", closed)
    want = _reference_suite_json(monkeypatch, "metaplectic", params)
    monkeypatch.setattr(report, "_SCAN_CHUNK", chunk)
    seen = _spy_conjugation(monkeypatch)
    got = run_suite(SuiteSpec("metaplectic", params))
    _assert_same_json(got.to_json(), want)
    assert sum(int((~mask).sum()) for mask in seen) == len(got.failures)
    N = 2**n
    elements = [sl2_s(N), sl2_t(N)] + sample_sl2(N, params["samples"], params["seed"])
    hit = [real(HWParams(N), A)[1] == "d-odd-reduced" for A in elements]
    assert any(hit) and not all(hit)
    assert got.checks_run == len(elements) * N * N and got.failures


@pytest.mark.parametrize("kept", ["first row", "second row"])
def test_an_element_failing_at_one_generator_point_falls_back(kept, monkeypatch):
    # U(B) checked against A, B sharing A's first row (e_1 B = e_1 A) or its
    # second (e_2 B = e_2 A): the law holds at that generator point and
    # fails at the other, so the element is decided point by point
    params = HWParams(8, 3)
    A = SL2Element(3, 2, 4, 3, 8)
    B = SL2Element(3, 2, 1, 1, 8) if kept == "first row" else SL2Element(7, 5, 4, 3, 8)
    verdicts, points = _spy_two_points(monkeypatch)
    U = _closed_form(params, B)[0]
    got = verify_metaplectic(U, A, "twisted_even", params)
    _assert_same_json(got.to_json(), _conjugation_reference(U, A, "twisted_even", params).to_json())
    failing = {(f.inputs["r"], f.inputs["s"]) for f in got.failures}
    assert verdicts == [True] and points == [2, 64]
    assert ((1, 0) in failing, (0, 1) in failing) == ((False, True) if kept == "first row" else (True, False))
