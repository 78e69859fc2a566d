import random

import numpy as np
import pytest

from fqmrep.exactnum import CycNum
from fqmrep.heisenberg import (
    HWParams,
    fourier,
    gamma_p,
    p_inv_matrix,
    p_matrix,
    q_matrix,
    z_phase,
)
from fqmrep.matrixcore import OpMatrix, mat_eq


def _odd_ps(N):
    return range(1, N, 2)


def test_params_validation():
    with pytest.raises(ValueError):
        HWParams(4, 2)
    with pytest.raises(ValueError):
        HWParams(6)
    with pytest.raises(ValueError):
        HWParams(5, 3)
    with pytest.raises(ValueError):
        HWParams(9)
    assert HWParams.from_n(3, 5).N == 8
    assert HWParams(7).default_backend() == "float"
    assert HWParams(8).n == 3


def test_frozen_shift_n1():
    P = p_matrix(HWParams(2))
    assert np.array_equal(P.to_complex_array(), np.array([[0, 1], [1, 0]]))


def test_frozen_clock_n2():
    Q = q_matrix(HWParams(4))
    assert np.allclose(Q.to_complex_array(), np.diag([1, 1j, -1, -1j]))


def test_frozen_clock_gamma_form():
    assert mat_eq(q_matrix(HWParams(4)), gamma_p(HWParams(4), 0, 1, 0)).equal
    G = gamma_p(HWParams(2), 0, 1, 0)
    assert np.array_equal(G.to_complex_array(), np.diag([1, -1]))


def test_frozen_central_element_n2():
    G = gamma_p(HWParams(4), 1, 0, 0)
    assert np.allclose(G.to_complex_array(), 1j * np.eye(4))


def test_z_phase_values():
    assert z_phase(HWParams(4, 3)) == CycNum.root(4, 3)
    assert abs(z_phase(HWParams(4, 3)).to_complex() - (-1j)) < 1e-12
    assert abs(z_phase(HWParams(5)) - np.exp(2j * np.pi / 5)) < 1e-12


def test_frozen_fourier_n1():
    F = fourier(HWParams(2))
    assert np.allclose(F.to_complex_array(), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_shift_matrices_are_each_others_inverse():
    for N in (2, 4, 8):
        pr = HWParams(N)
        assert mat_eq(p_matrix(pr) @ p_inv_matrix(pr), OpMatrix.identity(N)).equal


def test_y_image_is_superdiagonal():
    # Gamma^p(y) carries ones above the diagonal (plus the corner).
    for p in _odd_ps(4):
        G = gamma_p(HWParams(4, p), 0, 0, 1)
        expected = np.zeros((4, 4))
        for k in range(4):
            expected[k, (k + 1) % 4] = 1
        assert np.array_equal(G.to_complex_array(), expected)
        assert mat_eq(G, p_inv_matrix(HWParams(4, p))).equal


def test_clock_shift_commutation():
    # P^{-1} Q = omega^p Q P^{-1}, exactly, for every odd p and n <= 3.
    for n in (1, 2, 3):
        N = 2**n
        for p in _odd_ps(N):
            pr = HWParams(N, p)
            Q, Pinv = q_matrix(pr), p_inv_matrix(pr)
            rhs = (Q @ Pinv).scalar_mul(CycNum.root(N, p))
            assert mat_eq(Pinv @ Q, rhs).equal


def test_clock_shift_orders():
    for n in (1, 2, 3):
        N = 2**n
        for p in _odd_ps(N):
            pr = HWParams(N, p)
            eye = OpMatrix.identity(N)
            assert mat_eq(q_matrix(pr) ** N, eye).equal
            assert mat_eq(p_matrix(pr) ** N, eye).equal


def test_gamma_is_a_homomorphism():
    # Gamma(g) Gamma(h) = Gamma(gh) with z^m x^r y^s composition.
    for N, p in ((2, 1), (4, 1), (4, 3)):
        pr = HWParams(N, p)
        for _ in range(50):
            rng = random.Random(N * 100 + p)
            m, r, s = (rng.randrange(N) for _ in range(3))
            m2, r2, s2 = (rng.randrange(N) for _ in range(3))
            lhs = gamma_p(pr, m, r, s) @ gamma_p(pr, m2, r2, s2)
            rhs = gamma_p(pr, m + m2 + s * r2, r + r2, s + s2)
            assert mat_eq(lhs, rhs).equal


def _commutator_check(pr, g, h):
    N, p = pr.N, pr.p
    m, r, s = g
    m2, r2, s2 = h
    lhs = gamma_p(pr, *g) @ gamma_p(pr, *h) - gamma_p(pr, *h) @ gamma_p(pr, *g)
    scalar = CycNum.root(N, p * r2 * s) - CycNum.root(N, p * r * s2)
    rhs = gamma_p(pr, m + m2, r + r2, s + s2).scalar_mul(scalar)
    return mat_eq(lhs, rhs).equal


def test_commutator_exhaustive_n1():
    for p in _odd_ps(2):
        pr = HWParams(2, p)
        triples = [(m, r, s) for m in range(2) for r in range(2) for s in range(2)]
        for g in triples:
            for h in triples:
                assert _commutator_check(pr, g, h)


def test_commutator_sampled_n2_n3():
    rng = random.Random(42)
    for n in (2, 3):
        N = 2**n
        for p in _odd_ps(N):
            pr = HWParams(N, p)
            for _ in range(150):
                g = tuple(rng.randrange(N) for _ in range(3))
                h = tuple(rng.randrange(N) for _ in range(3))
                assert _commutator_check(pr, g, h)


def test_fourier_conjugates_shift_to_clock():
    # F P^p F^{-1} = Q, exactly, for n <= 3 and every odd p.
    for n in (1, 2, 3):
        N = 2**n
        for p in _odd_ps(N):
            pr = HWParams(N, p)
            F = fourier(pr)
            lhs = F @ (p_matrix(pr) ** p) @ F.dagger()
            assert mat_eq(lhs, q_matrix(pr)).equal


def test_fourier_is_unitary_and_order_four():
    for n in (1, 2):
        pr = HWParams.from_n(n)
        F = fourier(pr)
        assert mat_eq(F @ F.dagger(), OpMatrix.identity(2**n)).equal
        assert mat_eq(F**4, OpMatrix.identity(2**n)).equal


def test_gamma_unitarity_random():
    rng = random.Random(7)
    pr = HWParams(4, 3)
    for _ in range(100):
        G = gamma_p(pr, rng.randrange(4), rng.randrange(4), rng.randrange(4))
        assert mat_eq(G @ G.dagger(), OpMatrix.identity(4)).equal


def test_odd_prime_families_are_float():
    pr = HWParams(5)
    Q, P = q_matrix(pr), p_matrix(pr)
    assert Q.backend == "float" and P.backend == "float"
    omega = np.exp(2j * np.pi / 5)
    # Q P = omega P Q
    assert np.abs(
        (Q @ P).to_complex_array() - omega * (P @ Q).to_complex_array()
    ).max() < 1e-12
    F = fourier(pr)
    assert np.abs(
        (F @ P @ F.dagger()).to_complex_array() - Q.to_complex_array()
    ).max() < 1e-9


def test_exact_backend_rejected_for_odd_modulus():
    with pytest.raises(ValueError):
        q_matrix(HWParams(5), backend="exact")


def test_backend_agreement():
    rng = random.Random(9)
    for n in (1, 2, 3):
        N = 2**n
        for p in (1, N - 1):
            pr = HWParams(N, p)
            for build in (q_matrix, p_matrix, p_inv_matrix, fourier):
                d = np.abs(
                    build(pr, "exact").to_complex_array()
                    - build(pr, "float").to_complex_array()
                ).max()
                assert d < 1e-9
            for _ in range(10):
                g = tuple(rng.randrange(N) for _ in range(3))
                d = np.abs(
                    gamma_p(pr, *g, backend="exact").to_complex_array()
                    - gamma_p(pr, *g, backend="float").to_complex_array()
                ).max()
                assert d < 1e-9
