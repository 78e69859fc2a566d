"""Tests for magnetic translations, odd and twisted."""

import numpy as np
import pytest

from fqmrep.exactnum import CycNum
from fqmrep.heisenberg import HWParams, p_matrix, q_matrix
from fqmrep.magnetic import (
    EvenModulus,
    _twisted_support,
    j_odd,
    j_twisted,
    j_twisted_product,
)
from fqmrep.matrixcore import OpMatrix, mat_eq


def omega(N, e):
    return np.exp(2j * np.pi * (e % N) / N)


def test_even_modulus_rejected():
    with pytest.raises(EvenModulus):
        j_odd(4, (1, 0))


def test_j_odd_identity_and_generators():
    N = 5
    assert mat_eq(j_odd(N, (0, 0)), OpMatrix.identity(N, "float")).equal
    # J_{1,0} = P and J_{0,1} = Q for the odd family.
    params = HWParams(N)
    assert mat_eq(j_odd(N, (1, 0)), p_matrix(params, "float"), tol=1e-12).equal
    assert mat_eq(j_odd(N, (0, 1)), q_matrix(params, "float"), tol=1e-12).equal


@pytest.mark.parametrize("N", [3, 5, 7])
def test_j_odd_cocycle_exhaustive(N):
    inv2 = pow(2, -1, N)
    mats = {(r, s): j_odd(N, (r, s)).to_complex_array() for r in range(N) for s in range(N)}
    for r in range(N):
        for s in range(N):
            for rp in range(N):
                for sp in range(N):
                    lhs = mats[(r, s)] @ mats[(rp, sp)]
                    phase = omega(N, (rp * s - r * sp) * inv2)
                    rhs = phase * mats[((r + rp) % N, (s + sp) % N)]
                    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("N", [3, 5])
def test_j_odd_powers(N):
    for r in range(N):
        for s in range(N):
            j = j_odd(N, (r, s))
            acc = j.to_complex_array()
            for k in range(2, N + 1):
                acc = acc @ j.to_complex_array()
                want = j_odd(N, (k * r, k * s)).to_complex_array()
                assert np.max(np.abs(acc - want)) < 1e-10
            assert np.max(np.abs(acc - np.eye(N))) < 1e-10


def test_j_odd_commutation():
    N = 5
    for r, s, rp, sp in [(1, 0, 0, 1), (2, 3, 1, 4), (4, 4, 3, 1)]:
        a = j_odd(N, (r, s)).to_complex_array()
        b = j_odd(N, (rp, sp)).to_complex_array()
        assert np.max(np.abs(a @ b - omega(N, s * rp - sp * r) * (b @ a))) < 1e-10


def test_j_odd_dagger():
    N = 5
    got = j_odd(N, (1, 2)).dagger()
    want = j_odd(N, (-1, -2))
    assert mat_eq(got, want, tol=1e-12).equal


def test_twisted_frozen_n1():
    # J_{1,1} at N=2 equals -(QP (x) QP).
    params = HWParams(2)
    qp = q_matrix(params) @ p_matrix(params)
    want = qp.kron(qp).scalar_mul(-1)
    assert mat_eq(j_twisted(params, (1, 1)), want).equal


def test_twisted_frozen_entry_n2():
    params = HWParams(4)
    j = j_twisted(params, (1, 1))
    # Row index 4*k1+k2 with k=(1,1), column j=(0,0): omega_4^{-1+2} = i.
    assert j.entry(5, 0) == CycNum.root(4, 1)
    assert abs(j.entry(5, 0).to_complex() - 1j) < 1e-15


def test_twisted_requires_power_of_two():
    with pytest.raises(ValueError):
        j_twisted(HWParams(5), (1, 1), backend="float")


@pytest.mark.parametrize("n", [1, 2])
def test_twisted_cocycle_exhaustive_small(n):
    N = 2**n
    for p in range(1, max(N, 2), 2):
        params = HWParams(N, p)
        mats = {
            (r, s): j_twisted(params, (r, s)) for r in range(N) for s in range(N)
        }
        for r in range(N):
            for s in range(N):
                for rp in range(N):
                    for sp in range(N):
                        lhs = mats[(r, s)] @ mats[(rp, sp)]
                        rhs = mats[((r + rp) % N, (s + sp) % N)].scalar_mul(
                            CycNum.root(N, p * (rp * s - sp * r))
                        )
                        assert mat_eq(lhs, rhs).equal


def test_twisted_cocycle_sampled_n3():
    import random

    rng = random.Random(20240811)
    params = HWParams(8, 3)
    for _ in range(40):
        r, s, rp, sp = (rng.randrange(8) for _ in range(4))
        lhs = j_twisted(params, (r, s)) @ j_twisted(params, (rp, sp))
        rhs = j_twisted(params, ((r + rp) % 8, (s + sp) % 8)).scalar_mul(
            CycNum.root(8, 3 * (rp * s - sp * r))
        )
        assert mat_eq(lhs, rhs).equal


def test_twisted_pinned_commutator_phase():
    # J_{1,0} J_{0,1} = omega^{-p} J_{1,1}; at N=4, p=1 the phase is -i.
    params = HWParams(4)
    lhs = j_twisted(params, (1, 0)) @ j_twisted(params, (0, 1))
    rhs = j_twisted(params, (1, 1)).scalar_mul(CycNum.root(4, -1))
    assert mat_eq(lhs, rhs).equal
    assert abs(CycNum.root(4, -1).to_complex() - (-1j)) < 1e-15


@pytest.mark.parametrize("n,p", [(1, 1), (2, 1), (2, 3), (3, 5)])
def test_twisted_matches_product_form(n, p):
    params = HWParams(2**n, p)
    N = params.N
    pts = [(r, s) for r in range(N) for s in range(N)]
    if n == 3:
        pts = pts[:: max(1, len(pts) // 16)]
    for r, s in pts:
        assert mat_eq(j_twisted(params, (r, s)), j_twisted_product(params, (r, s))).equal


def test_twisted_dagger_is_inverse_point():
    params = HWParams(4, 3)
    for r in range(4):
        for s in range(4):
            got = j_twisted(params, (r, s)).dagger()
            want = j_twisted(params, (-r, -s))
            assert mat_eq(got, want).equal


def test_twisted_periodicity():
    params = HWParams(4)
    assert mat_eq(j_twisted(params, (5, 7)), j_twisted(params, (1, 3))).equal


def test_twisted_backend_agreement():
    params = HWParams(8, 3)
    for r, s in [(1, 0), (0, 1), (3, 5), (7, 7)]:
        a = j_twisted(params, (r, s), backend="exact").to_complex_array()
        b = j_twisted(params, (r, s), backend="float").to_complex_array()
        assert np.max(np.abs(a - b)) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_twisted_support_reduces_like_the_mod_formula(n):
    # the support formula reduced by `& (N - 1)` against the same formula
    # reduced by `% N`, at every point at once and at one point given as
    # ints: the same columns and exponents, in the same dtypes
    N = 2**n
    k1, k2 = np.divmod(np.arange(N * N), N)
    r, s = np.divmod(np.arange(N * N), N)
    for p in range(1, N, 2):

        def mod_formula(r, s):
            r, s = np.asarray(r)[..., None], np.asarray(s)[..., None]
            cols = N * ((k1 - r) % N) + (k2 - r) % N
            return cols, (p * (-s * r + (k1 + k2) * s)) % N

        for point in ((r, s), (1, N - 1)):
            got, want = _twisted_support(HWParams(N, p), *point), mod_formula(*point)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), (n, p, point)
