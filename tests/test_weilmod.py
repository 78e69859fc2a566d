"""Tests for the quadratic-module Gauss sums and chirp comparison operators."""

import itertools
import math
import random

import numpy as np
import pytest

from fqmrep.exactnum import NotAUnit
from fqmrep.harness import SuiteSpec, run_suite
from fqmrep.heisenberg import HWParams, p_matrix, q_matrix
from fqmrep.matrixcore import OpMatrix, mat_eq
from fqmrep.metaplectic import u_d, u_s, u_t_pow
from fqmrep.sl2 import SL2Element, enumerate_sl2, sample_sl2
from fqmrep.weilmod import (
    CharacterSample,
    IllFormed,
    NotMetaplectic,
    QuadraticModule,
    alpha_q,
    chirp,
    chirp_wrap_sign,
    extract_psi,
    feichtinger_u,
    find_nonhom_witness,
    find_theta_witness,
    generator_defect,
    pi_shift,
    theta_defect,
    weil_generator_action,
    _character_scan,
)

TOL = 1e-9


# -- quadratic module and Gauss sums ------------------------------------


def test_quadratic_module_rejects_bad_modulus():
    for bad in (1, 3, 6, 12):
        with pytest.raises(ValueError):
            QuadraticModule(bad)


def test_quadratic_module_numerators():
    qm = QuadraticModule(4)
    assert qm.size == 16
    assert qm.q((1, 2)) == 2
    assert qm.q((3, 3)) == 1
    assert qm.b((1, 0), (0, 1)) == 1
    # polarization numerator is x1 y2 + x2 y1, exhaustively at N = 4
    for x1 in range(4):
        for x2 in range(4):
            for y1 in range(4):
                for y2 in range(4):
                    assert qm.b((x1, x2), (y1, y2)) == (x1 * y2 + x2 * y1) % 4


@pytest.mark.parametrize("N", [2, 4, 8])
def test_quadratic_module_is_even_and_b_is_its_bilinear_polarization(N):
    # over every x, y in Z_N^2: Q(-x) = Q(x), B = Q(x+y) - Q(x) - Q(y) is
    # symmetric, and B is additive in each argument over every x, x', y
    qm = QuadraticModule(N)
    points = list(itertools.product(range(N), repeat=2))
    for x in points:
        assert qm.q((-x[0] % N, -x[1] % N)) == qm.q(x)
    B = np.array([[qm.b(x, y) for y in points] for x in points])
    Q = np.array([qm.q(x) for x in points])
    x1, x2 = np.divmod(np.arange(N * N), N)
    total = N * ((x1[:, None] + x1) % N) + (x2[:, None] + x2) % N
    assert np.array_equal(B, (Q[total] - Q[:, None] - Q) % N)
    assert np.array_equal(B, B.T)
    # B(x + x', y) = B(x, y) + B(x', y); the second argument follows by symmetry
    assert np.array_equal(B[total], (B[:, None, :] + B[None, :, :]) % N)


@pytest.mark.parametrize("N", [2, 4, 8, 16])
def test_q_all_is_q_at_each_composite_index(N):
    qm = QuadraticModule(N)
    got = qm.q_all()
    assert got.dtype == np.int64
    assert got.tolist() == [qm.q(divmod(k, N)) for k in range(N * N)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_alpha_q_is_one_on_units(n):
    # the inner geometric sum kills every x1 != 0 column
    qm = QuadraticModule(2**n)
    for a in range(1, 2**n, 2):
        assert abs(alpha_q(qm, a) - 1) < 1e-10


def test_alpha_q_rejects_nonunit():
    qm = QuadraticModule(4)
    with pytest.raises(NotAUnit):
        alpha_q(qm, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_alpha_properness_product(n):
    N = 2**n
    qm = QuadraticModule(N)
    units = range(1, N, 2)
    lhs_ref = alpha_q(qm, 1)
    for a in units:
        for b in units:
            assert abs(alpha_q(qm, a) * alpha_q(qm, b) - lhs_ref * alpha_q(qm, a * b)) < 1e-10


# -- generator images ----------------------------------------------------


def test_gamma_t_frozen_n1():
    got = weil_generator_action(QuadraticModule(2), "T").to_complex_array()
    assert np.abs(got - np.diag([1, 1, 1, -1])).max() < 1e-12


def test_gamma_sinv_frozen_entry_n1():
    got = weil_generator_action(QuadraticModule(2), "Sinv").to_complex_array()
    # entry at x = y = (1, 1): (1/2) omega_2^{1 + 1} = 1/2
    assert abs(got[3, 3] - 0.5) < 1e-12
    assert abs(got[0, 0] - 0.5) < 1e-12
    assert abs(got[3, 1] + 0.5) < 1e-12


@pytest.mark.parametrize("N", [2, 4, 8, 16])
def test_gamma_sinv_matches_the_polarization_double_loop(N):
    # the vectorised B table equals qm.b over every pair (x, y): the same
    # exponents, so the same bits
    qm = QuadraticModule(N)
    x1, x2 = np.divmod(np.arange(qm.size), N)
    points = list(zip(x1.tolist(), x2.tolist()))
    exps = np.array([[qm.b(x, y) for y in points] for x in points])
    want = OpMatrix.from_phase_table(N, exps, scale_pow2=N.bit_length() - 1, backend="float")
    want = want.scalar_mul(alpha_q(qm, -1))
    got = weil_generator_action(qm, "Sinv")
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def test_gamma_d_identity():
    for n in (1, 2):
        got = weil_generator_action(QuadraticModule(2**n), "D", a=1)
        eye = OpMatrix.identity(4**n, "float")
        assert mat_eq(got, eye, TOL).equal


def test_gamma_d_requires_argument():
    with pytest.raises(ValueError):
        weil_generator_action(QuadraticModule(4), "D")
    with pytest.raises(NotAUnit):
        weil_generator_action(QuadraticModule(4), "D", a=2)
    with pytest.raises(ValueError):
        weil_generator_action(QuadraticModule(4), "F")


def test_gamma_sinv_fourth_power_is_identity():
    # proportionality phase comes out exactly 1 at n = 2
    got = weil_generator_action(QuadraticModule(4), "Sinv")
    fourth = (got @ got @ got @ got).to_complex_array()
    assert np.abs(fourth - np.eye(16)).max() < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_defects_vanish(n):
    # measured correspondence: Gamma(T) = u(T)^-1, Gamma(S^-1) = u(S),
    # Gamma(D(a)) = u(D(a)), each with aligning phase exactly 1
    qm = QuadraticModule(2**n)
    probes = [("T", None), ("Sinv", None), ("D", 2**n - 1)]
    if n >= 2:
        probes.append(("D", 3))
    for kind, a in probes:
        rep = generator_defect(qm, kind, a)
        assert rep["defect"] < 1e-9, (kind, a, rep)
        assert abs(rep["phase"] - 1) < 1e-9, (kind, a, rep)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_float_partners_match_their_exact_twins(n):
    # generator_defect compares against float partners; each equals the
    # exact build of the same table to within a rounding of its entries.
    # The exact basis writes omega^11 as -omega^3 at N = 16, so the two
    # sides round different angles: 2 pi eps bounds the angle's rounding
    params = HWParams(2**n, 1)
    twins = [lambda backend: u_t_pow(params, -1, backend), lambda backend: u_s(params, backend)]
    twins += [lambda backend, a=a: u_d(params, a, backend) for a in range(1, 2**n, 2)]
    bound = 2 * np.pi * np.finfo(float).eps
    for build in twins:
        exact = build("exact")
        assert exact.backend == "exact"
        assert np.abs(build("float").data - exact.to_complex_array()).max() <= bound


def test_quadratic_module_run_builds_no_exact_matrix(monkeypatch):
    # every exact build goes through OpMatrix._scatter
    calls = []
    real = OpMatrix.__dict__["_scatter"].__func__

    def counting(cls, *args):
        calls.append(args[0])
        return real(cls, *args)

    monkeypatch.setattr(OpMatrix, "_scatter", classmethod(counting))
    rep = run_suite(SuiteSpec("quadratic-module", {"n": 3}))
    assert rep.passed and rep.checks_run == 90
    assert calls == []


# -- time-frequency shifts ----------------------------------------------


def test_pi_shift_identity():
    assert mat_eq(pi_shift(5, 0, 0), OpMatrix.identity(5, "float"), TOL).equal


@pytest.mark.parametrize("N", [3, 4])
def test_pi_shift_matches_clock_and_shift(N):
    params = HWParams(N)
    P = p_matrix(params).to_complex_array()
    Q = q_matrix(params).to_complex_array()
    for r in range(N):
        for s in range(N):
            want = np.linalg.matrix_power(P, r) @ np.linalg.matrix_power(Q, s)
            got = pi_shift(N, r, s).to_complex_array()
            assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("N", [3, 4])
def test_pi_shift_cocycle_exhaustive(N):
    # pi(l) pi(l') = omega^{s r'} pi(l + l')
    for r in range(N):
        for s in range(N):
            left = pi_shift(N, r, s).to_complex_array()
            for rp in range(N):
                for sp in range(N):
                    got = left @ pi_shift(N, rp, sp).to_complex_array()
                    want = np.exp(2j * np.pi * s * rp / N) * pi_shift(
                        N, r + rp, s + sp
                    ).to_complex_array()
                    assert np.abs(got - want).max() < 1e-9


def test_pi_shift_inverse_relation_mod6():
    # pi(l)^-1 = omega^{s r} pi(-l), all 36 points
    N = 6
    for r in range(N):
        for s in range(N):
            inv = np.linalg.inv(pi_shift(N, r, s).to_complex_array())
            want = np.exp(2j * np.pi * s * r / N) * pi_shift(N, -r, -s).to_complex_array()
            assert np.abs(inv - want).max() < 1e-9


# -- chirps and the sign defect ------------------------------------------


def test_chirp_zero_is_identity():
    for N in (2, 5):
        assert mat_eq(chirp(N, 0), OpMatrix.identity(N, "float"), TOL).equal


def test_chirp_frozen_entries_n2():
    r1 = chirp(2, 1).to_complex_array()
    assert np.abs(r1 - np.diag([1, -1j])).max() < 1e-12
    # period in c is 2N, so the lift matters: R_2 != R_0
    r2 = chirp(2, 2).to_complex_array()
    assert np.abs(r2 - np.diag([1, -1])).max() < 1e-12


def test_theta_defect_pinned_values():
    # with N + 1 = 3 the exponent at (2, 2) is 2 + 2 - 1 = 3
    assert theta_defect(2, 2, 2) == -1
    assert theta_defect(4, 3, 3) == -1
    assert theta_defect(4, 1, 2) == 1


@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_theta_defect_trivial_for_odd(N):
    for c1 in range(2 * N):
        for c2 in range(2 * N):
            assert theta_defect(N, c1, c2) == 1


@pytest.mark.parametrize("N,expected", [(2, (2, 2)), (4, (3, 3)), (6, (4, 4)), (8, (5, 5))])
def test_theta_witness_even(N, expected):
    witness = find_theta_witness(N)
    assert witness == expected
    assert theta_defect(N, *witness) == -1


def test_theta_witness_absent_for_odd():
    assert find_theta_witness(3) is None
    assert find_theta_witness(7) is None


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 8])
def test_chirp_composition_entrywise(N):
    # R_[c1] R_[c2] = sign^{k^2} R_[c1+c2] with the wrap-carry sign
    k = np.arange(N)
    for c1 in range(N):
        for c2 in range(N):
            lhs = (chirp(N, c1) @ chirp(N, c2)).to_complex_array()
            sign = chirp_wrap_sign(N, c1, c2)
            rhs = (float(sign) ** (k * k))[:, None] * chirp(N, (c1 + c2) % N).to_complex_array()
            assert np.abs(lhs - rhs).max() < 1e-9, (N, c1, c2)


def test_wrap_sign_boundary_disagreement():
    # at [c1] + [c2] = N the mod-(N+1) residues miss the carry: the
    # printed exponent says +1 there while the entrywise law needs -1
    assert chirp_wrap_sign(4, 1, 3) == -1
    assert theta_defect(4, 1, 3) == 1
    assert chirp_wrap_sign(2, 1, 1) == -1
    assert theta_defect(2, 1, 1) == 1
    # away from the boundary the two agree
    for N in (2, 4, 6, 8):
        for c1 in range(N):
            for c2 in range(N):
                if (c1 + c2) % N != 0 or c1 + c2 == 0:
                    assert chirp_wrap_sign(N, c1, c2) == theta_defect(N, c1, c2)


# -- shear-reduced operators ----------------------------------------------


@pytest.mark.parametrize("N", [2, 3, 4, 5, 8])
def test_feichtinger_identity_is_identity(N):
    got = feichtinger_u(N, SL2Element.identity(N)).to_complex_array()
    assert np.abs(got - np.eye(N)).max() < 1e-12


def test_feichtinger_identity_psi_trivial():
    cs = extract_psi(feichtinger_u(4, SL2Element.identity(4)), SL2Element.identity(4))
    assert all(abs(v - 1) < 1e-9 for v in cs.values.values())
    assert cs.sigma() == (0, 0, 0, 0)


def test_feichtinger_unitary():
    for N in (2, 3, 4, 8):
        for A in sample_sl2(N, 6, seed=5):
            assert feichtinger_u(N, A).unitary_defect() < 1e-9


def test_feichtinger_t_conjugation_scan_mod4():
    # all 16 shifts conjugate to the mapped shift with unit scalars;
    # extract_psi additionally asserts the sigma relation on all 256
    # quadruples before returning
    T = SL2Element(1, 1, 0, 1, 4)
    cs = extract_psi(feichtinger_u(4, T), T)
    assert len(cs.values) == 16
    assert all(abs(abs(v) - 1) < 1e-10 for v in cs.values.values())


def test_feichtinger_conjugation_all_of_mod4():
    for A in enumerate_sl2(4):
        extract_psi(feichtinger_u(4, A), A)


def test_feichtinger_conjugation_sampled_mod8():
    for A in enumerate_sl2(8)[::29]:
        extract_psi(feichtinger_u(8, A), A)


@pytest.mark.parametrize("N", [3, 5])
def test_feichtinger_odd_modulus_conjugation(N):
    for A in sample_sl2(N, 8, seed=3):
        extract_psi(feichtinger_u(N, A), A)


def test_feichtinger_accepts_tuples():
    got = feichtinger_u(4, (1, 1, 0, 1))
    want = feichtinger_u(4, SL2Element(1, 1, 0, 1, 4))
    assert mat_eq(got, want, TOL).equal


def test_feichtinger_rejects_mixed_modulus():
    with pytest.raises(ValueError):
        feichtinger_u(4, SL2Element(1, 1, 0, 1, 8))


def test_feichtinger_ill_formed_mod6():
    # a + theta b lands on a zero divisor for exactly 36 of the 144
    with pytest.raises(IllFormed):
        feichtinger_u(6, SL2Element(1, 1, 1, 2, 6))
    count = 0
    for A in enumerate_sl2(6):
        try:
            feichtinger_u(6, A)
        except IllFormed:
            count += 1
    assert count == 36


def test_feichtinger_ill_formed_pins_are_well_formed_elsewhere():
    for N in (2, 3, 4, 5, 8):
        for A in enumerate_sl2(N):
            feichtinger_u(N, A)


def test_extract_psi_rejects_non_normalizer():
    bad = np.diag([1.0, 2.0, 1.0, 1.0])
    with pytest.raises(NotMetaplectic):
        extract_psi(bad, SL2Element.identity(4))


def test_extract_psi_identity_operator():
    cs = extract_psi(np.eye(4), SL2Element.identity(4))
    assert all(abs(v - 1) < 1e-12 for v in cs.values.values())


def _psi_per_point(U, A, tol=1e-9, samples=1000, seed=11):
    # extract_psi as a scan over (k, l) and the quadruples, one pi_shift each
    N = A.N
    Uc = np.asarray(U, dtype=complex)
    Ui = np.linalg.inv(Uc)
    pis = [[pi_shift(N, r, s).to_complex_array() for s in range(N)] for r in range(N)]
    a, b, c, d = A.entries()
    values = {}
    for k in range(N):
        for l in range(N):
            X = Uc @ pis[k][l] @ Ui
            Y = pis[(a * k + b * l) % N][(c * k + d * l) % N]
            nz = np.abs(Y).argmax()
            psi = X.flat[nz] / Y.flat[nz]
            if abs(abs(psi) - 1) > 1e-10 or np.abs(X - psi * Y).max() > tol:
                return f"no unit scalar at (k, l) = ({k}, {l}) for {A.entries()} mod {N}"
            values[(k, l)] = complex(psi)
    s00, s01, s10, s11 = (c * a) % N, (c * b) % N, (d * a - 1) % N, (d * b) % N
    if N <= 4:
        quads = itertools.product(range(N), repeat=4)
    else:
        rng = random.Random(seed)
        quads = [tuple(rng.randrange(N) for _ in range(4)) for _ in range(samples)]
    for k, l, kp, lp in quads:
        e = k * (s00 * kp + s01 * lp) + l * (s10 * kp + s11 * lp)
        lhs = values[((k + kp) % N, (l + lp) % N)]
        rhs = values[(k, l)] * values[(kp, lp)] * np.exp(2j * np.pi * e / N)
        if abs(lhs - rhs) > tol:
            return f"second-degree relation fails at {(k, l, kp, lp)} for {A.entries()}"
    return values


def _bits(values):
    return {kl: (v.real.hex(), v.imag.hex()) for kl, v in values.items()}


def test_extract_psi_matches_the_per_point_scan():
    # the stacked pis and the vectorized checks give the per-point values bit
    # for bit, and raise at the first failing (k, l) or quadruple in scan order
    rng = np.random.default_rng(31)
    messages = set()
    for N in (2, 3, 4, 5, 6, 8):
        elems = enumerate_sl2(N)
        for A in elems[:: max(1, len(elems) // 12)]:
            try:
                U = feichtinger_u(N, A).to_complex_array()
            except IllFormed:
                continue
            bent = U.copy()
            bent[rng.integers(N), rng.integers(N)] += 1e-3
            for V in (U, bent, U * np.exp(1j * rng.random((N, N)) * 1e-9)):
                want = _psi_per_point(V, A, samples=300)
                try:
                    got = _bits(extract_psi(V, A, samples=300).values)
                except NotMetaplectic as exc:
                    got = str(exc)
                assert got == (want if isinstance(want, str) else _bits(want)), (N, A)
                if isinstance(want, str):
                    messages.add(want.split(" at ")[0])
    assert messages == {"no unit scalar", "second-degree relation fails"}


def _scan_parity(stack, elems, samples=50):
    # `_character_scan` over the stack against one extract_psi call per
    # element: the same psi bits where it passes, the same message where it
    # raises; the verdicts, in element order.  50 quadruples past N = 4
    # (1,000 by default) keep the per-element loop's redraws short
    entries = np.array([A.entries() for A in elems]).T
    psi, faults = _character_scan(stack, entries, TOL, samples)
    for U, A, got, fault in zip(stack, elems, psi, faults):
        try:
            want = np.array(list(extract_psi(U, A, samples=samples).values.values()))
        except NotMetaplectic as exc:
            assert fault == str(exc), A.entries()
        else:
            assert fault is None and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return [fault is None for fault in faults]


@pytest.mark.parametrize("N", [2, 4, 8])
def test_character_scan_matches_extract_psi_per_element(N):
    # every element is well-formed at N = 2, 4, 8; the blocks of the stacked
    # scan (16 elements at N = 4, one at N = 8) give each element's verdict,
    # bits and message, clean and under three flaws
    elems = enumerate_sl2(N)
    stack = np.array([feichtinger_u(N, A).to_complex_array() for A in elems])
    assert all(_scan_parity(stack, elems))
    assert all(_scan_parity(stack * np.exp(0.7j), elems))  # a global phase
    bent = stack @ np.diag([2.0] + [1.0] * (N - 1))  # no normalizer of the shifts
    assert not any(_scan_parity(bent, elems))
    flipped = stack.copy()  # one entry of the first (dense) U of flipped sign
    flipped[0, 0, np.abs(flipped[0, 0]).argmax()] *= -1
    assert _scan_parity(flipped, elems) == [False] + [True] * (len(elems) - 1)
    # a stack of one raises extract_psi's message, in the per-point scan's words
    for V, A in ((bent[1], elems[1]), (flipped[0], elems[0])):
        with pytest.raises(NotMetaplectic) as exc:
            extract_psi(V, A)
        assert str(exc.value) == _psi_per_point(V, A)


def test_character_sample_rejects_off_circle():
    with pytest.raises(ValueError):
        CharacterSample(SL2Element.identity(2), {(0, 0): 1.0 + 0j, (0, 1): 0.5 + 0j})


def test_psi_uniqueness_up_to_phase():
    # a global phase leaves psi untouched; every nontrivial left
    # Heisenberg twist shows up as a nontrivial linear character, so
    # equal psi forces phase-equal operators within the twisted family
    N = 4
    for A in (SL2Element(1, 1, 0, 1, N), SL2Element(0, 3, 1, 0, N), SL2Element(3, 2, 3, 1, N)):
        U = feichtinger_u(N, A)
        base = extract_psi(U, A).values
        twisted = extract_psi(np.exp(0.7j) * U.to_complex_array(), A).values
        assert all(abs(twisted[kl] - base[kl]) < 1e-9 for kl in base)
        for r in range(N):
            for s in range(N):
                if (r, s) == (0, 0):
                    continue
                other = pi_shift(N, r, s).to_complex_array() @ U.to_complex_array()
                vals = extract_psi(other, A).values
                assert any(abs(vals[kl] - base[kl]) > 1e-6 for kl in base), (r, s)


# -- composition defect ----------------------------------------------------


def test_odd_modulus_composes_up_to_phase():
    for N in (3, 5):
        assert find_nonhom_witness(N) is None


def test_nonhom_witness_mod2_frozen():
    got = find_nonhom_witness(2)
    assert got["N"] == 2
    assert got["pair"] == [[0, 1, 1, 0], [0, 1, 1, 0]]
    assert abs(got["defect_norm"] - 2.0) < 1e-9


def test_nonhom_witness_mod4_frozen():
    got = find_nonhom_witness(4)
    assert got["pair"] == [[0, 1, 3, 0], [0, 1, 3, 0]]
    assert abs(got["defect_norm"] - 2 * math.sqrt(2)) < 1e-9
    # the witness is real: no global phase repairs this product
    A = SL2Element(0, 1, 3, 0, 4)
    X = feichtinger_u(4, A).to_complex_array()
    Y = feichtinger_u(4, A * A).to_complex_array()
    prod = X @ X
    for phi in np.linspace(0, 2 * np.pi, 720, endpoint=False):
        assert np.abs(prod - np.exp(1j * phi) * Y).max() > 0.4
