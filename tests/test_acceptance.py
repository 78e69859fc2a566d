"""End-to-end acceptance scan: one test per headline property.

Each test drives the verification suites or the module APIs at the
documented desk-scale parameters, asserts the stated tolerance (zero
deviation wherever the exact backend applies), and enforces its own
runtime budget.  Run with -v for the per-criterion pass/fail lines.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fqmrep
from fqmrep.harness import SuiteSpec, run_suite
from fqmrep.heisenberg import HWParams, fourier, gamma_p, p_inv_matrix, p_matrix, q_matrix
from fqmrep.magnetic import j_twisted
from fqmrep.matrixcore import OpMatrix, mat_eq, twist_perm
from fqmrep.metaplectic import u_d, u_general, u_s, u_t, weil_odd_general
from fqmrep.sl2 import SL2Element, enumerate_sl2, sample_sl2
from fqmrep.weilmod import (
    chirp,
    chirp_wrap_sign,
    feichtinger_u,
    find_nonhom_witness,
    find_theta_witness,
    theta_defect,
)


def _odd_ps(N):
    return range(1, max(N, 2), 2)


def _done(label, t0, budget):
    dt = time.perf_counter() - t0
    assert dt < budget, f"{label} took {dt:.1f}s, budget {budget}s"
    print(f"{label}: PASS ({dt:.1f}s)")


def test_criterion_01_heisenberg_identities():
    # commutation, orders, Fourier conjugation exact for n <= 3 and all
    # odd p; commutator law exhaustive at n <= 2 (4096 / 262144 pairs,
    # counted over the doubled index range), 1000 seeded pairs at n = 3
    t0 = time.perf_counter()
    expected = {1: 4096, 2: 262144}
    for n in (1, 2):
        for p in _odd_ps(2**n):
            rep = run_suite(SuiteSpec("heisenberg", {"n": n, "p": p}))
            assert rep.passed
            assert rep.max_abs_deviation == 0.0
            assert rep.params["backend"] == "exact"
            assert rep.checks_run - 4 == expected[n]
    for p in _odd_ps(8):
        rep = run_suite(SuiteSpec("heisenberg", {"n": 3, "p": p, "samples": 1000}))
        assert rep.passed
        assert rep.max_abs_deviation == 0.0
        assert rep.checks_run - 4 == 1000
    _done("criterion 1 heisenberg", t0, 30)


def test_criterion_02_twisted_cocycle():
    # cocycle product law and dagger(J) == J[-l], exhaustive, exact
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        N = 2**n
        for p in _odd_ps(N):
            rep = run_suite(SuiteSpec("cocycle-twisted", {"n": n, "p": p}))
            assert rep.passed
            assert rep.max_abs_deviation == 0.0
            assert rep.checks_run == N**2 + N**4
    _done("criterion 2 twisted cocycle", t0, 60)


def test_criterion_03_metaplectic_property():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        for p in _odd_ps(2**n):
            rep = run_suite(SuiteSpec("metaplectic", {"n": n, "p": p}))
            assert rep.passed
            assert rep.max_abs_deviation == 0.0
            assert rep.checks_run == 2 * 4**n
    # the general map on 200 seeded elements per modulus
    for n in (2, 3):
        rep = run_suite(SuiteSpec("metaplectic", {"n": n, "p": 1, "samples": 200}))
        assert rep.passed
        assert rep.max_abs_deviation == 0.0
    _done("criterion 3 metaplectic property", t0, 120)


def test_criterion_04_exactness():
    # the central claim: U(A)U(B) == U(AB) with no cocycle phase
    t0 = time.perf_counter()
    rep = run_suite(SuiteSpec("homomorphism", {"N": 4}))
    assert rep.passed
    assert rep.checks_run == 2304
    assert rep.params["mode"] == "exhaustive"
    assert rep.max_abs_deviation == 0.0
    rep = run_suite(SuiteSpec("homomorphism", {"N": 8, "samples": 500}))
    assert rep.passed
    assert rep.checks_run == 500
    assert rep.max_abs_deviation == 0.0
    rep = run_suite(SuiteSpec("homomorphism", {"N": 16, "samples": 500}))
    assert rep.passed
    assert rep.checks_run == 500
    assert rep.params["backend"] == "float"
    assert rep.max_abs_deviation <= 1e-9
    _done("criterion 4 exactness", t0, 300)


def test_exact_homomorphism_mod16_within_budget():
    # U(A)U(B) == U(AB) exactly at N = 16 (dim 256) on 100 seeded pairs,
    # decided on the builders' factor and support tables, each pair with a
    # c = 0 side on exponent indexes and the others from J-covariance and
    # the first 16 columns; 0.18-0.30 s measured on a 2-vCPU box (two
    # batched stages one whole slot at a time: 0.4-0.7 s; dense int64
    # tables, odd-c stages and dense slot products: 0.8-1.2 s; whole
    # evaluations and one stacked product per pair: 2.2-2.6 s)
    t0 = time.perf_counter()
    rep = run_suite(SuiteSpec("homomorphism", {"N": 16, "samples": 100, "backend": "exact"}))
    assert rep.passed
    assert rep.checks_run == 100
    assert rep.max_abs_deviation == 0.0
    _done("exact homomorphism N = 16", t0, 10)


def _fresh_python(code, *args):
    # the JSON that `code` prints, run in a fresh process on this checkout's fqmrep
    path = [str(Path(fqmrep.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    return json.loads(proc.stdout)


def _fresh_run(suite, params):
    """(passed, checks_run, max_abs_deviation, peak KiB, suite seconds, report
    sha256) of one suite run in a fresh process.  The peak is the child's
    VmHWM: its ru_maxrss would carry this test process's own peak, which
    Linux keeps across the fork and exec."""
    code = (
        "import hashlib, json, re, sys\n"
        "from fqmrep.harness import SuiteSpec, run_suite\n"
        "rep = run_suite(SuiteSpec(sys.argv[1], json.loads(sys.argv[2])))\n"
        "peak = int(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])\n"
        "digest = hashlib.sha256(rep.to_json().encode()).hexdigest()\n"
        "print(json.dumps([rep.passed, rep.checks_run, rep.max_abs_deviation, peak,\n"
        "                  rep.runtime_ms / 1000, digest]))\n"
    )
    return _fresh_python(code, suite, json.dumps(params))


def _fresh_seconds(calls):
    """(seconds, passed) of suite calls in a fresh process, from the first call
    to the last report (the import is not timed)."""
    code = (
        "import json, sys, time\n"
        "from fqmrep.harness import SuiteSpec, run_suite\n"
        "t0 = time.perf_counter()\n"
        "reps = [run_suite(SuiteSpec(*call)) for call in json.loads(sys.argv[1])]\n"
        "print(json.dumps([time.perf_counter() - t0, all(rep.passed for rep in reps)]))\n"
    )
    return _fresh_python(code, json.dumps(calls))


def test_exact_homomorphism_mod32_memory_gate():
    # U(A)U(B) == U(AB) exactly at N = 32 (dim 1,024, L = 16) on 3 seeded
    # pairs, in a fresh process; 0.10-0.13 s of suite time and 63 MB
    # measured on a 2-vCPU box, most of the memory the run's J table (whole
    # slots in stages: 0.4 s and 58 MB; dense int64 tables and dense slot
    # products: 1.2-2.0 s and 121-134 MB; whole (L, dim, dim) evaluations:
    # 3.6 s and 827 MB)
    t0 = time.perf_counter()
    params = {"N": 32, "samples": 3, "seed": 7, "backend": "exact"}
    passed, checks, deviation, peak_kib, *_ = _fresh_run("homomorphism", params)
    assert passed and checks == 3 and deviation == 0.0
    assert peak_kib <= 250 * 1024, f"peak RSS {peak_kib / 1024:.0f} MB, gate 250 MB"
    _done("exact homomorphism N = 32", t0, 8)


def test_exact_homomorphism_mod32_fresh_gate():
    # U(A)U(B) == U(AB) exactly at N = 32 on 100 seeded pairs, in a fresh
    # process: the J table's cocycle once, each element at its two generator
    # points, and each factor pair from the first 32 columns of X Y, its
    # report pinned; 1.9-2.3 s of suite time and 63 MB measured on a 2-vCPU
    # box (two batched stages over whole slots: 13-14 s and 58 MB)
    t0 = time.perf_counter()
    params = {"N": 32, "samples": 100, "backend": "exact"}
    passed, checks, deviation, peak_kib, seconds, digest = _fresh_run("homomorphism", params)
    assert passed and checks == 100 and deviation == 0.0
    assert digest.startswith("fd5fa2aea27862f3")
    assert seconds <= 6.0, f"suite took {seconds:.2f}s, budget 6s"
    assert peak_kib <= 90 * 1024, f"peak RSS {peak_kib / 1024:.0f} MB, gate 90 MB"
    _done("exact homomorphism N = 32, 100 samples", t0, 15)


def test_exact_homomorphism_mod64_fresh_gate():
    # U(A)U(B) == U(AB) exactly at N = 64 (dim 4,096) on 3 seeded pairs, in a
    # fresh process: the cocycle lemma on the J's written two r-rows a
    # block, each element at its two generator points, each factor pair
    # from the first 64 columns, its report pinned; 1.6-2.8 s of suite time
    # and 124 MB measured on a 2-vCPU box (the J's as one int64 table, then
    # narrowed: 3.8-3.9 s and 476 MB)
    t0 = time.perf_counter()
    params = {"N": 64, "samples": 3, "seed": 7, "backend": "exact"}
    passed, checks, deviation, peak_kib, seconds, digest = _fresh_run("homomorphism", params)
    assert passed and checks == 3 and deviation == 0.0
    assert digest.startswith("32291d0513288c21")
    assert seconds <= 8.0, f"suite took {seconds:.2f}s, budget 8s"
    assert peak_kib <= 150 * 1024, f"peak RSS {peak_kib / 1024:.0f} MB, gate 150 MB"
    _done("exact homomorphism N = 64", t0, 20)


def test_exact_metaplectic_mod16_within_budget():
    # J U(A) == U(A) J_{(r,s)A} exactly at N = 16 (dim 256) for S, T and 20
    # seeded elements, each decided at its two generator points on U's
    # exponent index; 0.04 s measured on a 2-vCPU box (every point on
    # exponent codes: 0.6-0.7 s; codes decoded from U's coefficient tensor:
    # 0.8-0.9 s; the coefficient-roll kernel: 4.3 s)
    t0 = time.perf_counter()
    rep = run_suite(SuiteSpec("metaplectic", {"n": 4, "p": 1, "samples": 20}))
    assert rep.passed
    assert rep.checks_run == 22 * 256
    assert rep.max_abs_deviation == 0.0
    _done("exact metaplectic N = 16", t0, 3)


def test_exact_metaplectic_mod32_fresh_gate():
    # J U(A) == U(A) J_{(r,s)A} exactly at N = 32 (dim 1,024) for S, T and 2
    # seeded elements, in a fresh process: the twisted cocycle at the 2N^2
    # generator pairs once, then each element at its two generator points
    # on U's exponent index; 0.09-0.13 s and 61 MB measured on a 2-vCPU box
    # (every point on order-layer exponent codes: 5.9-8.5 s and 149 MB)
    t0 = time.perf_counter()
    params = {"n": 5, "p": 1, "samples": 2, "seed": 7}
    passed, checks, deviation, peak_kib, seconds, digest = _fresh_run("metaplectic", params)
    assert passed and checks == 4 * 1024 and deviation == 0.0
    assert digest.startswith("8816be7be9b9f30c")
    assert seconds <= 1.0, f"suite took {seconds:.2f}s, budget 1s"
    assert peak_kib <= 90 * 1024, f"peak RSS {peak_kib / 1024:.0f} MB, gate 90 MB"
    _done("exact metaplectic N = 32", t0, 10)


def test_exact_metaplectic_mod64_fresh_gate():
    # J U(A) == U(A) J_{(r,s)A} exactly at N = 64 (dim 4,096) for S, T and 2
    # seeded elements, in a fresh process: the cocycle lemma on the J's
    # written two r-rows a block, then each element at its two generator
    # points, four J's written for each, a block of U's index rows at a
    # time; 0.8-1.3 s of suite time and 57 MB measured on a 2-vCPU box (the
    # J's as one int64 table and whole-index temporaries: 2.1-2.5 s and
    # 493 MB)
    t0 = time.perf_counter()
    params = {"n": 6, "p": 1, "samples": 2, "seed": 7}
    passed, checks, deviation, peak_kib, seconds, digest = _fresh_run("metaplectic", params)
    assert passed and checks == 4 * 4096 and deviation == 0.0
    assert digest.startswith("b21c0a854f72a4b2")
    assert seconds <= 5.0, f"suite took {seconds:.2f}s, budget 5s"
    assert peak_kib <= 90 * 1024, f"peak RSS {peak_kib / 1024:.0f} MB, gate 90 MB"
    _done("exact metaplectic N = 64", t0, 15)


def test_exact_cocycle_twisted_mod16_within_budget():
    # the twisted cocycle and dagger laws exactly at N = 16 (dim 256, the
    # last uint8 column; 65,536 pairs and 256 points), proven by the cocycle
    # lemma from the 512 generator pairs of the J table; 3.2-4.2 ms measured
    # for both p on a 2-vCPU box (every pair on the 16-row factors of the
    # table's Kronecker form: 17-20 ms; on all 256 rows: 0.19-0.25 s; int64
    # exponents: 0.6-0.8 s)
    t0 = time.perf_counter()
    for p in (1, 15):
        rep = run_suite(SuiteSpec("cocycle-twisted", {"n": 4, "p": p, "backend": "exact"}))
        assert rep.passed
        assert rep.checks_run == 16**2 + 16**4
        assert rep.max_abs_deviation == 0.0
    _done("exact cocycle-twisted N = 16", t0, 0.8)


def test_exact_cocycle_twisted_mod32_fresh_gate():
    # the twisted cocycle and dagger laws exactly at N = 32 (dim 1,024;
    # 1,048,576 pairs and 1,024 points), in a fresh process: proven by the
    # cocycle lemma from the 2,048 generator pairs of the J table; 0.034-
    # 0.044 s and 60 MB measured on a 2-vCPU box (every pair on the 32-row
    # factors of the table's Kronecker form: 0.23 s and 69 MB)
    t0 = time.perf_counter()
    params = {"n": 5, "p": 1, "backend": "exact"}
    passed, checks, deviation, peak_kib, seconds, digest = _fresh_run("cocycle-twisted", params)
    assert passed and checks == 1_049_600 and deviation == 0.0
    assert digest.startswith("5d90f4cc7e6cfa57")
    assert seconds <= 0.3, f"suite took {seconds:.2f}s, budget 0.3s"
    assert peak_kib <= 70 * 1024, f"peak RSS {peak_kib / 1024:.0f} MB, gate 70 MB"
    _done("exact cocycle-twisted N = 32", t0, 10)


def test_float_feichtinger_defect_mod16_fresh_gate():
    # the float feichtinger-defect suite at N = 16 (48 seeded elements, the
    # 65,536-pair pi law, the witness search) in a fresh process: one
    # character scan over the 48 U's, one element a block (U pi U^-1 has
    # 65,536 entries, past `_FLOAT_BLOCK`), the 1,000 seeded quadruples drawn
    # once; 0.37-0.48 s and 41 MB measured on a 2-vCPU box (one extract_psi
    # per element, each redrawing its quadruples: 0.59-0.64 s and 41 MB)
    t0 = time.perf_counter()
    passed, checks, deviation, peak_kib, seconds, digest = _fresh_run("feichtinger-defect", {"N": 16})
    assert passed and checks == 65_842 and deviation <= 1e-9
    assert digest.startswith("c81bba487fd4016c")
    assert seconds <= 1.5, f"suite took {seconds:.2f}s, budget 1.5s"
    assert peak_kib <= 60 * 1024, f"peak RSS {peak_kib / 1024:.0f} MB, gate 60 MB"
    _done("float feichtinger-defect N = 16", t0, 10)


def test_criterion_05_decomposition_consistency():
    # closed forms equal generator-word products; the even-d branch
    # raises unless exactly one sign candidate reproduces A, so a
    # passing suite certifies the uniqueness claim per element
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        rep = run_suite(SuiteSpec("decomposition", {"n": n, "samples": 200}))
        assert rep.passed
        assert rep.checks_run == 200
        assert rep.max_abs_deviation == 0.0
    _done("criterion 5 decomposition", t0, 60)


def test_exact_decomposition_mod16_memory_gate():
    # closed form == generator word product exactly at N = 16 (dim 256) on 50
    # seeded elements, each proven by a chain of pair laws on the closed-form
    # tables, in a fresh process; 1.1 s and 35 MB measured on a 2-vCPU box
    # (S-power tables rebuilt per sample, dense int64 tables: 2.2-2.4 s and
    # 37 MB; dense word products: 4.7-5.2 s and 373 MB)
    t0 = time.perf_counter()
    params = {"n": 4, "samples": 50, "seed": 7, "backend": "exact"}
    passed, checks, deviation, peak_kib, *_ = _fresh_run("decomposition", params)
    assert passed and checks == 50 and deviation == 0.0
    assert peak_kib <= 100 * 1024, f"peak RSS {peak_kib / 1024:.0f} MB, gate 100 MB"
    _done("exact decomposition N = 16", t0, 5)


def test_exact_decomposition_mod32_within_budget():
    # closed form == generator word product exactly at N = 32 (dim 1,024) on
    # 10 seeded elements in a fresh process, every chain step with a c = 0
    # side decided on its exponent indexes; 1.2-1.8 s and 73 MB measured on
    # a 2-vCPU box (c = 0 sides gathered at every slot: 8.6 s and 73 MB)
    t0 = time.perf_counter()
    params = {"n": 5, "samples": 10, "seed": 7, "backend": "exact"}
    passed, checks, deviation, peak_kib, *_ = _fresh_run("decomposition", params)
    assert passed and checks == 10 and deviation == 0.0
    assert peak_kib <= 100 * 1024, f"peak RSS {peak_kib / 1024:.0f} MB, gate 100 MB"
    _done("exact decomposition N = 32", t0, 5)


def test_criterion_06_group_relations():
    t0 = time.perf_counter()
    for N in (4, 8):
        pr = HWParams(N, 1)
        US, UT = u_s(pr), u_t(pr)
        eye = OpMatrix.identity(N * N, "exact", order=max(N, 8))
        assert mat_eq(US**4, eye).equal
        assert mat_eq((US @ UT) ** 6, eye).equal
        assert mat_eq(UT**N, eye).equal
        # dilatation relation images
        assert mat_eq(US @ US, u_d(pr, N - 1)).equal
        for a in range(1, N, 2):
            a_inv = pow(a, -1, N)
            UD = u_d(pr, a)
            assert mat_eq(UD @ UT, UT ** (a * a) @ UD).equal
            assert mat_eq(US @ UD, u_d(pr, a_inv) @ US).equal
    for n in (1, 2, 3):
        # the twist factorization holds for the p=1 Fourier kernel
        pr = HWParams(2**n, 1)
        N = pr.N
        tw = twist_perm(N, "exact", order=max(2 * N, 8))
        F = fourier(pr)
        assert mat_eq(u_s(pr), tw @ F.kron(F)).equal
        for p in _odd_ps(2**n):
            pr = HWParams(2**n, p)
            US = u_s(pr)
            Q, P = q_matrix(pr), p_matrix(pr)
            eye = OpMatrix.identity(N, "exact", order=max(N, 8))
            assert mat_eq(US.dagger() @ Q.kron(eye) @ US, eye.kron(P)).equal
            assert mat_eq(US.dagger() @ eye.kron(Q) @ US, P.kron(eye)).equal
    _done("criterion 6 group relations", t0, 60)


def test_criterion_07_odd_prime_weil():
    t0 = time.perf_counter()
    for N in (3, 5, 7):
        rep = run_suite(SuiteSpec("weil-odd", {"N": N}))
        assert rep.passed
        assert rep.max_abs_deviation <= 1e-9
    # phase-defect table over all pairs: tr(U(AB)^dagger U(A) U(B)) / N
    # would be the cocycle phase; an exact representation pins it at 1
    for N in (3, 5):
        elems = enumerate_sl2(N)
        mats = {A.entries(): weil_odd_general(N, A).to_complex_array() for A in elems}
        worst = 0.0
        for A in elems:
            for B in elems:
                phase = np.trace(mats[(A * B).entries()].conj().T @ mats[A.entries()] @ mats[B.entries()]) / N
                worst = max(worst, abs(phase - 1))
        print(f"  phase-defect table N={N}: max |phase - 1| = {worst:.3e} over {len(elems)**2} pairs")
        assert worst <= 1e-9
    _done("criterion 7 odd-prime weil", t0, 120)


def test_float_weil_odd_and_cocycle_odd_mod7_within_budget():
    # weil-odd N = 7 (16,464 conjugations scanned on one stack of all 336
    # U(A)) and cocycle-odd N = 7 (dagger and torus laws on the stack of
    # the 49 J's), the fastest of three fresh processes; 0.041-0.069 s a
    # process measured on a 2-vCPU box over 30 processes (one U and one
    # verify_metaplectic per element, one product per pair: 0.083-0.145 s)
    t0 = time.perf_counter()
    runs = [_fresh_seconds([["weil-odd", {"N": 7}], ["cocycle-odd", {"N": 7}]]) for _ in range(3)]
    assert all(passed for _, passed in runs)
    fastest = min(seconds for seconds, _ in runs)
    assert fastest < 0.075, f"fastest fresh run {fastest:.3f}s, budget 0.075s"
    _done("float weil-odd and cocycle-odd N = 7", t0, 10)


def test_criterion_08_quadratic_module_properness():
    t0 = time.perf_counter()
    for n in (1, 2, 3):
        rep = run_suite(SuiteSpec("quadratic-module", {"n": n}))
        assert rep.passed
    _done("criterion 8 quadratic module", t0, 30)


def test_criterion_09_feichtinger_defect():
    t0 = time.perf_counter()
    for N in (3, 5, 7, 9):
        assert all(
            theta_defect(N, c1, c2) == 1
            for c1 in range(2 * N)
            for c2 in range(2 * N)
        )
    assert theta_defect(2, 2, 2) == -1
    for N in (2, 4, 6, 8):
        witness = find_theta_witness(N)
        assert witness is not None
        assert theta_defect(N, *witness) == -1
    # chirp composition with the wrap sign, entrywise
    for N in range(2, 9):
        k = np.arange(N)
        for c1 in range(N):
            for c2 in range(N):
                lhs = (chirp(N, c1) @ chirp(N, c2)).to_complex_array()
                sign = float(chirp_wrap_sign(N, c1, c2))
                rhs = (sign ** (k * k))[:, None] * chirp(N, (c1 + c2) % N).to_complex_array()
                assert np.abs(lhs - rhs).max() <= 1e-9
    # a concrete pair no global phase can repair
    for N in (2, 4):
        witness = find_nonhom_witness(N)
        assert witness is not None
        assert witness["defect_norm"] > 0.1
        A = SL2Element(*witness["pair"][0], N)
        B = SL2Element(*witness["pair"][1], N)
        got = (feichtinger_u(N, A) @ feichtinger_u(N, B)).to_complex_array()
        want = feichtinger_u(N, A * B).to_complex_array()
        for phase in np.exp(2j * np.pi * np.arange(720) / 720):
            assert np.abs(got - phase * want).max() > 0.1
    _done("criterion 9 feichtinger defect", t0, 60)


def test_criterion_10_backend_agreement():
    t0 = time.perf_counter()

    def agree(exact, floaty):
        dev = np.abs(exact.to_complex_array() - floaty.to_complex_array()).max()
        assert dev <= 1e-9

    for n in (1, 2, 3):
        N = 2**n
        for p in _odd_ps(N):
            pr = HWParams(N, p)
            for fn in (q_matrix, p_matrix, p_inv_matrix, fourier, u_s, u_t):
                agree(fn(pr, "exact"), fn(pr, "float"))
            for a in range(1, N, 2):
                agree(u_d(pr, a, "exact"), u_d(pr, a, "float"))
            triples = (
                [(m, r, s) for m in range(N) for r in range(N) for s in range(N)]
                if n <= 2
                else [(m, r, s) for m in range(0, N, 3) for r in range(0, N, 2) for s in range(N)]
            )
            for m, r, s in triples:
                agree(gamma_p(pr, m, r, s, "exact"), gamma_p(pr, m, r, s, "float"))
            for r in range(N):
                for s in range(N):
                    agree(j_twisted(pr, (r, s), backend="exact"),
                          j_twisted(pr, (r, s), backend="float"))
        for A in sample_sl2(N, 20, seed=2):
            pr = HWParams(N, 1)
            agree(u_general(pr, A, "exact"), u_general(pr, A, "float"))
    _done("criterion 10 backend agreement", t0, 120)
