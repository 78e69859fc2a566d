"""Tests for the named verification suites."""

import json
import random
import weakref
from functools import cache

import numpy as np
import pytest

from fqmrep import harness, heisenberg, magnetic, matrixcore, metaplectic, report, weilmod
from fqmrep.exactnum import CycNum
from fqmrep.harness import (
    SUITE_NAMES,
    SuiteSpec,
    TooLarge,
    UnknownSuite,
    check_pair_law,
    run_suite,
)
from fqmrep.heisenberg import HWParams, p_matrix, q_matrix
from fqmrep.matrixcore import OpMatrix, mat_eq
from fqmrep.metaplectic import u_general
from fqmrep.report import VerifyReport
from fqmrep.sl2 import SL2Element, decompose, enumerate_sl2, sample_sl2, sl2_s, word_element


def _assert_same_json(got, want):
    # the parsed failure lists first, which pytest diffs briefly, then the
    # bytes: a long one-line string alone is diffed character by character
    assert json.loads(got)["failures"] == json.loads(want)["failures"]
    assert got == want


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        SuiteSpec("heisenburg", {})


def test_missing_modulus_rejected():
    with pytest.raises(ValueError):
        run_suite(SuiteSpec("heisenberg", {}))


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes_at_small_modulus(name):
    params = {"N": 3} if name in ("cocycle-odd", "weil-odd") else {"n": 1}
    if name == "feichtinger-defect":
        params = {"N": 2}
    rep = run_suite(SuiteSpec(name, params))
    assert rep.passed
    assert rep.checks_run > 0
    assert rep.suite == name
    assert rep.runtime_ms > 0.0


def test_homomorphism_exhaustive_count_mod_4():
    # 48^2 ordered pairs of SL2(Z4) elements, each one product check
    rep = run_suite(SuiteSpec("homomorphism", {"N": 4}))
    assert rep.passed
    assert rep.checks_run == 2304
    assert rep.params["mode"] == "exhaustive"
    assert rep.params["backend"] == "exact"
    assert rep.max_abs_deviation == 0.0


def test_sampled_homomorphism_keeps_few_operators_alive(monkeypatch):
    # a sampled pair uses its three U once, so at most 4 stay cached; each
    # built U is tracked by a weak reference to its entry array
    refs, alive = [], []

    def build(*args):
        alive.append(sum(r() is not None for r in refs))
        out = u_general(*args)
        refs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(harness, "u_general", build)
    rep = run_suite(SuiteSpec("homomorphism", {"N": 8, "samples": 50, "backend": "float"}))
    assert rep.passed and rep.params["mode"] == "sampled"
    assert len(refs) > 100
    assert max(alive) <= 4


def test_sampled_exact_homomorphism_keeps_few_tables_alive(monkeypatch):
    # a passing exact run decides every pair on the builders' evaluated
    # tables: at most 4 stay cached (each tracked by a weak reference to its
    # values), and no dense product or exact matrix is made
    refs, alive, builds = [], [], []

    def evaluate(table):
        alive.append(sum(r() is not None for r in refs))
        out = real(table)
        refs.append(weakref.ref(out.values))
        return out

    def refuse(*args, **kwargs):
        raise AssertionError("dense path on a passing run")

    def init(self, *args, **kwargs):
        builds.append(args)
        real_init(self, *args, **kwargs)

    real, real_init = harness._slot_table, OpMatrix.__init__
    monkeypatch.setattr(harness, "_slot_table", evaluate)
    monkeypatch.setattr(harness, "u_general", refuse)
    monkeypatch.setattr(matrixcore, "_ntt_matmul", refuse)
    monkeypatch.setattr(OpMatrix, "__init__", init)
    rep = run_suite(SuiteSpec("homomorphism", {"N": 8, "samples": 50}))
    assert rep.passed and rep.params["backend"] == "exact" and rep.params["mode"] == "sampled"
    assert rep.max_abs_deviation == 0.0
    assert len(refs) > 100
    assert max(alive) <= 4
    assert builds == []


def test_passing_exact_homomorphism_makes_no_dense_slot_product(monkeypatch):
    # exact N = 16 with 100 samples, as the budget test runs it: every pair
    # has a rule (a c = 0 side, X's stages or Y's transposed ones), so no
    # slot is a dense dim x dim product, and the report is the passing one
    routed, real = [], harness._phase_law

    def law(x, y, z):
        sides = (x.support, y.support, x.left, y.right)
        routed.append(any(side is not None for side in sides))
        return real(x, y, z)

    monkeypatch.setattr(harness, "_phase_law", law)
    rep = run_suite(SuiteSpec("homomorphism", {"N": 16, "samples": 100, "backend": "exact"}))
    assert len(routed) == 100 and all(routed)
    _assert_same_json(rep.to_json(), (
        '{"checks_run":100,"failures":[],"max_abs_deviation":0.0,"params":{"N":16,'
        '"backend":"exact","mode":"sampled","p":1,"samples":100,"seed":7},"passed":true,'
        '"suite":"homomorphism"}'
    ))


@pytest.mark.parametrize("suite,params", [
    ("decomposition", {"n": 3, "samples": 100, "backend": "exact"}),
    ("decomposition", {"n": 4, "samples": 20, "backend": "exact"}),
    ("homomorphism", {"N": 16, "samples": 100, "backend": "exact"}),
])
def test_passing_c0_laws_make_no_slot_product(suite, params, monkeypatch):
    # every `_phase_law` call with a c = 0 X or Y (a slot table read from a
    # `_SupportTable`) is decided on the exponent indexes: it holds, and it
    # makes no `_apply`, `_gather` or `_reduce` call; the report is the
    # passing one
    c0, slot_calls, laws = {}, [], []
    real_slot, real_law = harness._slot_table, harness._phase_law

    def slot(table):
        out = real_slot(table)
        c0[id(out)] = isinstance(table, matrixcore._SupportTable)
        return out

    def law(x, y, z):
        slot_calls.clear()
        held = real_law(x, y, z)
        if c0[id(x)] or c0[id(y)]:
            laws.append((held, list(slot_calls)))
        return held

    def spy(name, real):
        def call(*args, **kwargs):
            slot_calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("_apply", "_gather", "_reduce"):
        monkeypatch.setattr(matrixcore, name, spy(name, getattr(matrixcore, name)))
    monkeypatch.setattr(harness, "_slot_table", slot)
    monkeypatch.setattr(harness, "_phase_law", law)
    rep = run_suite(SuiteSpec(suite, params))
    assert rep.passed and rep.checks_run == params["samples"] and rep.max_abs_deviation == 0.0
    assert len(laws) >= 3 and laws == [(True, [])] * len(laws)


def _perturb_closed_form(monkeypatch, flaw):
    """Patch a builder whose tables both the pair kernels and the matrices
    read: entry (0, 0, 1) of the first factor of every d-even table moves
    its exponent by 1 (entry ((0, k2), (0, 1)) of the matrix for every k2),
    the cosets of indices 0 and 1 of every d-odd-sum table swap (d^-1 is
    odd, so they differ), row 1 of every c = 0 table with b != 0 moves its
    exponent by 1 (`support`, which U(T)^m reads too) or entry (0, 1) of
    u_s's own table moves its exponent by 1 (`u_s`).  Two flaws leave tables
    with no stages: index 0 of every d-odd-sum table moves to the next coset,
    so the cosets have unequal sizes (`cosets`), and every c-odd table is
    written dense with entry (0, 1) moved by 1 (`dense`)."""
    if flaw == "support":
        real = metaplectic._closed_triangular

        def perturbed(pr, A):
            table = real(pr, A)
            if A.b:
                table.exps[1] = (table.exps[1] + 1) % table.order
            return table

        monkeypatch.setattr(metaplectic, "_closed_triangular", perturbed)
    elif flaw == "u_s":
        real = metaplectic._s_table

        def perturbed(pr):
            table = real(pr)
            table.exps[0, 1] = (table.exps[0, 1] + 1) % table.order
            return table

        monkeypatch.setattr(metaplectic, "_s_table", perturbed)
        monkeypatch.setattr(harness, "_s_table", perturbed)
    elif flaw == "exponent":
        real = metaplectic._closed_c_odd

        def perturbed(pr, A):
            table = real(pr, A)
            if A.d % 2 == 0:
                table.a[0, 0, 1] = (table.a[0, 0, 1] + 1) % table.order
            return table

        monkeypatch.setattr(metaplectic, "_closed_c_odd", perturbed)
    elif flaw == "dense":
        real = metaplectic._closed_c_odd

        def perturbed(pr, A):
            table = matrixcore._phase_table(real(pr, A))
            table.exps[0, 1] = (table.exps[0, 1] + 1) % table.order
            return table

        monkeypatch.setattr(metaplectic, "_closed_c_odd", perturbed)
    elif flaw == "cosets":
        real = metaplectic._closed_odd_sum

        def perturbed(pr, A):
            table = real(pr, A)
            table.cosets[0] = (table.cosets[0] + 1) % table.g
            return table

        monkeypatch.setattr(metaplectic, "_closed_odd_sum", perturbed)
    else:
        real = metaplectic._closed_odd_sum

        def perturbed(pr, A):
            table = real(pr, A)
            table.cosets[[0, 1]] = table.cosets[[1, 0]]
            return table

        monkeypatch.setattr(metaplectic, "_closed_odd_sum", perturbed)


@pytest.mark.parametrize("flaw", ["exponent", "mask", "cosets", "dense"])
@pytest.mark.parametrize("params", [{"N": 2}, {"N": 4, "p": 3}, {"N": 8, "samples": 40},
                                    {"N": 16, "samples": 3, "backend": "exact"}])
def test_perturbed_builder_fails_like_the_per_pair_loop(flaw, params, monkeypatch):
    # every pair the kernel leaves goes to the dense per-pair compare, so the
    # failures and the deviation are the dense loop's; past one block (N =
    # 16) a table with no stages proves no pair that has no other rule
    _perturb_closed_form(monkeypatch, flaw)
    want = json.loads(_reference_json(monkeypatch, "homomorphism", params))
    got = json.loads(run_suite(SuiteSpec("homomorphism", params)).to_json())
    assert got["failures"] == want["failures"]
    assert got == want
    if params["N"] > 2 or flaw in ("exponent", "dense"):  # SL2(Z_2) has no d-odd-sum element
        assert got["failures"] and got["max_abs_deviation"] > 0.0


def _spy_covariance(monkeypatch):
    """The verdict of each `_generator_cocycle` call of the homomorphism
    suite, the entries of each element it checks at two points, the shape
    of the block of Y each `_apply` call reads, and the verdict of each
    `_covariance_law` call."""
    verdicts, points, blocks, proofs = [], [], [], []
    real_cocycle, real_points = harness._generator_cocycle, harness._generator_points
    real_apply, real_law = matrixcore._apply, matrixcore._covariance_law

    def cocycle(*args):
        verdicts.append(real_cocycle(*args))
        return verdicts[-1]

    def two_points(table, index, order, entries):
        points.append(tuple(entries))
        return real_points(table, index, order, entries)

    def apply(*args):
        blocks.append(args[2].shape)
        return real_apply(*args)

    def law(*args):
        proofs.append(real_law(*args))
        return proofs[-1]

    monkeypatch.setattr(harness, "_generator_cocycle", cocycle)
    monkeypatch.setattr(harness, "_generator_points", two_points)
    monkeypatch.setattr(matrixcore, "_apply", apply)
    monkeypatch.setattr(matrixcore, "_covariance_law", law)
    return verdicts, points, blocks, proofs


def test_passing_exact_homomorphism_decides_each_element_once(monkeypatch):
    # exact N = 16 with 100 samples: the J table's cocycle is checked once
    # per run, each distinct element at its two generator points at most
    # once, and every factor pair is proven from the first 16 columns of Y:
    # no `_apply` call reads a whole slot
    verdicts, points, blocks, proofs = _spy_covariance(monkeypatch)
    rep = run_suite(SuiteSpec("homomorphism", {"N": 16, "samples": 100, "backend": "exact"}))
    assert rep.passed and rep.checks_run == 100 and rep.max_abs_deviation == 0.0
    assert verdicts == [True]
    assert len(points) == len(set(points)) > 100
    assert len(proofs) >= 50 and all(proofs)
    assert blocks == [(8, 256, 16)] * len(proofs)


@pytest.mark.parametrize("flaw", ["exponent", "cosets", "dense", "support"])
def test_flawed_builders_past_one_block_report_like_the_per_pair_loop(flaw, monkeypatch):
    # N = 16 with 10 samples: a pair the covariance certificate does not prove
    # (a flawed table fails its two points, has no stages, or differs in the
    # first 16 columns) takes the stage rule and then the dense compare, so
    # the report is the per-pair loop's, byte for byte
    params = {"N": 16, "samples": 10, "backend": "exact"}
    _perturb_closed_form(monkeypatch, flaw)
    want = _reference_json(monkeypatch, "homomorphism", params)
    _, _, _, proofs = _spy_covariance(monkeypatch)
    _assert_same_json(run_suite(SuiteSpec("homomorphism", params)).to_json(), want)
    assert json.loads(want)["failures"] and proofs


@pytest.mark.parametrize("flaw", ["phase", "collision", "swap", "scalar"])
def test_a_flawed_j_table_proves_no_pair_by_covariance(flaw, monkeypatch):
    # the run's J table fails the cocycle lemma: no element is checked at its
    # two points, every factor pair takes the stage rule over whole slots, and
    # the report is the one of the unflawed run
    params = {"N": 16, "samples": 10, "backend": "exact"}
    want = run_suite(SuiteSpec("homomorphism", params)).to_json()
    _perturb_twisted(monkeypatch, flaw, (1, 2))
    verdicts, points, blocks, proofs = _spy_covariance(monkeypatch)
    _assert_same_json(run_suite(SuiteSpec("homomorphism", params)).to_json(), want)
    assert verdicts == [False] and points == []
    assert proofs and not any(proofs)
    assert blocks == [(256, 256)] * (8 * len(proofs))


def test_j_columns_that_stay_in_place_prove_no_pair_by_covariance(monkeypatch):
    # J's that keep every column in place, taken to meet the cocycle lemma:
    # their orbit of the first 16 columns is those columns, which prove
    # nothing about the others, so no element is checked at its two points,
    # no pair is proven by covariance, and the report is the passing one
    params = {"N": 16, "samples": 10, "backend": "exact"}
    want = run_suite(SuiteSpec("homomorphism", params)).to_json()
    real = harness._j_table

    def in_place(flavor, N, pr):
        table = real(flavor, N, pr)
        return table._replace(cols=np.tile(np.arange(N * N), (N * N, 1)))

    monkeypatch.setattr(harness, "_j_table", in_place)
    monkeypatch.setattr(harness, "_generator_cocycle", lambda law, pr: True)
    verdicts, points, _, proofs = _spy_covariance(monkeypatch)
    _assert_same_json(run_suite(SuiteSpec("homomorphism", params)).to_json(), want)
    assert verdicts == [True] and points == []
    assert proofs and not any(proofs)


def test_j_columns_written_in_place_prove_no_pair_by_covariance(monkeypatch):
    # the J writer keeps every column in place, and its J's are taken to
    # meet the cocycle lemma after its blocks are written: the orbit ORed
    # from those blocks is the first 16 rows, which proves nothing about
    # the others, so no element is checked at its two points, no pair is
    # proven by covariance, and the report is the passing one
    params = {"N": 16, "samples": 10, "backend": "exact"}
    want = run_suite(SuiteSpec("homomorphism", params)).to_json()
    real_members, real_cocycle = harness._j_members, harness._generator_cocycle

    def in_place(pr, members):
        table = real_members(pr, members)
        return table._replace(cols=np.broadcast_to(np.arange(pr.N**2), table.cols.shape))

    monkeypatch.setattr(harness, "_j_members", in_place)
    monkeypatch.setattr(harness, "_generator_cocycle", lambda js, pr: real_cocycle(js, pr) or True)
    verdicts, points, _, proofs = _spy_covariance(monkeypatch)
    _assert_same_json(run_suite(SuiteSpec("homomorphism", params)).to_json(), want)
    assert verdicts == [True] and points == []
    assert proofs and not any(proofs)


@pytest.mark.parametrize("name,params", [
    ("cocycle-twisted", {"n": 4, "p": 3, "backend": "exact"}),
    ("metaplectic", {"n": 4, "p": 1, "samples": 6}),
    ("homomorphism", {"N": 16, "samples": 20, "backend": "exact"}),
])
def test_passing_exact_runs_write_each_j_once_in_narrow_types(name, params, monkeypatch):
    # a silent drop to a whole or int64 J table: a passing exact run writes
    # each of the 256 J's once, for the cocycle lemma's one block, then the
    # four J's of each element it checks at its two generator points (none
    # for the twisted cocycle), every one narrow; no whole table reaches
    # `_law_table`
    writes, laws = [], []
    real_support, real_law = metaplectic._twisted_support, matrixcore._law_table

    def support(pr, r, s):
        cols, exps = real_support(pr, r, s)
        writes.append((16 * np.asarray(r) + np.asarray(s), cols.dtype, exps.dtype))
        return cols, exps

    monkeypatch.setattr(metaplectic, "_twisted_support", support)
    for module in (harness, metaplectic):
        monkeypatch.setattr(module, "_law_table", lambda t: laws.append(t) or real_law(t))
    elements, real_points = [], metaplectic._generator_points
    for module in (harness, metaplectic):
        monkeypatch.setattr(module, "_generator_points",
                            lambda js, index, order, A: elements.append(A) or real_points(js, index, order, A))
    rep = run_suite(SuiteSpec(name, params))
    assert rep.passed
    assert laws == [] and all(c == e == np.uint8 for _, c, e in writes)
    assert np.array_equal(writes[0][0], np.arange(256))
    assert [len(m) for m, *_ in writes[1:]] == [4] * len(elements)
    if name == "metaplectic":
        assert len(elements) == 2 + params["samples"]
    elif name == "homomorphism":
        assert len(elements) > 20
    else:
        assert elements == []


def test_pairs_the_kernel_leaves_are_compared_densely(monkeypatch):
    # a kernel that proves every other pair only: the others are built and
    # multiplied densely, and the report is unchanged
    params = {"N": 4, "p": 3}
    want = run_suite(SuiteSpec("homomorphism", params)).to_json()
    verdicts, builds = [], []
    real_law, real_build = harness._phase_law, harness.u_general

    def law(x, y, z):
        verdicts.append(real_law(x, y, z) and len(verdicts) % 2 == 0)
        return verdicts[-1]

    def build(*args):
        builds.append(args)
        return real_build(*args)

    monkeypatch.setattr(harness, "_phase_law", law)
    monkeypatch.setattr(harness, "u_general", build)
    _assert_same_json(run_suite(SuiteSpec("homomorphism", params)).to_json(), want)
    assert verdicts.count(False) == 2304 // 2
    assert {A for _, A, _ in builds} == {A for A in enumerate_sl2(4)}


def test_metaplectic_count_is_two_conjugations_per_point():
    rep = run_suite(SuiteSpec("metaplectic", {"n": 1, "p": 1}))
    assert rep.passed
    assert rep.checks_run == 8


def test_feichtinger_defect_mod_2_report():
    # failure-free and carrying the diagonal theta witness plus a nonhom pair
    rep = run_suite(SuiteSpec("feichtinger-defect", {"N": 2}))
    assert rep.passed
    assert rep.params["theta_witness"] == [2, 2]
    assert rep.params["nonhom_pair"] == [[0, 1, 1, 0], [0, 1, 1, 0]]
    assert rep.params["nonhom_defect_norm"] == pytest.approx(2.0)


def test_feichtinger_defect_odd_modulus_has_no_witnesses():
    rep = run_suite(SuiteSpec("feichtinger-defect", {"N": 3}))
    assert rep.passed
    assert "theta_witness" not in rep.params
    assert "nonhom_pair" not in rep.params


def test_feichtinger_defect_mod_6_counts_ill_formed():
    rep = run_suite(SuiteSpec("feichtinger-defect", {"N": 6}))
    assert rep.passed
    assert rep.params["ill_formed"] > 0


@pytest.mark.parametrize("N", [2, 4, 8])
def test_feichtinger_defect_builds_each_operator_once(N, monkeypatch):
    # the scan's matrices serve the witness search: no U is built twice (all
    # 48 elements of SL2(Z_4) once, not 96 times), and the witness is the
    # one `find_nonhom_witness` gives, to the bit.  Both modules are spied,
    # so a direct `feichtinger_u` call from the suite would count too
    built = []
    real = weilmod.feichtinger_u

    def spy(N, A):
        built.append(tuple(A.entries() if hasattr(A, "entries") else A))
        return real(N, A)

    for module in (weilmod, harness):
        monkeypatch.setattr(module, "feichtinger_u", spy, raising=False)
    rep = run_suite(SuiteSpec("feichtinger-defect", {"N": N}))
    assert rep.passed and len(built) == len(set(built))
    assert N != 4 or len(built) == 48
    witness = weilmod.find_nonhom_witness(N)
    assert rep.params["nonhom_pair"] == witness["pair"]
    assert rep.params["nonhom_defect_norm"] == witness["defect_norm"]


@pytest.mark.parametrize("N", [2, 4, 8])
def test_feichtinger_defect_scans_every_character_at_once(N, monkeypatch):
    # one `_character_scan` over every scanned element; with the first
    # one's U given one entry of flipped sign (a dense U: a flipped entry of
    # a signed permutation at N = 2 can leave a normalizer), that element
    # alone fails the conjugation identity, as in the per-element
    # extract_psi loop
    scans = []
    real_scan = weilmod._character_scan
    monkeypatch.setattr(harness, "_character_scan",
                        lambda stack, *a: scans.append(len(stack)) or real_scan(stack, *a))
    elems = enumerate_sl2(N)
    if len(elems) > 60:  # the suite's seeded picks
        elems = [elems[i] for i in sorted(random.Random(7).sample(range(len(elems)), 48))]
    target = elems[0]
    real = weilmod.feichtinger_u

    def flawed(N, A):
        out = real(N, A)
        if tuple(A) == target.entries():
            row = out.data[0]
            row[np.abs(row).argmax()] *= -1
        return out

    monkeypatch.setattr(weilmod, "feichtinger_u", flawed)
    rep = run_suite(SuiteSpec("feichtinger-defect", {"N": N}))
    assert scans == [len(elems)]
    identity = "U pi(k,l) U^-1 == psi pi((k,l)A)"
    failed = [f.inputs["A"] for f in rep.failures if f.identity == identity]
    want = []
    for A in elems:
        try:
            weilmod.extract_psi(flawed(N, A.entries()), A)
        except weilmod.NotMetaplectic:
            want.append(list(A.entries()))
    assert failed == [list(target.entries())] and want == failed


def test_heisenberg_exhaustive_commutator_count():
    # (2N)^3 doubled-range triples on each side: 4096 pairs at n=1 plus
    # the four fixed generator identities
    rep = run_suite(SuiteSpec("heisenberg", {"n": 1}))
    assert rep.passed
    assert rep.checks_run == 4 + 4096
    assert rep.params["mode"] == "exhaustive"


def test_heisenberg_sampled_at_n_3():
    rep = run_suite(SuiteSpec("heisenberg", {"n": 3, "samples": 100}))
    assert rep.passed
    assert rep.checks_run == 4 + 100
    assert rep.params["mode"] == "sampled"


def test_heisenberg_float_backend_beyond_n_3():
    rep = run_suite(SuiteSpec("heisenberg", {"n": 4, "samples": 50}))
    assert rep.passed
    assert rep.params["backend"] == "float"
    assert 0.0 < rep.max_abs_deviation < 1e-9


def test_exact_backend_never_downgraded():
    # an explicit exact request on an odd modulus raises instead of
    # silently switching to floats
    with pytest.raises(ValueError):
        run_suite(SuiteSpec("homomorphism", {"N": 3, "backend": "exact"}))


def test_cocycle_twisted_counts():
    # N^2 unitarity checks plus N^4 cocycle pairs
    rep = run_suite(SuiteSpec("cocycle-twisted", {"n": 1}))
    assert rep.passed
    assert rep.checks_run == 4 + 16


def test_cocycle_odd_counts():
    rep = run_suite(SuiteSpec("cocycle-odd", {"N": 5}))
    assert rep.passed
    assert rep.checks_run == 25 + 625


def test_cocycle_odd_rejects_even_modulus():
    with pytest.raises(ValueError):
        run_suite(SuiteSpec("cocycle-odd", {"N": 4}))


def test_weil_odd_covers_group_and_pairs():
    # 24 elements: 24*9 conjugation points plus 24^2 product pairs
    rep = run_suite(SuiteSpec("weil-odd", {"N": 3}))
    assert rep.passed
    assert rep.params["pairs"] is True
    assert rep.checks_run == 24 * 9 + 24 * 24


def test_decomposition_sampled():
    rep = run_suite(SuiteSpec("decomposition", {"n": 2, "samples": 40, "seed": 3}))
    assert rep.passed
    assert rep.checks_run == 40


@pytest.mark.parametrize("n", range(1, 7))
def test_one_word_prime_holds_every_library_product(n):
    # the builders' operators have |coefficient| <= 1, so a dense product at
    # dim N^2 and L basis coefficients has its coefficients below dim L < p/2
    N = 2**n
    dim, size = N * N, max(N, 8) // 2
    assert 2 * dim * size < matrixcore._ntt_plan((max(dim, size) - 1).bit_length(), size)[0]


@pytest.mark.parametrize("name,params", [("decomposition", {"n": 3, "samples": 200}),
                                         ("heisenberg", {"n": 3})])
def test_dense_exact_products_stay_within_one_prime(name, params, monkeypatch):
    # every dense exact product of a suite run has operands with
    # |coefficient| <= 1, and the object path (the only caller of the
    # regular representation on Python ints) never runs; `decomposition`
    # with its chain refused, so that every word product is made
    tops, objects = [], []
    monkeypatch.setattr(harness, "_phase_law", lambda *tables: False)

    def ntt(a, b):
        tops.append(max(np.abs(a).max(), np.abs(b).max()))
        return real_ntt(a, b)

    def regular(coeffs):
        objects.append(coeffs.dtype == object)
        return real_regular(coeffs)

    real_ntt, real_regular = matrixcore._ntt_matmul, matrixcore._regular
    monkeypatch.setattr(matrixcore, "_ntt_matmul", ntt)
    monkeypatch.setattr(matrixcore, "_regular", regular)
    rep = run_suite(SuiteSpec(name, params))
    assert rep.passed and rep.params["backend"] == "exact"
    assert tops and max(tops) <= 1
    assert not any(objects)


@pytest.mark.parametrize("n,samples", [(1, 200), (2, 200), (3, 200), (4, 20)])
def test_passing_exact_decomposition_builds_no_matrix(n, samples, monkeypatch):
    # every sample is proven by the chain of pair laws on the closed-form
    # tables: no exact matrix is written and no exact product made
    def refuse(*args, **kwargs):
        raise AssertionError("dense path on a passing run")

    monkeypatch.setattr(matrixcore, "_ntt_matmul", refuse)
    monkeypatch.setattr(OpMatrix, "_scatter", refuse)
    params = {"n": n, "samples": samples, "backend": "exact"}
    rep = run_suite(SuiteSpec("decomposition", params))
    assert rep.passed and rep.checks_run == samples and rep.max_abs_deviation == 0.0


@pytest.mark.parametrize("flaw", [None, "exponent", "mask", "support", "u_s"])
@pytest.mark.parametrize("n", [2, 3])
def test_decomposition_flaws_fail_like_the_word_product(n, flaw, monkeypatch):
    # the reference proves nothing on the tables, so every sample is the
    # dense comparison of the closed form with the generator word product
    params = {"n": n, "samples": 60, "seed": 5}
    if flaw:
        _perturb_closed_form(monkeypatch, flaw)
    with monkeypatch.context() as m:
        m.setattr(harness, "_phase_law", lambda *tables: False)
        want = run_suite(SuiteSpec("decomposition", params)).to_json()
    got = run_suite(SuiteSpec("decomposition", params))
    _assert_same_json(got.to_json(), want)
    assert got.passed == (flaw is None)
    if flaw:
        assert got.failures and got.max_abs_deviation > 0.0


def test_decomposition_builds_each_s_power_table_once(monkeypatch):
    # the closed forms at S, S^-1 and S^2 serve the chain of every sample
    # and the check of the word's images of S: a run builds each once
    builds, real = [], harness._closed_form
    monkeypatch.setattr(harness, "_closed_form", lambda pr, X: builds.append(X) or real(pr, X))
    rep = run_suite(SuiteSpec("decomposition", {"n": 3, "samples": 60, "backend": "exact"}))
    assert rep.passed and rep.max_abs_deviation == 0.0
    S = sl2_s(8)
    assert [builds.count(X) for X in (S, S.inv(), S**2)] == [1, 1, 1]


def test_samples_the_chain_leaves_are_compared_densely(monkeypatch):
    # a chain that proves every other sample only: the others are compared
    # as the closed form against the word product, and the report is unchanged
    params = {"n": 3, "samples": 60, "seed": 5}
    want = run_suite(SuiteSpec("decomposition", params)).to_json()
    words, dense = [], []
    real_decompose, real_law, real_word = harness.decompose, harness._phase_law, harness.u_of_word

    def decompose(A):
        words.append(A)
        return real_decompose(A)

    def word(*args):
        dense.append(len(words))
        return real_word(*args)

    monkeypatch.setattr(harness, "decompose", decompose)
    monkeypatch.setattr(harness, "_phase_law", lambda *t: len(words) % 2 == 1 and real_law(*t))
    monkeypatch.setattr(harness, "u_of_word", word)
    _assert_same_json(run_suite(SuiteSpec("decomposition", params)).to_json(), want)
    assert dense == list(range(2, 61, 2))


def test_chain_steps_from_each_prefix_to_the_next(monkeypatch):
    # with the tables standing for their elements, the chain checks exactly
    # U(P_i) U(t_{i+1}) == U(P_{i+1}) for i = 1 ... 4, P_i = t_1 ... t_i
    steps = []
    monkeypatch.setattr(harness, "_s_images_hold", lambda pr, closed, slot: True)
    monkeypatch.setattr(harness, "_closed_form", lambda pr, X: (X, None))
    monkeypatch.setattr(harness, "_slot_table", lambda X: X)
    monkeypatch.setattr(harness, "_phase_law", lambda *t: steps.append(t) or True)
    rep = run_suite(SuiteSpec("decomposition", {"n": 3, "samples": 30, "seed": 5}))
    assert rep.passed
    want = []
    for A in sample_sl2(8, 30, 5):
        word = decompose(A)
        prefixes = [word_element(word[:i], 8) for i in range(1, 6)]
        tokens = [word_element([t], 8) for t in word]
        want += [(prefixes[i], tokens[i + 1], prefixes[i + 1]) for i in range(4)]
        assert prefixes[-1] == A
    assert steps == want


def test_s_images_are_u_s_its_dagger_and_its_square(monkeypatch):
    # u_of_word's U(S^-1) is U(S)^dagger: with U(S) made asymmetric (one
    # exponent moved in u_s's table and the closed form at S alike), the
    # closed form at S^-1 is accepted as its exponents negated and
    # transposed, not merely negated; and U(S) U(S) == U(S^2) must be proven
    pr, S = HWParams(4, 1), sl2_s(4)
    s = metaplectic._s_table(pr)
    s.exps[0, 1] = (s.exps[0, 1] + 1) % 4
    dagger = s._replace(exps=-s.exps.T % 4)
    negated = s._replace(exps=-s.exps % 4)
    op = lambda t: metaplectic._table_op(pr, t, "exact", "")  # noqa: E731
    assert mat_eq(op(dagger), op(s).dagger()).equal and not mat_eq(op(negated), op(dagger)).equal
    monkeypatch.setattr(harness, "_s_table", lambda pr: s)
    for inverse, proven, want in ((dagger, True, True), (negated, True, False),
                                  (dagger, False, False)):
        tables, laws = {S: s, S.inv(): inverse}, []
        monkeypatch.setattr(harness, "_phase_law", lambda *t: laws.append(t) or proven)
        assert harness._s_images_hold(pr, tables.__getitem__, lambda X: X) == want
        assert laws == ([(S, S, S**2)] if inverse is dagger else [])


def test_quadratic_module_defects_vanish():
    rep = run_suite(SuiteSpec("quadratic-module", {"n": 2}))
    assert rep.passed
    assert rep.max_abs_deviation < 1e-9


def test_too_large_guards():
    with pytest.raises(TooLarge):
        run_suite(SuiteSpec("cocycle-twisted", {"n": 6}))
    with pytest.raises(TooLarge):
        run_suite(SuiteSpec("heisenberg", {"n": 13}))
    with pytest.raises(TooLarge):
        run_suite(SuiteSpec("heisenberg", {"n": 3, "exhaustive": True}))


def test_report_json_is_deterministic():
    a = run_suite(SuiteSpec("decomposition", {"n": 2, "samples": 25, "seed": 11}))
    b = run_suite(SuiteSpec("decomposition", {"n": 2, "samples": 25, "seed": 11}))
    _assert_same_json(a.to_json(), b.to_json())
    # a different seed draws different elements but keeps the count
    c = run_suite(SuiteSpec("decomposition", {"n": 2, "samples": 25, "seed": 12}))
    assert c.checks_run == 25


def test_report_params_json_serializable():
    for name, params in [
        ("feichtinger-defect", {"N": 4}),
        ("heisenberg", {"n": 1}),
        ("weil-odd", {"N": 3}),
    ]:
        rep = run_suite(SuiteSpec(name, params))
        round_trip = json.loads(rep.to_json())
        assert round_trip["suite"] == name
        assert round_trip["passed"] is True


# -- the pair-law checker against the per-pair loops it replaced --------------


def _pair_law_reference(rep, identity, pairs, op, compose, phase, inputs, tol, members=None):
    """The hand-written suite loops, one product and one comparison per pair;
    a support table is ignored, and an array (2, key length, count) of keys
    is read as its pairs of tuples."""
    N, exponent = phase or (1, None)
    arrays = {}
    if isinstance(pairs, np.ndarray):
        pairs = [(tuple(x), tuple(y)) for x, y in pairs.transpose(2, 0, 1).tolist()]

    def array(key):
        if key not in arrays:
            arrays[key] = op(key).to_complex_array()
        return arrays[key]

    for x, y in pairs:
        z = compose(x, y)
        e = None if exponent is None else exponent(x, y)
        if op(x).backend == "exact":
            rhs = op(z) if e is None else op(z).scalar_mul(CycNum.root(N, e))
            ok, dev = mat_eq(op(x) @ op(y), rhs, tol)
        else:
            rhs = array(z) if e is None else np.exp(2j * np.pi * (e % N) / N) * array(z)
            dev = float(np.abs(array(x) @ array(y) - rhs).max())
            ok = dev <= tol
        rep.record(ok, dev, identity, inputs(x, y))


def _fail_generator_check(monkeypatch):
    """Make every twisted generator check fail, so that the suite decides
    each point and pair of a twisted cocycle run on the full J table."""
    monkeypatch.setattr(harness, "_generator_cocycle", lambda law, pr: False)


def _reference_json(monkeypatch, name, params):
    # every pair compared alone; no twisted law is proven by the cocycle lemma
    with monkeypatch.context() as m:
        m.setattr(harness, "check_pair_law", _pair_law_reference)
        _fail_generator_check(m)
        return run_suite(SuiteSpec(name, params)).to_json()


MIGRATED = (
    [("cocycle-twisted", {"n": 1, "p": 1})]
    + [("cocycle-twisted", {"n": 2, "p": p}) for p in (1, 3)]
    + [("cocycle-twisted", {"n": 3, "p": p}) for p in (1, 3, 5, 7)]
    + [("cocycle-odd", {"N": 3}), ("cocycle-odd", {"N": 5})]
    + [("homomorphism", {"n": 2, "exhaustive": True})]
    + [("homomorphism", {"N": 16, "samples": 4})]
    + [("weil-odd", {"N": 5})]
    + [("feichtinger-defect", {"N": 4}), ("feichtinger-defect", {"N": 6})]
    + [("cocycle-twisted", {"n": 2, "p": 3, "backend": "float"})]
    + [("cocycle-odd", {"N": 7})]
)


def _spy_support_law(monkeypatch, products_only=False):
    """The equal mask of each call of `_support_law` from harness, on a
    table or its factored form; with `products_only`, of each call whose
    products are not all member 0 (the dagger law's J[0])."""
    results = []
    real = harness._support_law

    def law(table, left, right, out, phase):
        equal = real(table, left, right, out, phase)
        if not products_only or out.any():
            results.append(equal)
        return equal

    monkeypatch.setattr(harness, "_support_law", law)
    return results


@pytest.mark.parametrize("name,params", [
    ("heisenberg", {"n": 3, "samples": 5000, "backend": "exact"}),
    ("heisenberg", {"n": 2}),
    ("cocycle-twisted", {"n": 3, "p": 5}),
])
def test_support_laws_read_one_narrow_table_per_run(name, params, monkeypatch):
    # the exact support laws get their table prepared once per suite call,
    # in codes of the smallest unsigned type, not an int64 table cast per
    # call (the twisted J's at n = 3 have 6 column and 3 exponent bits); the
    # twisted cocycle's dagger and product laws, which run once its
    # generator check is made to fail, read the same table
    tables = []
    real = harness._support_law

    def law(table, *args):
        tables.append(table)
        return real(table, *args)

    monkeypatch.setattr(harness, "_support_law", law)
    monkeypatch.setattr(harness, "_generator_cocycle", lambda js, pr: False)
    assert run_suite(SuiteSpec(name, params)).passed
    assert len(tables) >= 2 and all(t is tables[0] for t in tables)
    narrow = tables[0]
    assert isinstance(narrow, matrixcore._LawTable)
    assert narrow.codes.dtype == (np.uint16 if name == "cocycle-twisted" else np.uint8)


@pytest.mark.parametrize("name,params", MIGRATED)
def test_pair_law_reports_match_the_per_pair_loops(name, params, monkeypatch):
    # a passing exact twisted cocycle is proven by the cocycle lemma and
    # reads no support table in harness; with its generator check failing
    # it is decided on its support table, every other family pair by pair.
    # The reference run's pair law never reads the table, only its dagger
    # law does, in one call
    calls = _spy_support_law(monkeypatch)
    got = run_suite(SuiteSpec(name, params)).to_json()
    assert calls == []
    with monkeypatch.context() as m:
        _fail_generator_check(m)
        _assert_same_json(run_suite(SuiteSpec(name, params)).to_json(), got)
    assert bool(calls) == (name == "cocycle-twisted" and "backend" not in params)
    count = len(calls)
    _assert_same_json(got, _reference_json(monkeypatch, name, params))
    assert len(calls) == count + bool(count)


@pytest.mark.parametrize("chunk", [4096, 7])
@pytest.mark.parametrize("wrong_column", [False, True])
def test_perturbed_j_fails_like_the_per_pair_loops(wrong_column, chunk, monkeypatch):
    # row 0 of J[1, 2] moves, in the support formula that both the table and
    # j_twisted read: its phase by omega, or its entry to the next column
    real = magnetic._twisted_support

    def perturbed(pr, r, s):
        cols, exponents = real(pr, r, s)
        hit = (np.asarray(r) == 1) & (np.asarray(s) == 2)
        if wrong_column:
            cols[..., 0] = (cols[..., 0] + hit) % cols.shape[-1]
        else:
            exponents[..., 0] += hit
        return cols, exponents % pr.N

    monkeypatch.setattr(magnetic, "_twisted_support", perturbed)
    monkeypatch.setattr(metaplectic, "_twisted_support", perturbed)
    params = {"n": 2, "p": 3}
    want = json.loads(_reference_json(monkeypatch, "cocycle-twisted", params))
    monkeypatch.setattr(report, "_SCAN_CHUNK", chunk)
    calls = _spy_support_law(monkeypatch, products_only=True)  # the product law
    got = json.loads(run_suite(SuiteSpec("cocycle-twisted", params)).to_json())
    assert got["failures"] == want["failures"]
    assert got["max_abs_deviation"] == want["max_abs_deviation"] > 0.0
    law = [f for f in got["failures"] if f["identity"].startswith("J[l] J[l']")]
    # every pair with (1, 2) among l, l' and l + l' fails, in scan order,
    # unless J[0, 0] = I is a factor
    touched = [
        {"l": [r, s], "l'": [rp, sp]}
        for r in range(4) for s in range(4) for rp in range(4) for sp in range(4)
        if (1, 2) in ((r, s), (rp, sp), ((r + rp) % 4, (s + sp) % 4))
        and (0, 0) not in ((r, s), (rp, sp))
    ]
    assert [f["inputs"] for f in law] == touched
    # the stacked pass flags exactly the failing pairs, chunk by chunk
    assert len(calls) == -(-256 // chunk)
    assert sum(int((~c).sum()) for c in calls) == len(law)


def test_monomial_kernel_fires_for_twisted_cocycle_only(monkeypatch):
    # with the generator check failing, so that the laws run on the table
    _fail_generator_check(monkeypatch)
    calls = _spy_support_law(monkeypatch)
    for p in (1, 3):
        run_suite(SuiteSpec("cocycle-twisted", {"n": 2, "p": p}))
    # the dagger and product laws of each run: no key left to recompute
    assert [c.all() for c in calls] == [True] * 4
    calls.clear()
    run_suite(SuiteSpec("homomorphism", {"n": 2}))
    assert calls == []


def test_scan_records_like_the_per_key_loop(monkeypatch):
    # keys (x, y) in (Z_5^2)^2 through the scan with a `decide` that proves a
    # seeded subset of the passing keys, carrying their float deviations, and
    # without one; the largest deviation is a proven key's.  Chunks of 7 keys
    # cross the chunk boundaries
    monkeypatch.setattr(report, "_SCAN_CHUNK", 7)
    rng = np.random.default_rng(11)
    shape = (5,) * 4
    ok, dev = rng.random(shape) < 0.8, rng.random(shape)
    proven = ok & (rng.random(shape) < 0.5)
    dev[tuple(np.argwhere(proven)[3])] = 2.0
    keys = harness._key_pairs(5, 2)
    compare = lambda x, y: (bool(ok[x + y]), float(dev[x + y]))  # noqa: E731
    decide = lambda x, y: (proven[(*x, *y)], dev[(*x, *y)])  # noqa: E731
    inputs = lambda x, y: {"x": list(x), "y": list(y)}  # noqa: E731
    for weight in (1, 64):
        got, want = VerifyReport("law", {}), VerifyReport("law", {})
        got.scan("law", keys, compare, inputs, decide, weight)
        want.scan("law", keys, compare, inputs, weight=weight)
        _assert_same_json(got.to_json(), want.to_json())
        assert got.checks_run == weight * 625 and got.max_abs_deviation == 2.0
        assert len(got.failures) == int((~ok).sum())
    with pytest.raises(TypeError):  # an iterable is refused, not silently undecided
        VerifyReport("law", {}).scan("law", [((1, 2), (3, 1))], compare, inputs, decide)
    with pytest.raises(TypeError):  # with or without a bulk decision
        VerifyReport("law", {}).scan("law", [((1, 2), (3, 1))], compare, inputs)
    # a support table given with an iterable of pairs is refused the same way
    pr = HWParams(4)
    table = metaplectic._j_table("twisted_even", 4, pr)
    op = cache(lambda l: magnetic.j_twisted(pr, l, backend="exact"))
    compose = lambda l, m: ((l[0] + m[0]) % 4, (l[1] + m[1]) % 4)  # noqa: E731
    members = (harness._law_table(table), lambda l: 4 * l[0] + l[1])
    with pytest.raises(TypeError):
        check_pair_law(VerifyReport("law", {}), "law", [((1, 2), (3, 1))], op, compose,
                       (4, lambda l, m: m[0] * l[1] - m[1] * l[0]), dict, 1e-9, members)
    rep = VerifyReport("law", {})
    check_pair_law(rep, "law", harness._key_pairs(4, 2), op, compose,
                   (4, lambda l, m: m[0] * l[1] - m[1] * l[0]), dict, 1e-9, members)
    assert rep.passed and rep.checks_run == 256


def _perturb_twisted(monkeypatch, flaw, point):
    """Patch the support formula that both the J table and j_twisted read:
    row 0 of J[point] gets the wrong phase, or the column of row 1 (two rows
    hitting one column, no permutation), or rows 0 and 1 swap columns, or
    ("scalar") the whole of J[point] is multiplied by omega."""
    real = magnetic._twisted_support

    def perturbed(pr, r, s):
        cols, exponents = real(pr, r, s)
        hit = (np.asarray(r) == point[0]) & (np.asarray(s) == point[1])
        if flaw == "phase":
            exponents[..., 0] += hit
        elif flaw == "scalar":
            exponents += hit[..., None]
        elif flaw == "collision":
            cols[..., 0] = np.where(hit, cols[..., 1], cols[..., 0])
        elif flaw == "swap":
            cols[..., :2] = np.where(hit[..., None], cols[..., 1::-1], cols[..., :2])
        return cols, exponents % pr.N

    monkeypatch.setattr(magnetic, "_twisted_support", perturbed)
    monkeypatch.setattr(metaplectic, "_twisted_support", perturbed)


@pytest.mark.parametrize("flaw", [None, "phase", "collision", "swap", "scalar"])
def test_table_dagger_law_matches_the_dense_one(flaw, monkeypatch):
    # the reference builds every J densely and compares J[l]^dagger with J[-l];
    # the law reads the J table
    for n in (1, 2, 3):
        N = 2**n
        point = (1, 2 % N)
        with monkeypatch.context() as m:
            _perturb_twisted(m, flaw, point)
            for p in range(1, N, 2):
                pr = HWParams(N, p)
                want = VerifyReport("dagger", {})
                j = cache(lambda l: magnetic.j_twisted(pr, l, backend="exact"))
                table = metaplectic._j_table("twisted_even", N, pr)
                for r in range(N):
                    for s in range(N):
                        ok, dev = mat_eq(j((r, s)).dagger(), j((-r % N, -s % N)))
                        want.record(ok, dev, "J[l]^dagger == J[-l]", {"r": r, "s": s})
                got = VerifyReport("dagger", {})
                harness._dagger_law(got, N, j, 1e-9, harness._law_table(table))
                _assert_same_json(got.to_json(), want.to_json())
                assert got.checks_run == N * N
                # at N = 2, omega J[1, 0] is its own -l and its dagger
                seen = flaw is not None and (flaw != "scalar" or N > 2)
                assert bool(got.failures) == seen, (n, p)
                assert got.max_abs_deviation == want.max_abs_deviation


def test_dagger_law_proves_no_point_unless_member_0_is_the_identity(monkeypatch):
    # members i I, and -I at (0, 0): J[l] J[-l] == J[0] at every l != 0,
    # though J[l]^dagger == J[-l] holds only at l = 0; every point is then
    # compared as matrices
    N, eye = 2, np.arange(4)
    table = harness._SupportTable(4, np.tile(eye, (4, 1)), np.array([[2] * 4] + [[1] * 4] * 3))
    op = lambda l: OpMatrix.from_support(4, eye, table.exps[N * l[0] + l[1]])  # noqa: E731
    calls = _spy_support_law(monkeypatch)
    rep = VerifyReport("dagger", {})
    harness._dagger_law(rep, N, op, 1e-9, harness._law_table(table))
    assert rep.checks_run == 4
    assert [f.inputs for f in rep.failures] == [
        {"r": 0, "s": 1}, {"r": 1, "s": 0}, {"r": 1, "s": 1},
    ]
    assert calls == []


FLOAT_STACK_RUNS = [
    ("weil-odd", {"N": 3}), ("weil-odd", {"N": 5}), ("weil-odd", {"N": 7}),
    ("cocycle-odd", {"N": 5}), ("feichtinger-defect", {"N": 4}),
    ("feichtinger-defect", {"N": 8}),
]


@pytest.mark.parametrize("name,params", FLOAT_STACK_RUNS)
def test_passing_float_stack_runs_compare_no_key_alone(name, params, monkeypatch):
    # the conjugation, dagger and pair laws of a passing default run are all
    # decided on float stacks: no pair compared alone, no element verified
    # alone, no J built and no mat_eq; no element's character scanned alone
    # (the suite reaches `extract_psi` only through weilmod), and no block of
    # J's densified per block (weil-odd gathers them from one stack)
    calls = []

    def spy(module, attr):
        real = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *a, **k: calls.append(attr) or real(*a, **k))

    for module, attr in [(harness, "_pair_compare"), (metaplectic, "verify_metaplectic"),
                         (harness, "mat_eq"), (metaplectic, "mat_eq"),
                         (harness, "j_odd"), (metaplectic, "j_odd"),
                         (weilmod, "extract_psi"), (metaplectic, "_float_stack")]:
        spy(module, attr)
    rep = run_suite(SuiteSpec(name, params))
    assert rep.passed and rep.checks_run > 0
    assert calls == []


def _perturb_odd(monkeypatch, flaw, point):
    """Patch the odd support formula that both the J table and j_odd read:
    row 0 of J[point] gets the wrong phase, or the whole of it times omega."""
    real = magnetic._odd_support

    def perturbed(N, r, s):
        cols, exponents = real(N, r, s)
        hit = (np.asarray(r) == point[0]) & (np.asarray(s) == point[1])
        if flaw == "phase":
            exponents[..., 0] += hit
        else:
            exponents += hit[..., None]
        return cols, exponents % N

    monkeypatch.setattr(magnetic, "_odd_support", perturbed)
    monkeypatch.setattr(metaplectic, "_odd_support", perturbed)


@pytest.mark.parametrize("N", [3, 5, 7])
@pytest.mark.parametrize("flaw", [None, "phase", "scalar"])
def test_cocycle_odd_stacks_report_like_the_per_key_loops(N, flaw, monkeypatch):
    # the dagger and torus laws on the J stack against one dense comparison
    # per point and per pair: the same failures, order and deviations
    if flaw:
        _perturb_odd(monkeypatch, flaw, (1, 2))
    got = run_suite(SuiteSpec("cocycle-odd", {"N": N})).to_json()
    dagger = harness._dagger_law
    with monkeypatch.context() as m:
        m.setattr(harness, "_dagger_law", lambda rep, N, op, tol, table=None: dagger(rep, N, op, tol))
        want = _reference_json(m, "cocycle-odd", {"N": N})
    failures = json.loads(got)["failures"]
    assert failures == json.loads(want)["failures"]  # a short diff if not
    assert got == want
    assert bool(failures) == (flaw is not None)
    # omega J[1, 2] is no longer J[-1, -2]^dagger: the dagger law sees either flaw
    assert ({"r": 1, "s": 2} in [f["inputs"] for f in failures]) == (flaw is not None)


def _spy_builds(monkeypatch):
    """The points of every j_twisted call in harness, and the arguments of
    every OpMatrix.from_support call."""
    points, supports = [], []
    real_j, real_support = harness.j_twisted, OpMatrix.from_support

    def j_twisted(pr, pt, **kw):
        points.append(pt)
        return real_j(pr, pt, **kw)

    def from_support(cls, *args, **kw):
        supports.append(args)
        return real_support(*args, **kw)

    monkeypatch.setattr(harness, "j_twisted", j_twisted)
    monkeypatch.setattr(OpMatrix, "from_support", classmethod(from_support))
    return points, supports


def test_passing_exact_twisted_cocycle_builds_no_dense_j(monkeypatch):
    points, supports = _spy_builds(monkeypatch)
    for p in (1, 3, 5, 7):
        rep = run_suite(SuiteSpec("cocycle-twisted", {"n": 3, "p": p}))
        assert rep.passed and rep.checks_run == 64 + 64**2
    assert points == [] and supports == []


# (n, p) of the passing exact twisted runs: every p for n <= 3, two at n = 4
EXACT_TWISTED_RUNS = [(n, p) for n in (1, 2, 3) for p in range(1, 2**n, 2)] + [(4, 1), (4, 15)]


def test_passing_exact_twisted_cocycle_makes_one_generator_check(monkeypatch):
    # a silent drop from the cocycle lemma to the full-table laws would cost
    # N^4 pairs: a passing exact run makes one generator check, which
    # decides the 2 N^2 generator pairs on the J's codes with no
    # `_support_law` call, and builds no J
    checks, pairs = [], []
    real_check, real_law = harness._generator_cocycle, matrixcore._support_law

    def check(law, pr):
        checks.append(pr)
        return real_check(law, pr)

    def spy(table, left, *args):
        pairs.append(len(left))
        return real_law(table, left, *args)

    monkeypatch.setattr(harness, "_generator_cocycle", check)
    for module in (matrixcore, harness):
        monkeypatch.setattr(module, "_support_law", spy)
    points, supports = _spy_builds(monkeypatch)
    for n, p in EXACT_TWISTED_RUNS:
        N = 2**n
        rep = run_suite(SuiteSpec("cocycle-twisted", {"n": n, "p": p, "backend": "exact"}))
        assert rep.passed and rep.checks_run == N**2 + N**4
        assert checks == [HWParams(N, p)] and pairs == [], (n, p)
        checks.clear()
        pairs.clear()
    assert points == [] and supports == []


TWISTED_FLAWS = [(flaw, point) for flaw in ("phase", "collision", "swap", "scalar")
                 for point in ((1, 2), (0, 0))]


@pytest.mark.parametrize("n,ps,flaw", [
    (1, (1,), None), (2, (1, 3), None), (3, (1, 3, 5, 7), None), (4, (1, 15), None),
    (1, (1,), "scalar"), (2, (1, 3), "scalar"), (3, (1, 7), "scalar"),
])
def test_factored_twisted_cocycle_reports_like_the_full_table(n, ps, flaw, monkeypatch):
    # the cocycle check factored through the generators against every point
    # and pair decided on the full J table (the generator check made to
    # fail): the reports must be byte-identical, passing or with J[1, 2]
    # times omega
    if flaw:
        _perturb_twisted(monkeypatch, flaw, (1, 2 % 2**n))
    for p in ps:
        spec = SuiteSpec("cocycle-twisted", {"n": n, "p": p, "backend": "exact"})
        got = run_suite(spec)
        with monkeypatch.context() as m:
            _fail_generator_check(m)
            want = run_suite(spec)
        _assert_same_json(got.to_json(), want.to_json())
        assert got.passed == (flaw is None)


@pytest.mark.parametrize("flaw,point", TWISTED_FLAWS,
                         ids=[f"{f}-J{r}{s}" for f, (r, s) in TWISTED_FLAWS])
def test_twisted_cocycle_fallback_reports_like_the_per_pair_loops(flaw, point, monkeypatch):
    # each flaw of the support formula, at (1, 2) or at J_0, fails the
    # generator check, and the run reports what the per-pair loops do, in
    # chunks of 4096 keys or of 7
    verdicts = []
    real = harness._generator_cocycle
    monkeypatch.setattr(harness, "_generator_cocycle",
                        lambda law, pr: verdicts.append(real(law, pr)) or verdicts[-1])
    for n, ps in ((2, (1, 3)), (3, (3,))):
        with monkeypatch.context() as m:
            _perturb_twisted(m, flaw, point)
            for p in ps:
                params = {"n": n, "p": p}
                want = _reference_json(m, "cocycle-twisted", params)
                for chunk in (4096, 7):
                    m.setattr(report, "_SCAN_CHUNK", chunk)
                    got = run_suite(SuiteSpec("cocycle-twisted", params))
                    _assert_same_json(got.to_json(), want)
                    assert not got.passed
    assert verdicts == [False] * 6


def test_twisted_cocycle_builds_only_the_js_of_unequal_checks(monkeypatch):
    # one perturbed point: the J's of its failing points and pairs, once each
    _perturb_twisted(monkeypatch, "phase", (1, 2))
    points, supports = _spy_builds(monkeypatch)
    rep = json.loads(run_suite(SuiteSpec("cocycle-twisted", {"n": 3, "p": 3})).to_json())
    need = set()
    for f in rep["failures"]:
        if "r" in f["inputs"]:
            r, s = f["inputs"]["r"], f["inputs"]["s"]
            need |= {(r, s), (-r % 8, -s % 8)}
        else:
            (r, s), (rp, sp) = f["inputs"]["l"], f["inputs"]["l'"]
            need |= {(r, s), (rp, sp), ((r + rp) % 8, (s + sp) % 8)}
    assert {f["identity"].split()[0] for f in rep["failures"]} == {"J[l]^dagger", "J[l]"}
    assert sorted(points) == sorted(need) and len(supports) == len(points)
    # a pair the full table wrongly flags, on a run whose generator check
    # fails, is compared densely from its three J's
    monkeypatch.undo()
    _fail_generator_check(monkeypatch)
    real = harness._support_law

    def flag(table, x, y, z, e):  # the pair (l, l') = ((1, 2), (3, 4))
        return real(table, x, y, z, e) & ~((x == 8 * 1 + 2) & (y == 8 * 3 + 4))

    monkeypatch.setattr(harness, "_support_law", flag)
    points, supports = _spy_builds(monkeypatch)
    assert run_suite(SuiteSpec("cocycle-twisted", {"n": 3, "p": 3})).passed
    assert points == [(1, 2), (3, 4), (4, 6)] and len(supports) == 3


def _law(pairs, op, compose, phase, check=check_pair_law):
    # the law scans the pairs as an array (2, count) of keys, the reference loops over them
    keys = np.array(pairs).T if check is check_pair_law else pairs
    rep = VerifyReport("law", {})
    check(rep, "law", keys, op, compose, phase, lambda x, y: {"x": x, "y": y}, 1e-9)
    return rep.to_json()


@pytest.mark.parametrize("chunk", [4096, 5])
def test_family_with_a_dense_member_falls_back_per_pair(chunk, monkeypatch):
    # U(S^k), k in Z_4: U(S) and U(S^3) are dense, U(1) and U(S^2) monomial
    pr = HWParams(4)
    op = cache(lambda k: u_general(pr, SL2Element(1, 0, 0, 1, 4) if k == 0 else sl2_s(4) ** k))
    monkeypatch.setattr(report, "_SCAN_CHUNK", chunk)
    pairs = [(k, l) for k in range(4) for l in range(4)]
    compose = lambda k, l: (k + l) % 4  # noqa: E731
    for phase in (None, (4, lambda k, l: k * l)):
        got = _law(pairs, op, compose, phase)
        assert got == _law(pairs, op, compose, phase, _pair_law_reference)
    assert json.loads(_law(pairs, op, compose, None))["passed"]
    assert json.loads(_law(pairs, op, compose, (4, lambda k, l: k * l)))["failures"]


def test_monomial_pass_compares_columns_orders_and_phases():
    # P^k has entries 1 only, so a wrong composition shows in the columns
    pr = HWParams(4)
    P = cache(lambda k: p_matrix(pr) ** (k % 4))
    pairs = [(k, l) for k in range(4) for l in range(4)]
    for compose in (lambda k, l: k + l, lambda k, l: k + l + 1):
        got = _law(pairs, P, compose, None)
        assert got == _law(pairs, P, compose, None, _pair_law_reference)
    assert json.loads(_law(pairs, P, lambda k, l: k + l + 1, None))["checks_run"] == 16
    # omega_16^8 = -1 lies outside order 8, and one member of order 16:
    # the pairs still compare exactly
    Q = cache(lambda k: q_matrix(pr) ** (k % 4))
    wide = cache(lambda k: Q(k)._promoted(16) if k == 2 else Q(k))
    for op, phase in ((Q, (16, lambda k, l: 8)), (wide, None)):
        got = _law(pairs, op, lambda k, l: k + l, phase)
        assert got == _law(pairs, op, lambda k, l: k + l, phase, _pair_law_reference)
    assert len(json.loads(_law(pairs, Q, lambda k, l: k + l, (16, lambda k, l: 8)))["failures"]) == 16


@pytest.mark.parametrize("flaw", ["coefficient", "scale"])
@pytest.mark.parametrize("shift", [8, 56])
def test_mixed_scales_compare_exactly(shift, flaw):
    # 2^-k Q^k: every member has its own scale; op(4) carries an extra
    # 2^-(4 + shift) in one coefficient (below float resolution at shift 56),
    # or the right coefficients at the wrong scale 4 + shift
    Q = q_matrix(HWParams(8))

    @cache
    def op(k):
        m = Q**k
        if k != 4:
            return OpMatrix(8, "exact", coeffs=m.coeffs, order=m.order, scale_log2=k)
        coeffs = m.coeffs << shift if flaw == "coefficient" else m.coeffs.copy()
        coeffs[0, 0, 1] += flaw == "coefficient"
        return OpMatrix(8, "exact", coeffs=coeffs, order=m.order, scale_log2=4 + shift)

    pairs = [(k, l) for k in range(4) for l in range(4)]
    got = json.loads(_law(pairs, op, lambda k, l: k + l, None))
    assert {op(k).scale_log2 for k in range(7)} == set(range(7)) - {4} | {4 + shift}
    assert [f["inputs"] for f in got["failures"]] == [
        {"x": k, "y": l} for k, l in pairs if k + l == 4
    ]
    assert got == json.loads(_law(pairs, op, lambda k, l: k + l, None, _pair_law_reference))


def test_stacked_pass_meets_products_with_even_coefficients():
    # (1 + w^2)(1 - w^2) = 2 in Z[w_8]: the product's coefficients are all
    # even while 2 I is stored as 1 at scale -1
    def diag(*coeffs):
        return OpMatrix(2, "exact", coeffs=np.array([[coeffs, [0] * 4], [[0] * 4, coeffs]]))

    mats = {"a": diag(1, 0, 1, 0), "b": diag(1, 0, -1, 0), "ab": diag(2, 0, 0, 0)}
    assert mats["ab"].scale_log2 == -1
    pairs = [("a", "b"), ("b", "a")]
    got = _law(pairs, mats.__getitem__, lambda x, y: "ab", None)
    assert json.loads(got)["passed"] and json.loads(got)["checks_run"] == 2
    assert got == _law(pairs, mats.__getitem__, lambda x, y: "ab", None, _pair_law_reference)


# -- the heisenberg commutator law: stacked product laws against the per-pair check


def test_only_exact_heisenberg_builds_a_table(monkeypatch):
    # float runs compare pair by pair and build no table: one of all N^3
    # elements would hold 2^24 entries at n = 6
    tables = []

    def spy(*args):
        tables.append(real(*args))
        return tables[-1]

    real = harness._SupportTable
    monkeypatch.setattr(harness, "_SupportTable", spy)
    calls = _spy_support_law(monkeypatch)
    for params in ({"n": 4, "samples": 50}, {"n": 2, "backend": "float"}):
        rep = run_suite(SuiteSpec("heisenberg", params))
        assert rep.passed and rep.params["backend"] == "float"
    assert tables == [] and calls == []
    assert run_suite(SuiteSpec("heisenberg", {"n": 2})).passed
    assert [t.cols.shape for t in tables] == [(64, 4)] and len(calls) == 2


def _count_compares(monkeypatch):
    """The (g, h) of every per-pair commutator comparison made."""
    calls = []

    def spy(gamma, pr, backend, tol, g, h):
        calls.append((g, h))
        return real(gamma, pr, backend, tol, g, h)

    real = harness._commutator_compare
    monkeypatch.setattr(harness, "_commutator_compare", spy)
    return calls


def _per_pair_json(monkeypatch, params):
    """The heisenberg report with every pair left to the per-pair check."""
    with monkeypatch.context() as m:
        m.setattr(harness, "_support_law", lambda table, left, *rest: np.zeros(len(left), bool))
        return run_suite(SuiteSpec("heisenberg", params)).to_json()


HEISENBERG_SAMPLED = [
    {"n": n, "p": p, "exhaustive": False, "samples": 300, "seed": 5}
    for n in (1, 2, 3) for p in range(1, 2**n, 2)
]


@pytest.mark.parametrize("params", [{"n": 1}] + HEISENBERG_SAMPLED)
def test_heisenberg_stacked_laws_match_the_per_pair_check(params, monkeypatch):
    calls = _count_compares(monkeypatch)
    got = run_suite(SuiteSpec("heisenberg", params)).to_json()
    assert calls == [] and json.loads(got)["passed"]
    assert got == _per_pair_json(monkeypatch, params)
    assert len(calls) == params.get("samples", 64)


def test_passing_exact_heisenberg_never_compares_per_pair(monkeypatch):
    # a silent drop to the per-pair path would cost 4096 comparisons here
    calls = _count_compares(monkeypatch)
    for p in (1, 3):
        rep = run_suite(SuiteSpec("heisenberg", {"n": 2, "p": p}))
        assert rep.passed and rep.checks_run == 4 + 64**3
    assert calls == []


@pytest.mark.parametrize("params", [{"n": 2, "p": 3}, {"n": 3, "p": 5}])
@pytest.mark.parametrize("flaw", ["on-support", "swapped", "exponent"])
def test_heisenberg_flaws_report_like_the_per_pair_check(flaw, params, monkeypatch):
    # on-support: the phase of row 0 of Gamma(1, 2, 3) moves by omega.
    # swapped: Gamma(1, 2, 3) X and X^-1 Gamma(0, 1, 2) for X = Q keep
    # Gamma(g) Gamma(h) of that pair, so only the swapped law sees its
    # commutator fail.  Both are phased permutations, written at the support
    # formula that the table and gamma_p read.  exponent: the stacked laws
    # get a wrong phase for g = (1, 2, 3), and every pair they flag must
    # pass per pair.
    key, other = (1, 2, 3), (0, 1, 2)
    N = 2 ** params["n"]
    if flaw == "exponent":
        real = harness._support_law
        row = N * (N * key[0] + key[1]) + key[2]

        def wrong(table, left, right, out, phase):
            return real(table, left, right, out, phase + (left == row))

        monkeypatch.setattr(harness, "_support_law", wrong)
    else:
        real = heisenberg._gamma_support

        def perturbed(pr, m, r, s):
            cols, exponents = real(pr, m, r, s)
            m, r, s = np.asarray(m), np.asarray(r), np.asarray(s)
            at_key = (m == key[0]) & (r == key[1]) & (s == key[2])
            if flaw == "on-support":
                exponents[..., 0] += at_key
            else:  # Q multiplies column j by omega^{p j}, Q^-1 row k by omega^{-p k}
                at_other = (m == other[0]) & (r == other[1]) & (s == other[2])
                k = np.arange(pr.N)
                exponents += pr.p * (cols * at_key[..., None] - k * at_other[..., None])
            return cols, exponents % pr.N

        monkeypatch.setattr(heisenberg, "_gamma_support", perturbed)
        monkeypatch.setattr(harness, "_gamma_support", perturbed)
    want = json.loads(_per_pair_json(monkeypatch, params))
    calls = _count_compares(monkeypatch)
    got = json.loads(run_suite(SuiteSpec("heisenberg", params)).to_json())
    assert got["failures"] == want["failures"]
    assert got["max_abs_deviation"] == want["max_abs_deviation"]
    assert got == want
    if flaw == "exponent":
        assert got["passed"] and calls and all(key in (g, h) for g, h in calls)
        return
    assert got["failures"] and got["max_abs_deviation"] > 0.0
    pairs = 4096 if params["n"] == 2 else 1000
    gh = lambda g, h: tuple((a + b) % N for a, b in zip(g, h))  # noqa: E731
    # only pairs touching a changed Gamma are flagged
    changed = {key, other} if flaw == "swapped" else {key}
    assert 0 < len(calls) < pairs
    assert all(changed & {g, h, gh(g, h)} for g, h in calls)
    if flaw == "swapped" and params["n"] == 2:
        assert {"g": list(key), "h": list(other)} in [f["inputs"] for f in got["failures"]]
    if params["n"] == 3:  # sampled: a failure shows the triples as drawn, in [0, 2N)
        rng = random.Random(7)
        drawn = [[[rng.randrange(2 * N) for _ in range(3)] for _ in "gh"] for _ in range(1000)]
        shown = [[f["inputs"]["g"], f["inputs"]["h"]] for f in got["failures"]]
        assert all(pair in drawn for pair in shown) and max(max(g + h) for g, h in shown) >= N
