"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import fqmrep  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Call  # noqa: E402

CONJUGATION = workloads.pass_calls("conjugation", 5, 0)[0]


def _report(call: Call, **changes) -> str:
    rep = {"suite": call.suite, "params": call.params, "checks_run": call.checks,
           "passed": True, "max_abs_deviation": 0.0, "failures": []}
    rep.update(changes)
    return json.dumps(rep, sort_keys=True, separators=(",", ":"))


def test_gate_accepts_a_right_report_and_names_each_wrong_one():
    assert workloads.gate(CONJUGATION, _report(CONJUGATION), {}, False) == []
    wrong = {
        "passed": _report(CONJUGATION, passed=False),
        "checks_run": _report(CONJUGATION, checks_run=CONJUGATION.checks - 1),
        "deviation": _report(CONJUGATION, max_abs_deviation=1e-300),
    }
    for what, text in wrong.items():
        assert len(workloads.gate(CONJUGATION, text, {}, False)) == 1, what
    hom = workloads.pass_calls("float-small", 5, 0)[0]
    assert hom.backend == "float"
    assert workloads.gate(hom, _report(hom, max_abs_deviation=1e-12), {}, False) == []
    assert workloads.gate(hom, _report(hom, max_abs_deviation=1e-6), {}, False)


def test_gate_pins_exact_report_bytes():
    text = _report(CONJUGATION)
    good = {CONJUGATION.key(): workloads.digest(text)}
    bad = {CONJUGATION.key(): workloads.digest(text + " ")}
    assert workloads.gate(CONJUGATION, text, good, True) == []
    assert workloads.gate(CONJUGATION, text, bad, False)
    assert workloads.gate(CONJUGATION, text, {}, True)  # the default seed needs a pin
    assert workloads.gate(CONJUGATION, text, {}, False) == []


def test_injected_wrong_report_counts_in_fail_ratio(monkeypatch, tmp_path, capsys):
    right = {"json": _report(CONJUGATION), "error": None}
    wrong = {"json": _report(CONJUGATION, passed=False), "error": None}
    raised = {"json": None, "error": "Traceback ...\nValueError: boom\n"}
    fake = {
        "passes": [{"slot": 0, "wall_s": w, "reports": [r]}
                   for w, r in ((1.0, right), (1.1, wrong), (1.2, right), (1.3, raised))],
        "reference_s": [reference.REFERENCE_S],
        "peak_rss_mb": 50.0,
        "env": {},
    }
    monkeypatch.setattr(run, "start_worker", lambda args, extra, env: (None, 0.25))
    monkeypatch.setattr(run, "finish", lambda proc, deadline, expect_output=True: fake if expect_output else None)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(workloads, "pass_calls", lambda w, seed, slot: [CONJUGATION])
    code = run.main(["--workload", "conjugation", "--seed", "5", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert (last["correct"], last["attempted"], last["failed"]) == (False, 4, 2)
    assert last["metrics"]["wall_s"]["value"] == pytest.approx(1.15)  # mean of 1.0 .. 1.3


SMALL = [
    Call("cocycle-twisted", {"n": 2, "p": 3}, "exact", 16 + 256),
    Call("metaplectic", {"n": 2, "p": 1, "samples": 2, "seed": 11}, "exact", 4 * 16),
    Call("homomorphism", {"N": 16, "samples": 1, "seed": 3}, "float", 1),
    Call("weil-odd", {"N": 3}, "float", 24 * 9 + 24 * 24),
    Call("heisenberg", {"n": 1, "p": 1}, "exact", 4 + 8**4),
    Call("feichtinger-defect", {"N": 4}, "float", workloads.FEICHTINGER_4_CHECKS),
]


def test_traced_pass_is_byte_identical_and_tracer_restores_fqmrep():
    originals = (fqmrep.harness.j_twisted, fqmrep.metaplectic.j_twisted,
                 fqmrep.harness.u_general, fqmrep.matrixcore.OpMatrix.__matmul__,
                 fqmrep.matrixcore.OpMatrix.__dict__["from_phase_table"])
    plain = worker.run_pass(SMALL)
    with tracer.Tracer() as tr:
        assert fqmrep.harness.j_twisted is not originals[0]
        assert fqmrep.metaplectic.j_twisted is not originals[1]
        marked = worker.run_pass(SMALL)
    assert [r["json"] for r in marked["reports"]] == [r["json"] for r in plain["reports"]]
    for call, rep in zip(SMALL, plain["reports"]):
        assert workloads.gate(call, rep["json"], {}, False) == [], call
    assert originals == (fqmrep.harness.j_twisted, fqmrep.metaplectic.j_twisted,
                         fqmrep.harness.u_general, fqmrep.matrixcore.OpMatrix.__matmul__,
                         fqmrep.matrixcore.OpMatrix.__dict__["from_phase_table"])
    metrics = tracer.layer_metrics(tr, marked["checks"], marked["wall_s"])
    assert set(metrics) == {name for name, _ in tracer.METRICS}
    assert metrics["harness.run_suite.calls"] == len(SMALL)
    assert metrics["magnetic.j_twisted.calls"] > 0
    assert metrics["matrixcore.matmul_exact.other.calls"] > 0  # dim 16 is not a named bucket
    assert metrics["matrixcore.matmul_exact.object_path"] == 0
    assert metrics["matrixcore.mat_eq.unequal"] == 0
    assert sum(metrics[f"metaplectic.u_general.{b}.calls"] for b in tracer.BRANCHES) > 0


def test_wrapper_returns_the_callee_result_itself():
    sentinel = object()
    assert tracer.Tracer()._wrap(lambda x: x, "any.name")(sentinel) is sentinel


def test_self_time_subtracts_child_spans():
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0), ("b", 5.0, 6.0, 0, 0)]
    calls, self_s = tracer.self_times(spans)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert dict(self_s) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_pass_calls_follow_the_seed_and_keep_the_stratum():
    assert workloads.pass_calls("exact-wide", 4, 2) == workloads.pass_calls("exact-wide", 4, 2)
    assert workloads.pass_calls("exact-wide", 4, 2) != workloads.pass_calls("exact-wide", 5, 2)
    call = workloads.pass_calls("exact-wide", 4, 2)[0]
    left = fqmrep.sample_sl2(16, call.params["samples"], call.params["seed"])
    right = fqmrep.sample_sl2(16, call.params["samples"], call.params["seed"] + 1)
    builds = {x.entries(): x for A, B in zip(left, right) for x in (A, B, A * B)}
    assert len(builds) == 3 * workloads.WIDE_SAMPLES
    assert sum(map(workloads._takes_sum_branch, builds.values())) == round(
        workloads.SUM_SHARE * 3 * workloads.WIDE_SAMPLES)


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    per_layer = tracer.METRICS + [("trace_overhead_ratio", "ratio")] + sweep.METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
