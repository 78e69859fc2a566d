"""Workloads of the fqmrep benchmark and the correctness gate on their reports.

A pass of a workload is a short list of suite calls made through the
public API (`fqmrep.harness.run_suite`).  The calls of pass `slot` are a
pure function of (workload, seed, slot); a run cycles through SLOTS
slots, so a longer run repeats inputs instead of inventing new ones.

Why each workload exists:

- cocycle-monomial: `cocycle-twisted` at n = 3 (exact, dim 64, L = 4) for
  a seeded odd p.  Every product is phased permutation x phased
  permutation, so time sits in `scalar_mul` and exact `@`; builders run
  only N^2 times per call.
- conjugation: `metaplectic` at n = 3, p = 1 on seeded sampled elements:
  monomial J x dense U products and the per-check `j_twisted` rebuilds.
- exact-wide: `homomorphism` at N = 16 with backend "exact": dense x dense
  exact `@` at dim 256, L = 8, the exact d-odd-sum builder and peak memory.
- float-small: `homomorphism` at N = 16 on its default float backend,
  `weil-odd` at N = 7, `heisenberg` at n = 2 (exhaustive) and
  `feichtinger-defect` at N = 4: tens of thousands of tiny checks, where
  per-call overhead shows first.  No exact product at dim >= 64 runs here.

The d-odd-sum builder costs about 20x the other closed-form branches,
and the share of sampled elements that take it swings by about a
quarter from seed to seed.  The homomorphism workloads therefore draw
the suite seed from the run seed until the pass holds exactly 3 x
samples distinct builds of which the expected share take that branch
(a stratified draw); which elements are drawn still follows the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from fqmrep.sl2 import SL2Element, sample_sl2

WORKLOADS = ("cocycle-monomial", "conjugation", "exact-wide", "float-small")
DEFAULT_SEED = 1
SLOTS = 8
FLOAT_TOL = 1e-9  # the suites' default comparison tolerance

# sample_sl2 at N = 16 puts 35.6% of the distinct elements of a
# homomorphism pass (A, B and AB over 2000 seeds of 10 samples) in the
# d-odd-sum branch; a uniform draw from SL2(Z_16) would put 29.2% there.
SUM_SHARE = 0.356
# Passes are kept short (about 1 s where the suite allows) so a run
# holds many of them and averages over the machine's speed changes.
CONJUGATION_SAMPLES = 2
WIDE_SAMPLES = 3
FLOAT_SAMPLES = 4

# Check counts of the deterministic float suites, measured at the seed
# commit: weil-odd N=7 checks |SL2(Z_7)| * 7^2 conjugations (no pair scan
# at this order); heisenberg n=2 runs 4 identities plus 64^2 exhaustive
# pairs counted 64 times each; feichtinger-defect N=4 enumerates all 48
# elements, so its count does not depend on a seed.
WEIL_ODD_7_CHECKS = 336 * 7 * 7
HEISENBERG_2_CHECKS = 4 + 64 * 64 * 64
FEICHTINGER_4_CHECKS = 322


@dataclass(frozen=True)
class Call:
    """One suite call of a pass, with what its report must show."""

    suite: str
    params: dict
    backend: str
    checks: int

    def key(self) -> str:
        return json.dumps([self.suite, self.params], sort_keys=True)


def _takes_sum_branch(A: SL2Element) -> bool:
    # the precondition of the d-odd-sum closed form: d odd, c != 0, c/d even
    a, b, c, d = A.entries()
    return d % 2 == 1 and c % A.N != 0 and (c * pow(d, -1, A.N)) % 2 == 0


def _stratified_seed(rng: random.Random, N: int, samples: int) -> int:
    want_sum = round(SUM_SHARE * 3 * samples)
    while True:
        seed = rng.randrange(2**31)
        left, right = sample_sl2(N, samples, seed), sample_sl2(N, samples, seed + 1)
        builds = {x.entries(): x for A, B in zip(left, right) for x in (A, B, A * B)}
        if len(builds) == 3 * samples and sum(map(_takes_sum_branch, builds.values())) == want_sum:
            return seed


def pass_calls(workload: str, seed: int, slot: int) -> list[Call]:
    """The suite calls of one pass; the same arguments give the same calls."""
    rng = random.Random(f"{workload}/{seed}/{slot}")
    if workload == "cocycle-monomial":
        N = 8
        return [Call("cocycle-twisted", {"n": 3, "p": rng.choice((1, 3, 5, 7))}, "exact", N**2 + N**4)]
    if workload == "conjugation":
        params = {"n": 3, "p": 1, "samples": CONJUGATION_SAMPLES, "seed": rng.randrange(2**31)}
        return [Call("metaplectic", params, "exact", (2 + CONJUGATION_SAMPLES) * 8**2)]
    if workload == "exact-wide":
        params = {
            "N": 16, "backend": "exact", "samples": WIDE_SAMPLES,
            "seed": _stratified_seed(rng, 16, WIDE_SAMPLES),
        }
        return [Call("homomorphism", params, "exact", WIDE_SAMPLES)]
    if workload == "float-small":
        hom = {"N": 16, "samples": FLOAT_SAMPLES, "seed": _stratified_seed(rng, 16, FLOAT_SAMPLES)}
        return [
            Call("homomorphism", hom, "float", FLOAT_SAMPLES),
            Call("weil-odd", {"N": 7}, "float", WEIL_ODD_7_CHECKS),
            Call("heisenberg", {"n": 2, "p": rng.choice((1, 3))}, "exact", HEISENBERG_2_CHECKS),
            Call("feichtinger-defect", {"N": 4}, "float", FEICHTINGER_4_CHECKS),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def digest(report_json: str) -> str:
    return hashlib.sha256(report_json.encode()).hexdigest()


def gate(call: Call, report_json: str, pins: dict, require_pin: bool) -> list[str]:
    """Problems with one report; an empty list means the report is right.

    Exact reports must also match the digest pinned for their call when
    one exists, and must have one when `require_pin` (the default seed).
    Float reports are never pinned: their last-bit deviations may move
    under a correct change or another BLAS thread count.
    """
    rep = json.loads(report_json)
    problems = []
    if rep.get("suite") != call.suite:
        problems.append(f"suite {rep.get('suite')!r} != {call.suite!r}")
    if rep.get("passed") is not True:
        problems.append("report did not pass")
    if rep.get("checks_run") != call.checks:
        problems.append(f"checks_run {rep.get('checks_run')} != {call.checks}")
    dev = rep.get("max_abs_deviation")
    if call.backend == "exact":
        if dev != 0.0:
            problems.append(f"exact deviation {dev!r} != 0.0")
        pin = pins.get(call.key())
        if pin is None:
            if require_pin:
                problems.append("no pinned digest at the default seed")
        elif digest(report_json) != pin:
            problems.append("report bytes differ from the pinned digest")
    elif not (isinstance(dev, float) and dev <= FLOAT_TOL):
        problems.append(f"float deviation {dev!r} > {FLOAT_TOL}")
    return problems
