"""Child process of the fqmrep benchmark; started by run.py, not by hand.

It imports fqmrep, warms up, prints "ready" (the parent times set-up up
to that line) and then, unless --setup-only, runs passes of a workload
in a closed loop with one caller: each suite call starts only after the
previous one returned.  The last stdout line is one JSON object with
the raw results; run.py checks and summarizes them.

--trace 0: passes over slots 0, 1, ... until the next pass would end
past --seconds (at least MIN_PASSES passes), with a block of reference work
(reference.py) before each pass and after the last, then ru_maxrss of
this process.
--trace 1: slot 0 untraced for about half the window, then traced for
the rest (at least one of each), the kernel sweep, and the spans of the
traced passes written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import fqmrep
from fqmrep import harness
from fqmrep.exactnum import CycNum
from fqmrep.heisenberg import HWParams
from fqmrep.magnetic import j_twisted
from fqmrep.matrixcore import OpMatrix, mat_eq
from fqmrep.metaplectic import u_general
from fqmrep.sl2 import sl2_s

import reference
import sweep
import tracer
import workloads

MIN_PASSES = 2  # a cocycle-monomial pass takes most of a run; one pass alone spreads by 20%
REFERENCE_SHARE = 0.05  # reference work per pass, as a share of a typical pass
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def warm_up() -> None:
    """Fill the lru_cache tables for L = 4 and 8 and build once per backend."""
    for order in (8, 16):
        m = OpMatrix.identity(2, "exact", order)
        mat_eq((m @ m).scalar_mul(CycNum.root(order, 1)), m.dagger())
        m.kron(m)
    f = OpMatrix.identity(2, "float")
    mat_eq(f @ f, f)
    pr = HWParams(2, 1)
    for backend in ("exact", "float"):
        u_general(pr, sl2_s(2), backend) @ j_twisted(pr, (1, 1), backend)


def blas_info() -> dict:
    build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"vendor": build.get("name"), "version": build.get("version"), "threads": None}
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
    return info


def run_pass(calls) -> dict:
    reports, checks = [], 0
    t0 = time.perf_counter()
    for call in calls:
        try:  # a raising suite is a failed call, not the end of the run
            rep = harness.run_suite(harness.SuiteSpec(call.suite, dict(call.params)))
            reports.append({"json": rep.to_json(), "error": None})
            checks += rep.checks_run
        except Exception:
            reports.append({"json": None, "error": traceback.format_exc()})
    return {"wall_s": time.perf_counter() - t0, "reports": reports, "checks": checks}


def untraced(args) -> dict:
    passes, reference_s, typical = [], [], 0.0
    start = time.perf_counter()
    while True:
        reference_s += reference.reference_block(REFERENCE_SHARE * typical)
        slot = len(passes) % workloads.SLOTS
        rec = run_pass(workloads.pass_calls(args.workload, args.seed, slot))
        rec["slot"] = slot
        passes.append(rec)
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical > args.seconds:
            break
    reference_s += reference.reference_block(REFERENCE_SHARE * typical)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {"passes": passes, "reference_s": reference_s, "peak_rss_mb": peak_mb}


def traced(args) -> dict:
    calls = workloads.pass_calls(args.workload, args.seed, 0)
    start = time.perf_counter()
    plain, marked, tracers = [], [], []
    while not plain or time.perf_counter() - start < args.seconds / 2:
        plain.append(run_pass(calls))
    while not marked or time.perf_counter() - start < args.seconds:
        with tracer.Tracer(run_id=len(tracers)) as tr:
            rec = run_pass(calls)
        tracers.append(tr)
        marked.append(rec)
    layers = [tracer.layer_metrics(tr, rec["checks"], rec["wall_s"]) for tr, rec in zip(tracers, marked)]
    metrics = {name: statistics.median(m[name] for m in layers) for name, _ in tracer.METRICS}
    metrics["trace_overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in marked) / statistics.median(r["wall_s"] for r in plain)
    )
    metrics.update(sweep.kernel_sweep(args.seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"), tracers)
    for rec in plain + marked:
        rec["slot"] = 0
    counts, self_s = tracer.self_times(tracers[0].spans)
    table = sorted(((self_s[n], counts[n], n) for n in counts), reverse=True)
    return {
        "passes": plain,
        "traced_passes": marked,
        "metrics": metrics,
        "first_traced_layers": [[n, c, s] for s, c, n in table],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return
    out = traced(args) if args.trace else untraced(args)
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "fqmrep": fqmrep.__version__,
        "blas": blas_info(),
    }
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
