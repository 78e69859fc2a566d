"""Benchmark of fqmrep: time, memory and set-up to a verdict, per workload.

    python3 perfbench/run.py --workload exact-wide --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
src/ (nothing is installed).  Workloads and why they were chosen are in
workloads.py.  Each run starts fresh worker processes (worker.py) with
the BLAS thread count pinned to BLAS_THREADS:

--trace 0 prints the end-to-end metrics of one run:
  wall_s       mean seconds of one pass (first suite call to last
               report); the median, the pass count and, once at least
               20 passes exist, the highest percentile that keeps ten
               passes above it are printed beside it
  peak_rss_mb  ru_maxrss of the worker that ran the passes, in MB
  setup_s      median over SETUP_PROCESSES fresh processes of the time
               from starting the process through `import fqmrep` and
               warm-up to its first timed call
  fail_ratio   suite calls with a wrong report or an exception, over
               suite calls attempted; the JSON carries it as
               failed/attempted, not as a metric, since it is 0 on a
               correct program
wall_s and setup_s are scaled to the machine speed of reference.py
(the measured seconds and the factor are printed beside them); the
shared box they were defined on changes speed by up to 1.6x.  wall_s
is a mean, not a median, because that box's speed is bimodal: the
median pass jumps between the two modes as their mix changes, while
the mean pass and the mean reference time both move in proportion to
it, so their ratio holds still (over two sets of ten seeds the
run-to-run spread of conjugation fell from 5-19% to 4-5%).
--trace 1 prints the per-layer metrics (tracer.py, sweep.py) of a
separate traced run, including trace_overhead_ratio.

Every report passes the gate in workloads.py; the traced run also
requires its reports to be byte-identical to the untraced ones.  The
last stdout line is a JSON object with the keys correct, attempted,
failed and metrics; the exit code is 0 only if every check held.  A
record of the run, with the seed and the environment, is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
BLAS_THREADS = 1  # steadier than both cores of a shared 2-core box, at <10% cost
SETUP_PROCESSES = 8
RUN_LIMIT_S = 170.0
UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("FQM_SEED", None)
    return env


def start_worker(args, extra, env):
    """Start a worker and return (process, seconds until it printed 'ready')."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def stop(proc, timeout: float = 10.0) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout)


def finish(proc, deadline: float, expect_output: bool = True) -> dict | None:
    """Wait for a worker (killing it at the deadline) and parse its last line."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if expect_output else None


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p90/p99 that keeps at least ten samples above it."""
    for p in (99, 90, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def source_identity() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def check_passes(args, workloads, passes, pins) -> tuple[int, list[str]]:
    """Gate every report; return (failed calls, problem lines)."""
    failed, problems = 0, []
    for i, rec in enumerate(passes):
        calls = workloads.pass_calls(args.workload, args.seed, rec["slot"])
        for call, rep in zip(calls, rec["reports"], strict=True):
            if rep["error"] is not None:
                bad = ["raised: " + rep["error"].strip().splitlines()[-1]]
            else:
                bad = workloads.gate(call, rep["json"], pins, args.seed == workloads.DEFAULT_SEED)
            if bad:
                failed += 1
                problems += [f"pass {i} {call.key()}: {b}" for b in bad]
    return failed, problems


def traced_mismatches(plain: dict, traced: list[dict]) -> tuple[int, list[str]]:
    """Suite calls of traced passes whose report bytes differ from the untraced pass."""
    bad, lines = 0, []
    for i, rec in enumerate(traced):
        for j, (want, got) in enumerate(zip(plain["reports"], rec["reports"], strict=True)):
            if want["json"] != got["json"]:
                bad += 1
                lines.append(f"traced pass {i} call {j}: report bytes differ from the untraced pass")
    return bad, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fqmrep benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fqmrep" / "__init__.py").is_file():
        print(f"error: no fqmrep sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference
    import sweep
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    pins = json.loads((HERE / "pins.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()

    setup, setup_reference = [], []
    if not args.trace:
        for _ in range(SETUP_PROCESSES):
            setup_reference += reference.reference_block(0.0)
            proc, ready = start_worker(args, ["--setup-only"], env)
            finish(proc, deadline, expect_output=False)
            setup.append(ready)
    proc, _ = start_worker(args, [], env)
    result = finish(proc, deadline)

    passes = result["passes"] + result.get("traced_passes", [])
    failed, problems = check_passes(args, workloads, passes, pins)
    attempted = sum(len(rec["reports"]) for rec in passes)
    if args.trace:
        bad, lines = traced_mismatches(result["passes"][0], result["traced_passes"])
        failed += bad
        problems += lines
        metrics = result["metrics"]
    else:
        walls = [rec["wall_s"] for rec in result["passes"]]
        pass_speed = reference.REFERENCE_S / statistics.mean(result["reference_s"])
        setup_speed = reference.REFERENCE_S / statistics.mean(setup_reference)
        metrics = {
            "wall_s": statistics.mean(walls) * pass_speed,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup) * setup_speed,
        }
    correct = failed == 0
    env_record = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                  "blas_threads_set": BLAS_THREADS, **result["env"], **source_identity()}

    print(f"fqmrep benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env_record, sort_keys=True))
    for line in problems:
        print("FAIL " + line)
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g} (suite calls)")
    if args.trace:
        print(f"traced passes {len(result['traced_passes'])}, untraced passes {len(result['passes'])}")
        print("first traced pass, by self time: name, calls, self s")
        for name, calls, self_s in result["first_traced_layers"]:
            print(f"  {name:48s} {calls:9d} {self_s:10.4f}")
    else:
        walls = [rec["wall_s"] for rec in result["passes"]]
        tail = tail_percentile(walls)
        tail_text = f", p{tail[0]}={tail[1] * pass_speed:.6g} s" if tail else ", too few passes for a tail percentile"
        print(f"wall_s mean={metrics['wall_s']:.6g} s, median={statistics.median(walls) * pass_speed:.6g} s "
              f"over n={len(walls)} passes{tail_text} "
              f"(measured mean {statistics.mean(walls):.6g} s, speed factor {pass_speed:.4f})")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB")
        print(f"setup_s median={metrics['setup_s']:.6g} s over n={len(setup)} processes "
              f"(measured {statistics.median(setup):.6g} s, speed factor {setup_speed:.4f})")

    units = dict(tracer.METRICS + sweep.METRICS + [("trace_overhead_ratio", "ratio")]) if args.trace else UNITS
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env_record, "problems": problems, "result": line,
              "pass_walls": [rec["wall_s"] for rec in passes], "setup_samples": setup,
              "reference_samples": result.get("reference_s", []), "setup_reference_samples": setup_reference}
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
