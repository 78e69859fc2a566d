"""Spans around the public functions of fqmrep, installed from outside.

Modules import names directly (`from .magnetic import j_twisted`), so a
function is wrapped in every fqmrep module namespace that holds it, and
methods of OpMatrix / CycNum are wrapped on the class.  A wrapper times
the call, records a span (name, start, end, parent, run id) in memory
and returns the callee's result unchanged.

Some names are decided by the operands or the result: exact `@` is
bucketed by (dim, L) as `matmul_exact.d<dim>L<L>`, float `@` by dim,
and `u_general` by the closed-form branch it reports in `.meta`.
Before an exact `@` the wrapper reads the operands' largest
coefficients, as the product's own 2^52 guard does; that probe runs in
a `trace.probe` span of its own so no layer's self time includes it.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_EXACT_BOUND = 2**52  # float64 products are exact below this (matrixcore)

# (module, attribute) of every wrapped function; METHODS are wrapped on their class
FUNCTIONS = [
    ("fqmrep.heisenberg", "gamma_p"),
    ("fqmrep.magnetic", "j_odd"),
    ("fqmrep.magnetic", "j_twisted"),
    ("fqmrep.matrixcore", "mat_eq"),
    ("fqmrep.metaplectic", "u_general"),
    ("fqmrep.metaplectic", "verify_metaplectic"),
    ("fqmrep.metaplectic", "weil_odd_general"),
    ("fqmrep.weilmod", "chirp"),
    ("fqmrep.weilmod", "pi_shift"),
    ("fqmrep.weilmod", "feichtinger_u"),
    ("fqmrep.weilmod", "extract_psi"),
    ("fqmrep.weilmod", "find_nonhom_witness"),
    ("fqmrep.sl2", "enumerate_sl2"),
    ("fqmrep.sl2", "sample_sl2"),
    ("fqmrep.harness", "run_suite"),
]
METHODS = [
    ("fqmrep.matrixcore", "OpMatrix", "__matmul__", "matrixcore.matmul"),
    ("fqmrep.matrixcore", "OpMatrix", "__add__", "matrixcore.add"),
    ("fqmrep.matrixcore", "OpMatrix", "scalar_mul", "matrixcore.scalar_mul"),
    ("fqmrep.matrixcore", "OpMatrix", "dagger", "matrixcore.dagger"),
    ("fqmrep.matrixcore", "OpMatrix", "from_phase_table", "matrixcore.from_phase_table"),
    ("fqmrep.matrixcore", "OpMatrix", "to_complex_array", "matrixcore.to_complex_array"),
    ("fqmrep.exactnum", "CycNum", "root", "exactnum.CycNum.root"),
]

MATMUL_EXACT = ("d4L4", "d64L4", "d256L8")
MATMUL_FLOAT = ("d4", "d7", "d256")
BRANCHES = ("d-odd-triangular", "d-odd-reduced", "d-odd-sum", "d-even")

# layers reported as <layer>.calls (count) and <layer>.self_pct (self
# time as a share of the traced pass); unobserved buckets land in .other
LAYERS = (
    ["matrixcore.scalar_mul"]
    + [f"matrixcore.matmul_exact.{b}" for b in MATMUL_EXACT + ("other",)]
    + [f"matrixcore.matmul_float.{b}" for b in MATMUL_FLOAT + ("other",)]
    + [f"matrixcore.{op}" for op in ("add", "mat_eq", "dagger", "from_phase_table", "to_complex_array")]
    + [f"metaplectic.u_general.{b}" for b in BRANCHES]
    + ["metaplectic.verify_metaplectic", "metaplectic.weil_odd_general"]
    + ["magnetic.j_twisted", "magnetic.j_odd", "heisenberg.gamma_p"]
    + [f"weilmod.{f}" for f in ("chirp", "pi_shift", "feichtinger_u", "extract_psi", "find_nonhom_witness")]
    + ["sl2.enumerate_sl2", "sl2.sample_sl2", "exactnum.CycNum.root"]
)

METRICS = (
    [(f"{layer}.{stat}", unit) for layer in LAYERS for stat, unit in (("calls", "count"), ("self_pct", "%"))]
    + [
        ("matrixcore.matmul_exact.object_path", "count"),
        ("matrixcore.coeff_bits_max", "bit"),
        ("matrixcore.mat_eq.unequal", "count"),
        ("magnetic.j_twisted.per_check", "ratio"),
        ("harness.run_suite.calls", "count"),
        ("harness.run_suite.total_s", "s"),
        ("harness.self_pct", "%"),
        ("harness.checks", "count"),
    ]
)


def _bucket(name: str) -> str:
    for prefix, known in (
        ("matrixcore.matmul_exact.", MATMUL_EXACT),
        ("matrixcore.matmul_float.", MATMUL_FLOAT),
    ):
        if name.startswith(prefix) and name[len(prefix):] not in known:
            return prefix + "other"
    return name


class Tracer:
    """Wraps fqmrep while installed; one Tracer records one run id."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.coeff_bits_max = 0.0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # placeholder keeps parents before children
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.run_id)

    def _timed(self, name, fn, args, kwargs, rename=None):
        idx, parent = self._open()
        t0 = time.perf_counter()
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            self._close(idx, parent, rename(out) if rename and out is not None else name, t0)

    def _matmul_name(self, a, b) -> str:
        if not hasattr(b, "backend") or a.backend != b.backend:
            return "matrixcore.matmul"
        if a.backend == "float":
            return f"matrixcore.matmul_float.d{a.dim}"
        idx, parent = self._open()
        t0 = time.perf_counter()
        L = max(a.coeffs.shape[2], b.coeffs.shape[2])
        amax = int(np.abs(a.coeffs).max(initial=0))
        bmax = int(np.abs(b.coeffs).max(initial=0))
        bound = amax * bmax * a.dim * L
        if bound >= _EXACT_BOUND:
            self.counts["matrixcore.matmul_exact.object_path"] += 1
        if bound:
            self.coeff_bits_max = max(self.coeff_bits_max, math.log2(bound))
        self._close(idx, parent, "trace.probe", t0)
        return f"matrixcore.matmul_exact.d{a.dim}L{L}"

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name):
        if name == "matrixcore.matmul":
            @functools.wraps(fn)
            def wrapper(a, b):
                return self._timed(self._matmul_name(a, b), fn, (a, b), {})
        elif name == "metaplectic.u_general":
            def rename(out):  # meta reads "u(a,b,c,d)[<branch>]"
                return f"{name}.{out.meta.rsplit('[', 1)[-1].rstrip(']')}"

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._timed(name, fn, args, kwargs, rename)
        elif name == "matrixcore.mat_eq":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = self._timed(name, fn, args, kwargs)
                if not out.equal:
                    self.counts["matrixcore.mat_eq.unequal"] += 1
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._timed(name, fn, args, kwargs)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "fqmrep" or k.startswith("fqmrep.")]
        for modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(orig, f"{modname.split('.')[1]}.{attr}")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                self._set(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans) -> tuple[Counter, defaultdict]:
    """Calls and self seconds per span name (duration minus child spans)."""
    covered = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    calls, self_s = Counter(), defaultdict(float)
    for (name, t0, t1, _, _), child in zip(spans, covered):
        calls[name] += 1
        self_s[name] += (t1 - t0) - child
    return calls, self_s


def layer_metrics(tracer: Tracer, checks: int, pass_wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed as in METRICS."""
    calls, self_s = self_times(tracer.spans)
    by_layer_calls, by_layer_s = Counter(), defaultdict(float)
    for name in calls:
        by_layer_calls[_bucket(name)] += calls[name]
        by_layer_s[_bucket(name)] += self_s[name]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = by_layer_calls[layer]
        out[f"{layer}.self_pct"] = 100.0 * by_layer_s[layer] / pass_wall
    suite_total = sum(t1 - t0 for name, t0, t1, _, _ in tracer.spans if name == "harness.run_suite")
    out.update({
        "matrixcore.matmul_exact.object_path": tracer.counts["matrixcore.matmul_exact.object_path"],
        "matrixcore.coeff_bits_max": tracer.coeff_bits_max,
        "matrixcore.mat_eq.unequal": tracer.counts["matrixcore.mat_eq.unequal"],
        "magnetic.j_twisted.per_check": calls["magnetic.j_twisted"] / checks,
        "harness.run_suite.calls": calls["harness.run_suite"],
        "harness.run_suite.total_s": suite_total,
        "harness.self_pct": 100.0 * self_s["harness.run_suite"] / pass_wall,
        "harness.checks": checks,
    })
    return out


def write_spans(path, tracers) -> None:
    """Write the spans of every tracer as arrays; names are indices into `names`."""
    spans, offset = [], 0
    for t in tracers:  # parents index into their own tracer's list
        spans += [(n, t0, t1, p + offset if p >= 0 else -1, r) for n, t0, t1, p, r in t.spans]
        offset += len(t.spans)
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    np.savez(
        path,
        names=np.array(names),
        name=np.array([index[s[0]] for s in spans], dtype=np.int32),
        start=np.array([s[1] for s in spans]),
        end=np.array([s[2] for s in spans]),
        parent=np.array([s[3] for s in spans], dtype=np.int32),
        run=np.array([s[4] for s in spans], dtype=np.int32),
    )
