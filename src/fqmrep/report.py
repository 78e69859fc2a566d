"""Structured results for verification suites.

A report is deterministic for fixed inputs: failures are recorded in
scan order and the canonical dict omits the wall-clock field, so two
runs of the same suite serialize to identical bytes.  Laws over many keys
record through `VerifyReport.scan`, as if each key was compared alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

_SCAN_CHUNK = 4096  # keys of a key array read by a scan at a time


@dataclass
class Failure:
    identity: str
    inputs: dict
    deviation: float

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "inputs": self.inputs,
            "deviation": self.deviation,
        }


@dataclass
class VerifyReport:
    suite: str
    params: dict
    checks_run: int = 0
    failures: list[Failure] = field(default_factory=list)
    max_abs_deviation: float = 0.0
    runtime_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, deviation: float, identity: str, inputs: dict) -> None:
        self.checks_run += 1
        if deviation > self.max_abs_deviation:
            self.max_abs_deviation = deviation
        if not ok:
            self.failures.append(Failure(identity, inputs, deviation))

    def scan(self, identity, keys, compare, inputs, decide=None, weight=1) -> None:
        """Record one check per key, counted `weight` times, in scan order.

        `keys` is an array (arity, ..., count) read `_SCAN_CHUNK` keys at a
        time, key j's argument i being keys[i, ..., j]; anything else raises
        TypeError.  decide(*chunk), unless None, gives (equal, deviation) for
        a chunk at once; the keys it proves equal pass with their deviations.
        Each other key is compare(*key) -> (ok, deviation), named by
        inputs(*key).
        """
        if not isinstance(keys, np.ndarray):
            raise TypeError(f"scan reads an array of keys, got {type(keys).__name__}")
        for a in range(0, keys.shape[-1], _SCAN_CHUNK):
            size, todo = self._unproven(keys[..., a:a + _SCAN_CHUNK], decide)
            self.checks_run += weight * size - len(todo)  # record() counts one each
            for key in todo:
                ok, deviation = compare(*key)
                self.record(ok, deviation, identity, None if ok else inputs(*key))

    def _unproven(self, chunk: np.ndarray, decide) -> tuple[int, list]:
        # a chunk's size and the keys `decide` leaves, as argument tuples
        size = chunk.shape[-1]
        if decide is not None:
            equal, deviation = decide(*chunk)
            proven = float(np.where(equal, deviation, 0.0).max())
            self.max_abs_deviation = max(self.max_abs_deviation, proven)
            chunk = chunk[..., ~equal]
        keys = chunk.transpose(-1, *range(chunk.ndim - 1)).tolist()
        return size, keys if chunk.ndim == 2 else [tuple(map(tuple, key)) for key in keys]

    def to_dict(self, include_runtime: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "params": self.params,
            "checks_run": self.checks_run,
            "passed": self.passed,
            "max_abs_deviation": self.max_abs_deviation,
            "failures": [f.to_dict() for f in self.failures],
        }
        if include_runtime:
            out["runtime_ms"] = self.runtime_ms
        return out

    def to_json(self, include_runtime: bool = False) -> str:
        return json.dumps(
            self.to_dict(include_runtime), sort_keys=True, separators=(",", ":")
        )
