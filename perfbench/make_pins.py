"""Write pins.json: digests of every exact report the default seed produces.

    PYTHONPATH=src python3 perfbench/make_pins.py

The pins in the repository were made at the commit that introduced the
benchmark.  They stand for the reports that commit produced; making them
again from a later commit pins whatever that commit does, so a changed
report is a finding to explain, not a pin to refresh.
"""

from __future__ import annotations

import json
import os

from fqmrep.harness import SuiteSpec, run_suite

import workloads


def main() -> None:
    pins = {}
    for workload in workloads.WORKLOADS:
        for slot in range(workloads.SLOTS):
            for call in workloads.pass_calls(workload, workloads.DEFAULT_SEED, slot):
                if call.backend == "exact" and call.key() not in pins:
                    report = run_suite(SuiteSpec(call.suite, dict(call.params)))
                    pins[call.key()] = workloads.digest(report.to_json())
                    print(workload, slot, call.key(), flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
