"""Rewrite reference.json: the exit code and stdout SHA-256 of every operation
of each workload at the default seed.

    python3 perfbench/make_reference.py

Each output must first pass the same checks a benchmark run makes without a
reference (all checks PASS, `census --check` passes, series coefficients
equal the independent expansion), so a wrong output is never recorded. Only
regenerate it when a change means to alter the CLI output.
"""
from __future__ import annotations

import json
import sys

import calibration
import child
import workloads


def main() -> int:
    _, modules = child.load_package()
    reference = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.operations(workload, workloads.DEFAULT_SEED)
        checker = child.Checker(workload, workloads.DEFAULT_SEED)
        checker.reference = {}
        with calibration.Sampler() as sampler:
            result = child.run_pass(modules["cli"].main, ops, checker, None, sampler)
        if result["failures"]:
            json.dump(result["failures"], sys.stderr, indent=1)
            return 1
        reference[workload] = {" ".join(argv): digest
                               for argv, digest in zip(ops, result["digests"])}
    child.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
