"""The sheaf-census benchmark.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; `sheaf_census` is imported from `src/`,
nothing is installed. Each measurement runs in a fresh interpreter
(child.py), one after another. The last stdout line is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the line before it
holds the details: machine facts, every pass's wall, scaled and CPU seconds,
cache counts, the combined output digest and any failures.

Times are scaled seconds: wall seconds scaled, by the CPU speed sampled while
they ran, to the speed at which the calibration work of calibration.py takes
its REFERENCE_S, so that a shared CPU's slow spells do not read as a slower
program.

--trace 0 starts fresh processes, each running one cold and one warm pass,
for as long as --seconds allows (at least one), and reports:
  cold_s        scaled seconds of one pass with every lru_cache cleared
                first, each operation's median over the processes, summed
  warm_s        the same for the pass repeated at once with the caches kept
  setup_s       median scaled seconds for a fresh interpreter to import
                sheaf_census and sheaf_census.cli, sampled between the
                processes
  peak_rss_mib  median peak resident memory of the processes
The failed ratio is `failed` over `attempted`; it is printed with the rest.

--trace 1 runs one untraced cold pass and one traced cold and warm pass, and
reports the per-layer metrics of tracer.py: those of the cold pass under
their plain names, those of the warm pass prefixed `warm.`, and
`trace.overhead_ratio`, the traced over the untraced cold scaled seconds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES_PER_PROCESS = 6
# A run must end within 180 seconds; a process still running at this point
# of the run is killed and the run fails without a result.
RUN_LIMIT_S = 170
START = time.perf_counter()
SPANS_DIR = HERE / "out"
# prints the import's wall seconds, then those of the calibration work after it
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import sheaf_census, sheaf_census.cli; t = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); import calibration; calibration.seconds(); "
    "print(t, calibration.seconds())")


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "platform": platform.platform()}


def _run(argv: list[str]) -> str:
    """Run a fresh interpreter to completion and return its stdout."""
    remaining = RUN_LIMIT_S - (time.perf_counter() - START)
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=max(remaining, 1), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_child(args: list[str]) -> dict:
    return json.loads(_run([str(HERE / "child.py"), *args]).strip().splitlines()[-1])


def import_seconds() -> tuple[float, float]:
    """Wall seconds of the import, and the same scaled to reference speed."""
    wall, work = map(float, _run(["-c", IMPORT_SNIPPET, str(ROOT / "src"), str(HERE)]).split())
    return wall, calibration.scaled(wall, work)


def pass_seconds(children: list[dict], index: int) -> float:
    """Scaled seconds of one pass: each operation's wall seconds scaled by the
    CPU speed sampled while it ran (calibration.py), its median taken over
    the processes, summed over the operations."""
    per_op = zip(*(c["passes"][index]["op_scaled_s"] for c in children))
    return sum(statistics.median(times) for times in per_op)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    """End-to-end metrics, the child results they came from, and details."""
    deadline = time.perf_counter() + seconds
    import_seconds()                    # compiles bytecode on a fresh checkout
    setup, children, durations = [], [], []
    while True:
        t0 = time.perf_counter()
        # sampled across the run, so one slow spell of a shared CPU moves
        # the median less
        setup.extend(import_seconds() for _ in range(SETUP_SAMPLES_PER_PROCESS))
        children.append(run_child(["--workload", workload, "--seed", str(seed),
                                   "--passes", "cold", "warm"]))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(durations) > deadline:
            break
    metrics = {
        "cold_s": (pass_seconds(children, 0), "s"),
        "warm_s": (pass_seconds(children, 1), "s"),
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "peak_rss_mib": (statistics.median(c["peak_rss_mib"] for c in children), "MiB"),
    }
    return metrics, children, {"setup_samples_s": setup}


def measure_traced(workload: str, seed: int) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics of one traced cold and warm pass."""
    common = ["--workload", workload, "--seed", str(seed)]
    plain = run_child([*common, "--passes", "cold"])
    traced = run_child([*common, "--passes", "cold", "warm", "--trace",
                        "--spans-dir", str(SPANS_DIR)])
    cold, warm = traced["passes"]
    metrics = {}
    for prefix, one_pass in (("", cold), ("warm.", warm)):
        for name, value in one_pass["layers"].items():
            metrics[prefix + name] = (value, tracing.unit_of(name))
        for layer, (hits, misses) in one_pass["cache"].items():
            metrics[f"{prefix}{layer}.cache_hits"] = (hits, "count")
            metrics[f"{prefix}{layer}.cache_misses"] = (misses, "count")
    metrics["trace.overhead_ratio"] = (cold["scaled_s"] / plain["passes"][0]["scaled_s"], "ratio")
    accounting = {kind: p["accounting"] for kind, p in (("cold", cold), ("warm", warm))}
    return metrics, [plain, traced], {"accounting": accounting}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sheaf-census benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sheaf_census" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no sheaf_census package under {ROOT / 'src'}\n")
        return 2

    facts = machine_facts()
    facts["loadavg_before"] = os.getloadavg()
    if args.trace:
        metrics, children, extra = measure_traced(args.workload, args.seed)
    else:
        metrics, children, extra = measure(args.workload, args.seed, args.seconds)
    facts["loadavg_after"] = os.getloadavg()

    passes = [p for c in children for p in c["passes"]]
    attempted = sum(p["ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    # every pass of every process must reproduce the first pass's bytes
    first = passes[0]["digest"]
    failed = sum(p["ops"] if p["digest"] != first else len(p["failures"]) for p in passes)
    balanced = all(a["balanced"] for a in extra.get("accounting", {}).values())

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(f"{'failed_ratio':36s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": facts, "digest": first, "caches": children[0]["caches"],
        "passes": [{k: p[k] for k in ("kind", "wall_s", "scaled_s", "cpu_s", "ops",
                                      "bytes_out", "cache")}
                   for p in passes],
        "peak_rss_mib": [c["peak_rss_mib"] for c in children],
        "failures": failures[:20], **extra}))
    print(json.dumps({
        "correct": failed == 0 and balanced,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
