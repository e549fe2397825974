"""One fresh interpreter running passes of a workload; started by run.py.

    python3 perfbench/child.py --workload W --seed N --passes cold warm [--trace]

It imports `sheaf_census` from `src/` of the checkout, runs every operation
of the workload through `sheaf_census.cli.main` with stdout captured, and
prints one JSON object on its last stdout line. A cold pass starts with every
`lru_cache` of the package cleared; a warm pass repeats the operations with
the caches kept. Only the calls are timed; checking an output happens between
calls. With --trace the passes run under the span tracer of tracer.py.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def load_package():
    """Import the package from src/ and return (package, {layer: module})."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("sheaf_census")
    if Path(package.__file__).resolve().parent != SRC / "sheaf_census":
        raise RuntimeError(f"imported sheaf_census from {package.__file__}, not from {SRC}")
    modules = {layer: importlib.import_module(f"sheaf_census.{layer}")
               for layer in tracing.LAYERS}
    return package, modules


def discover_caches() -> dict[str, object]:
    """Every lru_cache of the loaded sheaf_census.* modules, as
    {"module.name": cached function}."""
    return {f"{module.__name__.split('.', 1)[1]}.{name}": obj
            for module in list(sys.modules.values())
            if module.__name__.startswith("sheaf_census.")
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
            and getattr(obj, "__module__", None) == module.__name__}


_LRU_DECORATOR = re.compile(r"^@(?:functools\.)?lru_cache\b.*\n(?:@.*\n)*def (\w+)", re.M)


def declared_caches(src_dir: Path = SRC / "sheaf_census") -> set[str]:
    """The lru_cache-decorated functions found in the package source."""
    return {f"{path.stem}.{name}"
            for path in sorted(src_dir.glob("*.py"))
            for name in _LRU_DECORATOR.findall(path.read_text())}


def cache_counts(caches: dict[str, object]) -> dict[str, list[int]]:
    """[hits, misses] per layer, summed over the layer's caches."""
    out: dict[str, list[int]] = {}
    for key, fn in caches.items():
        info = fn.cache_info()
        tally = out.setdefault(key.split(".", 1)[0], [0, 0])
        tally[0] += info.hits
        tally[1] += info.misses
    return out


def load_reference() -> dict[str, list]:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


class Checker:
    """Decides whether one operation's exit code and stdout are correct."""

    def __init__(self, workload: str, seed: int):
        self.reference = load_reference().get(workload, {})
        self.series_specs = (workloads.series_spec_by_text(seed)
                             if workload == "series-expand" else {})

    def problem(self, argv: list[str], code: int, out: str, digest: str) -> str | None:
        key = " ".join(argv)
        expected = self.reference.get(key)
        if expected is not None and [code, digest] != expected:
            return f"differs from the reference: exit {code}, sha256 {digest}"
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(out)["payload"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"stdout is not a JSON envelope: {exc}"
        if argv[0] == "verify":
            failing = [c["id"] for c in payload["checks"] if c["status"] != "PASS"]
            if failing or not payload["all_pass"] or not payload["checks"]:
                return f"checks not passing: {failing}"
        elif argv[0] == "census":
            if not payload["check"]["passed"]:
                return f"census --check failed: {payload['check']['mismatches']}"
        elif argv[0] == "orbits":
            if not payload["orbits"]:
                return "no orbits listed"
        elif argv[0] == "series":
            spec = self.series_specs.get(argv[2])
            if spec is None:
                return "series expression not generated by this seed"
            order = int(argv[4])
            want = [str(c) for c in workloads.expected_coefficients(spec, order)]
            got = [payload["coefficients"].get(str(k)) for k in range(order + 1)]
            if got != want:
                bad = next(k for k in range(order + 1) if got[k] != want[k])
                return f"coefficient x^{bad} is {got[bad]}, expected {want[bad]}"
        return None


def run_pass(main, ops, checker, previous, sampler, tracer=None) -> dict:
    """Run every operation once; time only the calls, leaving out the time
    `sampler` spends sampling the CPU's speed, and scale each call by the
    samples taken during it (calibration.py)."""
    cpu = 0.0
    walls, spans, digests, problems, failures, bytes_out = [], [], [], [], [], 0
    if tracer is not None:
        tracer.begin_pass()
    for i, argv in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        call = lambda: main(list(argv))  # noqa: E731
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c0, s0 = time.process_time(), sampler.spent
            t0, n0 = time.perf_counter(), sampler.clock()
            code = call() if tracer is None else tracer.run_op(i, call)
            n1, t1 = sampler.clock(), time.perf_counter()
            s1, c1 = sampler.spent, time.process_time()
        walls.append(n1 - n0)
        spans.append((t0, t1))
        cpu += c1 - c0 - (s1 - s0)
        text = out.getvalue()
        data = text.encode()
        bytes_out += len(data)
        digest = hashlib.sha256(data).hexdigest()
        digests.append([code, digest])
        if previous is None:
            problem = checker.problem(argv, code, text, digest)
        elif previous["digests"][i] != [code, digest]:
            problem = "output differs from the first pass"
        else:
            problem = previous["problems"][i]
        problems.append(problem)
        if problem:
            failures.append({"op": " ".join(argv), "problem": problem,
                             "stderr": err.getvalue()[-500:]})
    scaled = [sampler.scaled(w, t0, t1) for w, (t0, t1) in zip(walls, spans)]
    return {"wall_s": sum(walls), "op_wall_s": walls, "op_scaled_s": scaled,
            "scaled_s": sum(scaled), "cpu_s": cpu, "ops": len(ops),
            "digests": digests, "problems": problems, "failures": failures,
            "bytes_out": bytes_out}


def combined_digest(ops, digests) -> str:
    h = hashlib.sha256()
    for argv, (code, digest) in zip(ops, digests):
        h.update(f"{' '.join(argv)}\t{code}\t{digest}\n".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", nargs="+", choices=["cold", "warm"], required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-dir", default=None,
                        help="with --trace, write each pass's spans here")
    args = parser.parse_args(argv)

    package, modules = load_package()
    caches = discover_caches()
    ops = workloads.operations(args.workload, args.seed)
    checker = Checker(args.workload, args.seed)
    sampler = calibration.Sampler()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(package, modules, clock=sampler.clock)
        tracer.install()
    main_fn = modules["cli"].main
    calibration.seconds()               # the first run pays one-off costs

    passes, first = [], None
    with sampler:
        for kind in args.passes:
            if kind == "cold":
                for fn in caches.values():
                    fn.cache_clear()
            before = cache_counts(caches)
            result = run_pass(main_fn, ops, checker, first, sampler, tracer)
            after = cache_counts(caches)
            result["kind"] = kind
            result["cache"] = {layer: [after[layer][0] - before[layer][0],
                                       after[layer][1] - before[layer][1]]
                               for layer in after}
            if first is None:
                first = {"digests": result["digests"], "problems": result["problems"]}
            result["digest"] = combined_digest(ops, result.pop("digests"))
            del result["problems"]
            if tracer is not None:
                result["layers"], result["accounting"] = tracer.report(result["bytes_out"])
                if args.spans_dir:
                    Path(args.spans_dir).mkdir(parents=True, exist_ok=True)
                    tracer.dump(Path(args.spans_dir) / f"spans-{args.workload}-{kind}.bin")
            passes.append(result)
    if tracer is not None:
        tracer.uninstall()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "caches": sorted(caches),
        "passes": passes,
        "peak_rss_mib": usage.ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
