"""Tests of the benchmark itself: `python3 -m pytest -q perfbench`."""
from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
import child  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1, 7)


@pytest.fixture(scope="module")
def package():
    return child.load_package()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_operations(workload):
    assert workloads.operations(workload, 5) == workloads.operations(workload, 5)
    ops = workloads.operations(workload, 5)
    assert all(" " not in arg for argv in ops for arg in argv)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_order_and_signs_not_size(workload):
    lists = [workloads.operations(workload, seed) for seed in SEEDS]
    assert len({len(ops) for ops in lists}) == 1
    assert len({tuple(map(tuple, ops)) for ops in lists}) == len(lists)
    if workload != "series-expand":
        # the same operations, permuted
        assert len({frozenset(map(tuple, ops)) for ops in lists}) == 1
        return
    # the same templates, each with every sign pattern
    shapes = set()
    for seed in SEEDS:
        specs = workloads.series_specs(random.Random(f"series-expand:{seed}"))
        shapes.add(frozenset(Counter(
            (inverted, tuple((sign, stride, offset, power) for _, groups in terms
                             for sign, stride, offset, power in groups))
            for inverted, _, terms in specs).items()))
    assert len(shapes) == 1


def test_verify_ids_are_the_suite(package):
    _, modules = package
    assert list(workloads.VERIFY_IDS) == modules["verify"].suite_ids()


def test_every_lru_cache_is_discovered(package):
    declared = child.declared_caches()
    assert declared, "no @lru_cache found in the source"
    assert set(child.discover_caches()) == declared


def test_series_oracle_agrees_with_the_program(package):
    _, modules = package
    order = 60
    for seed in (1, 2):
        for text, spec in workloads.series_spec_by_text(seed).items():
            series = modules["qseries"].parse_series_expr(text, order)
            assert list(series.coeffs) == workloads.expected_coefficients(spec, order), text


def test_reference_covers_the_default_seed():
    reference = child.load_reference()
    for workload in workloads.WORKLOADS:
        keys = {" ".join(a) for a in workloads.operations(workload, workloads.DEFAULT_SEED)}
        assert keys <= set(reference[workload])


SMALL_OPS = [
    ["census", "bdi", "--p", "4", "--q", "3", "--central", "both", "--check"],
    ["orbits", "bdi", "--p", "3", "--q", "3"],
    ["verify", "--suite", "tb1", "number1-k0", "--order", "12", "--sweep", "6"],
    ["series", "--expr", "inv(1/2*prod(1-x^{2s-1})^2)", "--order", "30"],
]


class _AcceptAll:
    def problem(self, argv, code, out, digest):
        return None if code == 0 else f"exit code {code}"


def _traced_pass(package):
    pkg, modules = package
    caches = child.discover_caches()
    for fn in caches.values():
        fn.cache_clear()
    sampler = calibration.Sampler()
    tracer = tracing.Tracer(pkg, modules, clock=sampler.clock)
    tracer.install()
    try:
        # functions imported by name are patched in every module that holds them
        assert modules["census"].enum_sigma_b is modules["diagrams"].enum_sigma_b
        assert modules["census"].enum_sigma_b.__wrapped__ is not None
        with sampler:
            result = child.run_pass(modules["cli"].main, SMALL_OPS, _AcceptAll(), None,
                                    sampler, tracer)
        return tracer.report(result["bytes_out"]), result
    finally:
        tracer.uninstall()
        assert not hasattr(modules["diagrams"].enum_sigma_b, "__wrapped__")


def test_traced_counts_repeat_and_self_times_cover_the_root(package):
    (first, accounting), result = _traced_pass(package)
    (second, _), _ = _traced_pass(package)
    assert result["failures"] == []
    assert accounting["balanced"]
    layers = sum(first[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers + first["harness.unattributed_s"] == pytest.approx(accounting["root_s"])
    exact = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    for key in ("diagrams.items", "census.strata", "verify.checks", "verify.cells",
                "qseries.coeffs", "cli.bytes_out", "qseries.mul_binomial.calls"):
        assert first[key] > 0, key
    assert first["verify.checks"] == 2


def test_benchmark_json_names_every_traced_metric(package):
    (metrics, _), _ = _traced_pass(package)
    caches = {f"{layer.split('.')[0]}.cache_{kind}"
              for layer in child.discover_caches() for kind in ("hits", "misses")}
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    cold = set(metrics) | caches
    assert declared == cold | {f"warm.{name}" for name in cold} | {"trace.overhead_ratio"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_each_operation_is_scaled_by_the_speed_sampled_while_it_ran(package):
    _, modules = package
    with calibration.Sampler() as sampler:
        result = child.run_pass(modules["cli"].main, SMALL_OPS, _AcceptAll(), None, sampler)
    assert result["failures"] == []
    assert sampler.samples and sampler.spent > 0
    assert len(result["op_scaled_s"]) == len(SMALL_OPS)
    assert all(s > 0 for s in result["op_scaled_s"])
    assert result["scaled_s"] == pytest.approx(sum(result["op_scaled_s"]))


def test_sampler_samples_inside_a_running_call():
    with calibration.Sampler() as sampler:
        t0, last = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 6 * calibration.INTERVAL_S:
            now = sampler.clock()
            assert now >= last
            last = now
    inside = [mid for mid, _ in sampler.samples if mid > t0]
    assert len(inside) >= 3
    assert sampler.clock() == pytest.approx(time.perf_counter() - sampler.spent, abs=0.01)


def test_sampler_scales_by_the_samples_inside_an_interval_or_the_nearest():
    sampler = calibration.Sampler()
    ref = calibration.REFERENCE_S
    sampler.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, 2 * ref),
                       (4.0, 4 * ref), (9.0, ref)]
    # four samples inside [0.5, 4.5]: speeds 1/2, 1/2, 1/2, 1/4 of reference
    assert sampler.scaled(1.0, 0.5, 4.5) == pytest.approx(0.4375)
    # none inside [8.0, 8.5]: the three nearest are at 9, 4 and 3
    assert sampler.scaled(1.0, 8.0, 8.5) == pytest.approx((1 + 0.25 + 0.5) / 3)
