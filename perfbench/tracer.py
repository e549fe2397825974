"""Span tracing of the package's layers, installed from outside the program.

Every public function of the seven modules, and the four series-kernel
methods listed in METHODS, is replaced by a wrapper that records a span:
the function, its start and end, the span that called it and the operation
it ran under. The wrapper is bound in every module of the package that holds
the function, because `census` and `groups` import from `diagrams` by name.

Spans live in flat arrays and are turned into per-layer figures after a pass.
A span's self time is its duration minus the durations of its child spans.
Private helpers are not wrapped, so their time is self time of the public
function that called them; the partition generator `_gen_partitions`, for
instance, is counted in `diagrams`.
"""
from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("partitions", "qseries", "diagrams", "groups", "census", "verify", "cli")
METHODS = (("qseries", "FormalSeries", "mul_binomial"),
           ("qseries", "FormalSeries", "__mul__"),
           ("qseries", "FormalSeries", "inverse"),
           ("qseries", "BiSeries", "mul_binomial"))
ROOT = "harness.op"
CENSUS_ENUMERATORS = ("census.census_bdi_k0", "census.census_bdi_k1", "census.census_diii")
# Per-function self times reported as metrics, keyed by metric prefix; a
# prefix may sum several functions.
NAMED_SELF = {
    "diagrams.enum_sigma": ("diagrams.enum_sigma",),
    "diagrams.enum_sigma_b": ("diagrams.enum_sigma_b",),
    "diagrams.enum_lambda": ("diagrams.enum_lambda",),
    "qseries.mul_binomial": ("qseries.FormalSeries.mul_binomial",
                             "qseries.BiSeries.mul_binomial"),
    "qseries.parse": ("qseries.parse_series_expr",),
    "groups.pi_size": ("groups.pi_size",),
}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("bytes_out") else "count"


def public_functions(module) -> dict[str, object]:
    """Public module-level functions (lru-cached ones included) defined in
    `module` itself, by name."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__}


class Tracer:
    """Records spans while installed; `report()` turns them into metrics."""

    def __init__(self, package, modules: dict[str, object], clock=time.perf_counter):
        self.package = package
        self.clock = clock              # seconds; spans are timed with it
        self.modules = modules          # layer name -> module
        self.names = [ROOT]             # function id -> "layer.qualname"
        self.counts = Counter()         # work counts of the current pass
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals = {}                  # id(original) -> wrapper
        for layer, module in self.modules.items():
            for name, fn in public_functions(module).items():
                originals[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        targets = [self.package, *self.modules.values()]
        for module in targets:
            for name, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)
        for layer, cls_name, attr in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, f"{layer}.{cls_name}.{attr}"))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        count = self._counter_for(name)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.start)
            self.fid.append(fid)
            self.parent.append(self.stack[-1])
            self.op.append(self.current_op)
            self.end.append(0.0)
            self.stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self.stack.pop()
            if count is not None:
                count(result)
            return result
        return wrapper

    def _counter_for(self, name: str):
        """What a call of `name` adds to the work counts, if anything."""
        layer = name.split(".", 1)[0]
        counts = self.counts
        if layer == "diagrams":
            diagram_type = self.modules["diagrams"].SignedYoungDiagram
            return lambda r: counts.update({"diagrams.items": _instances(r, diagram_type)})
        if layer == "partitions":
            types = (self.modules["partitions"].Partition,
                     self.modules["partitions"].BiPartition)
            return lambda r: counts.update({"partitions.items": _instances(r, types)})
        if layer == "qseries":
            qs = self.modules["qseries"]
            return lambda r: counts.update({"qseries.coeffs": _series_cells(r, qs)})
        if name in CENSUS_ENUMERATORS:
            report_type = self.modules["census"].CensusReport
            return lambda r: counts.update({"census.strata": sum(
                len(x.entries) for x in (r if isinstance(r, tuple) else (r,))
                if isinstance(x, report_type))})
        if name == "verify.run_suite":
            def count_checks(results):
                counts["verify.checks"] += len(results)
                counts["verify.cells"] += sum(int(r.scope.split(" cells", 1)[0])
                                              for r in results)
            return count_checks
        return None

    # -- recording ----------------------------------------------------------

    def begin_pass(self) -> None:
        self._reset()
        self.counts.clear()

    def run_op(self, op_id: int, call):
        """Run `call()` as the root span of operation `op_id`."""
        self.current_op = op_id
        index = len(self.start)
        self.fid.append(0)
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(self.clock())
        try:
            return call()
        finally:
            self.end[index] = self.clock()
            self.stack.pop()
            self.current_op = -1

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[array, float]:
        """Self time per function id, and the summed root duration.

        Raises ValueError when a span is not nested in its parent, which
        would make self times meaningless.
        """
        n = len(self.start)
        cover = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        root_total = 0.0
        for i in range(n):
            p = parent[i]
            if p < 0:
                root_total += end[i] - start[i]
                continue
            if start[i] < start[p] or end[i] > end[p]:
                raise ValueError(f"span {i} ({self.names[self.fid[i]]}) "
                                 f"is not inside its parent span {p}")
            cover[p] += end[i] - start[i]
        own = array("d", bytes(8 * len(self.names)))
        fid = self.fid
        for i in range(n):
            own[fid[i]] += end[i] - start[i] - cover[i]
        return own, root_total

    def report(self, bytes_out: int) -> tuple[dict[str, float], dict]:
        """Per-layer metrics of the pass, and the accounting behind them."""
        own, root_total = self.self_times()
        calls = Counter(self.fid)
        metrics: dict[str, float] = {}
        layer_self = defaultdict(float)
        by_name = {}
        for fid, name in enumerate(self.names):
            if fid == 0:
                continue
            layer = name.split(".", 1)[0]
            metrics[f"{layer}.calls"] = metrics.get(f"{layer}.calls", 0) + calls[fid]
            layer_self[layer] += own[fid]
            by_name[name] = (calls[fid], own[fid])
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layer_self[layer]
        for prefix, names in NAMED_SELF.items():
            metrics[f"{prefix}.self_s"] = sum(by_name[n][1] for n in names)
        metrics["qseries.mul_binomial.calls"] = sum(
            by_name[n][0] for n in NAMED_SELF["qseries.mul_binomial"])
        for key in ("diagrams.items", "partitions.items", "qseries.coeffs",
                    "census.strata", "verify.checks", "verify.cells"):
            metrics[key] = self.counts[key]
        metrics["cli.bytes_out"] = bytes_out
        metrics["harness.unattributed_s"] = own[0]
        covered = sum(layer_self.values()) + own[0]
        accounting = {
            "root_s": root_total,
            "layers_plus_unattributed_s": covered,
            "spans": len(self.start),
            "balanced": abs(covered - root_total) <= 1e-6 * max(root_total, 1.0),
            "top_functions": sorted(
                ([n, c, round(s, 6)] for n, (c, s) in by_name.items() if c),
                key=lambda row: -row[2])[:15],
        }
        return metrics, accounting

    def dump(self, path) -> None:
        """Write the spans of the pass: a JSON header line, then the arrays."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["fid", "i"], ["parent", "i"], ["op", "i"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for name, _ in header["arrays"]:
                getattr(self, name).tofile(handle)


def _instances(result, types) -> int:
    if isinstance(result, types):
        return 1
    if isinstance(result, (list, tuple)):
        return sum(1 for x in result if isinstance(x, types))
    return 0


def _series_cells(result, qs) -> int:
    if isinstance(result, qs.FormalSeries):
        return len(result.coeffs)
    if isinstance(result, qs.BiSeries):
        return (result.u_order + 1) * (result.v_order + 1)
    return 0
