"""In-memory span tracing of corrpoly's modules, installed from outside.

`Tracer.install` replaces every public module-level function of each
corrpoly module, plus the few methods listed in `TRACED_METHODS`, with a
wrapper that records one span per call: name, op id, parent span, start,
end.  A function is replaced in every module namespace that binds it
(`info.mix` as well as `polytope.mix`), so calls made inside the package
are seen; the span is named after the defining module.  Spans stay in
compact arrays until the run ends; `per_layer_metrics` derives the
benchmark's per-layer figures from them and `write_spans` dumps them.

Nothing under `src/` is edited: `uninstall` puts every original back.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import statistics
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = (
    "space", "linalg", "lp", "polytope", "capacity", "info",
    "independence", "preferences", "scenario", "applications", "cli",
)

# Methods that do a layer's work (the per-layer metrics read
# `CorrelationSet.__init__`, `CorrelationSet.contains` and `Capacity.value`);
# other methods are not wrapped, so their time counts as self time of
# the caller.
TRACED_METHODS = {
    "polytope": {"CorrelationSet": ("__init__", "contains", "vertices")},
    "capacity": {"Capacity": ("value",)},
    "scenario": {"Scenario": ("correlation_set", "prior_set")},
}

# Per-layer metric -> the span behind it.  Metric names follow the layer
# table of the benchmark; the span is the call that does the work
# (membership tests all pass through the method).
_SPAN_METRICS = {
    "linalg.solve_affine": "linalg.solve_affine",
    "linalg.rank": "linalg.rank",
    "linalg.nullspace": "linalg.nullspace",
    "lp.solve_lp_min": "lp.solve_lp_min",
    "polytope.enumerate_extreme_points": "polytope.enumerate_extreme_points",
    "polytope.CorrelationSet.init": "polytope.CorrelationSet.__init__",
    "polytope.contains": "polytope.CorrelationSet.contains",
    "polytope.mix": "polytope.mix",
    "polytope.sample_member": "polytope.sample_member",
    "capacity.value": "capacity.Capacity.value",
    "capacity.choquet_integral": "capacity.choquet_integral",
    "info.certify_local_max_mi": "info.certify_local_max_mi",
    "info.mutual_information": "info.mutual_information",
    "space.marginalize": "space.marginalize",
    "space.expectation": "space.expectation",
    "preferences.meu_minimizer": "preferences.meu_minimizer",
    "preferences.check_subspace_independence_axiom":
        "preferences.check_subspace_independence_axiom",
    "independence.restricted_dimension": "independence.restricted_dimension",
    "independence.is_independent_on": "independence.is_independent_on",
    "scenario.loads": "scenario.loads",
    "applications.sweep_csv": "applications.sweep_csv",
}

_CALLS = (
    "linalg.solve_affine", "linalg.rank", "linalg.nullspace", "lp.solve_lp_min",
    "polytope.enumerate_extreme_points", "polytope.contains", "polytope.mix",
    "polytope.sample_member", "capacity.value", "capacity.choquet_integral",
    "info.mutual_information", "space.marginalize", "space.expectation",
    "preferences.meu_minimizer", "scenario.loads",
)
# `cli.main.self_s` sums the self time of every cli span: argparse, the
# subcommand bodies and rendering.
_SELF = tuple(_SPAN_METRICS) + ("cli.main",)

# Span names whose return value the wrapper condenses into one number.
_RESULT_SIZE = {
    "polytope.enumerate_extreme_points": len,
    "info.certify_local_max_mi": lambda report: report.probe_count,
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run emits: name -> (unit, better)."""
    units: dict[str, tuple[str, str]] = {}
    for m in _CALLS:
        units[f"{m}.calls"] = ("count", "lower")
    for m in _SELF:
        units[f"{m}.self_s"] = ("s", "lower")
    units["lp.solve_lp_min.p50_ms"] = ("ms", "lower")
    units["polytope.vertex_yield"] = ("ratio", "higher")
    units["capacity.memo_hit_ratio"] = ("ratio", "higher")
    units["info.mi_evals_per_probe"] = ("ratio", "lower")
    for layer in LAYERS:
        units[f"{layer}.errors"] = ("count", "lower")
    units["trace.ops_per_s"] = ("1/s", "higher")
    units["trace.spans"] = ("count", "lower")
    return units


class Tracer:
    """Records spans of wrapped corrpoly calls; one instance per run."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.result_size: dict[int, int] = {}
        self.errors: list[tuple[int, str]] = []  # (op, layer) per escaping error
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self.op_id += 1

    # -- wrapping -------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        nid = self._name_ids.setdefault(span_name, len(self._names))
        if nid == len(self._names):
            self._names.append(span_name)
        layer = span_name.split(".", 1)[0]
        size_of = _RESULT_SIZE.get(span_name)
        error_type = self._error_type
        name, op, parent = self.name, self.op, self.parent
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            op.append(self.op_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                seen = exc.__dict__.setdefault("_traced_layers", set())
                if layer not in seen:
                    seen.add(layer)
                    self.errors.append((self.op_id, layer))
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if size_of is not None:
                self.result_size[idx] = size_of(result)
            return result

        return traced

    def install(self, package: types.ModuleType) -> None:
        """Wrap the package's public functions and traced methods in place."""
        self._error_type = package.CorrpolyError
        modules = [package] + [
            sys.modules[f"{package.__name__}.{m}"]
            for m in LAYERS + ("errors",)
        ]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
            for cls_name, methods in TRACED_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def per_layer_metrics(self, ops_per_s: float, ops: int | None = None) -> dict[str, float]:
        """Per-layer figures derived from the spans of the first `ops` ops
        (all ops when None).  A fixed op count keeps the totals comparable
        between commits: a faster program runs more ops in a timed loop,
        not fewer calls per op."""
        n = len(self.start)
        if ops is not None:
            n = bisect.bisect_left(self.op, ops)
        ids = self._name_ids
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: dict[int, int] = {}
        self_s: dict[int, float] = {}
        for i in range(n):
            nid = self.name[i]
            calls[nid] = calls.get(nid, 0) + 1
            self_s[nid] = self_s.get(nid, 0.0) + dur[i] - child[i]

        def nid_of(span_name: str) -> int:
            return ids.get(span_name, -1)

        def spans_of(span_name: str) -> list[int]:
            nid = nid_of(span_name)
            return [i for i in range(n) if self.name[i] == nid]

        def ancestor(i: int, nid: int) -> int:
            p = self.parent[i]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            return p

        out: dict[str, float] = {}
        for metric in _CALLS:
            out[f"{metric}.calls"] = calls.get(nid_of(_SPAN_METRICS[metric]), 0)
        for metric in _SPAN_METRICS:
            out[f"{metric}.self_s"] = self_s.get(nid_of(_SPAN_METRICS[metric]), 0.0)
        out["cli.main.self_s"] = sum(
            t for nid, t in self_s.items() if self._names[nid].startswith("cli.")
        )

        lp_spans = spans_of("lp.solve_lp_min")
        out["lp.solve_lp_min.p50_ms"] = (
            1e3 * statistics.median(dur[i] for i in lp_spans) if lp_spans else 0.0
        )

        enum_nid = nid_of("polytope.enumerate_extreme_points")
        returned = sum(self.result_size[i] for i in spans_of("polytope.enumerate_extreme_points"))
        solves = sum(
            1 for i in spans_of("linalg.solve_affine") if ancestor(i, enum_nid) >= 0
        )
        out["polytope.vertex_yield"] = returned / solves if solves else 0.0

        value_nid = nid_of("capacity.Capacity.value")
        value_calls = calls.get(value_nid, 0)
        with_lp = {ancestor(i, value_nid) for i in lp_spans} - {-1}
        out["capacity.memo_hit_ratio"] = (
            (value_calls - len(with_lp)) / value_calls if value_calls else 0.0
        )

        cert_nid = nid_of("info.certify_local_max_mi")
        probes = sum(self.result_size[i] for i in spans_of("info.certify_local_max_mi"))
        mi_evals = sum(
            1 for i in spans_of("info.mutual_information") if ancestor(i, cert_nid) >= 0
        )
        out["info.mi_evals_per_probe"] = mi_evals / probes if probes else 0.0

        for layer in LAYERS:
            out[f"{layer}.errors"] = sum(
                1 for op, seen in self.errors if seen == layer and (ops is None or op < ops)
            )
        out["trace.ops_per_s"] = ops_per_s
        out["trace.spans"] = n
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as a gzipped TSV row:
        op, span, parent, name, start_s, end_s, result_size."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self._names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\tresult_size\n")
            for i in range(len(self.start)):
                size = self.result_size.get(i, "")
                fh.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{size}\n"
                )
