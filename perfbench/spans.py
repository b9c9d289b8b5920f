"""Span tracing from outside the program.

`Recorder.install` replaces each function in LAYERS, in every cqsdef module
namespace that binds it, with a wrapper that records a span: function,
parent span, item, start, end, and a work count for the functions in
COUNTERS.  Spans stay in memory until `dump` writes them out; `uninstall`
puts the original functions back.  `layer_metrics` turns dumped spans into
the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time

# Module -> public functions traced in it.
LAYERS = {
    "cqs": ("cqs_new",),
    "lattice": ("hilbert_basis_2d", "cf_expand"),
    "chains": ("enumerate_K",),
    "minkowski": ("segment", "enum_decompositions"),
    "totalspace": ("build_deformation", "generator_relations", "components_of"),
    "geometry3": (
        "hilbert_basis_3d",
        "lattice_points_ineq",
        "roof_facets",
        "is_canonical_cone3",
        "dual_rays3",
        "prim3_rational",
    ),
    "fibers": ("general_fiber", "is_smoothing"),
    "resolutions": ("canonical_model", "fan_decomposition", "assemble_fan3", "p_resolution_fan"),
    "report": ("build_report", "validate_report", "report_to_json", "scan_row"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Work counted on a span, from the function's result.
COUNTERS = {
    "geometry3.lattice_points_ineq": len,
    "geometry3.hilbert_basis_3d": len,
    "minkowski.enum_decompositions": len,
    "report.report_to_json": lambda text: len(text.encode()),
}

PACKAGE = "cqsdef"
_MARK = "__perfbench_span__"


class Recorder:
    """In-memory spans.  A span is [function index, parent span index or
    -1, item index, start, end, count]; times are perf_counter seconds."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [fid, stack[-1], self.item, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(out)
            return out

        setattr(traced, _MARK, fn)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("recorder already installed")
        modules = _package_modules()
        originals = {}
        for fid, name in enumerate(FUNCTIONS):
            mod, fn = name.split(".")
            originals[id(getattr(modules[f"{PACKAGE}.{mod}"], fn))] = fid
        wrappers = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                fid = originals.get(id(value))
                if fid is None:
                    continue
                if fid not in wrappers:
                    wrappers[fid] = self._wrap(fid, value, COUNTERS.get(FUNCTIONS[fid]))
                setattr(module, attr, wrappers[fid])
                self._patched.append((module, attr, value))
        missing = set(range(len(FUNCTIONS))) - set(wrappers)
        if missing:
            self.uninstall()
            raise RuntimeError(f"not bound anywhere: {sorted(FUNCTIONS[i] for i in missing)}")

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"wrappers left after uninstall: {left}")

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"functions": FUNCTIONS, "spans": self.spans}, fh, separators=(",", ":"))


def _package_modules() -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def installed_wrappers() -> list[str]:
    """Every `module.attr` in the package that is still a tracing wrapper."""
    return [
        f"{name}.{attr}"
        for name, mod in _package_modules().items()
        for attr, value in vars(mod).items()
        if hasattr(value, _MARK)
    ]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span[1] >= 0:
            children[span[1]].append((span[3], span[4]))
    out = []
    for span, kids in zip(spans, children):
        start, end = span[3], span[4]
        covered, reach = 0.0, start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(span_sets: list[list[list]], models: int) -> dict[str, float]:
    """Per-function calls and self time plus the work counters, summed over
    the span sets of several batches; `models` is the number of distinct
    (n, q) the batches processed."""
    calls = [0] * len(FUNCTIONS)
    self_s = [0.0] * len(FUNCTIONS)
    counts = [0] * len(FUNCTIONS)
    lattice_points = 0
    hb = FUNCTIONS.index("geometry3.hilbert_basis_3d")
    lp = FUNCTIONS.index("geometry3.lattice_points_ineq")
    for spans in span_sets:
        for span, own in zip(spans, self_times(spans)):
            fid = span[0]
            calls[fid] += 1
            self_s[fid] += own
            counts[fid] += span[5]
            if fid == lp and span[1] >= 0 and spans[span[1]][0] == hb:
                lattice_points += span[5]
    out: dict[str, float] = {}
    for fid, name in enumerate(FUNCTIONS):
        out[f"{name}.calls"] = calls[fid]
        out[f"{name}.self_s"] = self_s[fid]
    elements = counts[hb]
    out["cqs.cqs_new.calls_per_model"] = calls[FUNCTIONS.index("cqs.cqs_new")] / models
    out["minkowski.decompositions"] = counts[FUNCTIONS.index("minkowski.enum_decompositions")]
    out["geometry3.lattice_points"] = lattice_points
    out["geometry3.hilbert_basis.elements"] = elements
    out["geometry3.hb_yield"] = elements / lattice_points if lattice_points else 0.0
    out["report.json_bytes"] = counts[FUNCTIONS.index("report.report_to_json")]
    return out
