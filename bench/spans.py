"""Span tracing of the program's layers, from the benchmark's side.

``install`` wraps the public functions of each ``principal_config`` module
(and the chart ``jet`` methods and ``ReportDocument.to_json``) in place.
Modules import these functions by name, so every module attribute bound to
a wrapped function is replaced, and ``uninstall`` puts the originals back.
No module of the program changes on disk.

Each call records a span (name, start, end, parent span) in memory, and
counters at the same boundary: points per jet and bundle call, steps and
crossings per trace, traces and field evaluations inside their enclosing
layer.  Self times come from the span nesting afterwards.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name)
FUNCTIONS = [
    ("geometry", "chart_bundle", "geometry.chart_bundle"),
    ("geometry", "principal_direction_fast", "geometry.direction"),
    ("geometry", "implicit_bundle", "geometry.implicit_bundle"),
    ("geometry", "curvature_gradients", "geometry.curvature_gradients"),
    ("foliation", "trace", "foliation.trace"),
    ("foliation", "separatrix_connection_scan", "foliation.scan"),
    ("foliation", "chart_point_near", "foliation.chart_point_near"),
    ("umbilics", "locate_umbilics", "umbilics.locate"),
    ("umbilics", "classify_umbilic", "umbilics.classify"),
    ("umbilics", "separatrix_directions", "umbilics.separatrix_directions"),
    ("umbilics", "location_error", "umbilics.location_error"),
    ("cycles", "find_cycles", "cycles.find"),
    ("cycles", "return_map_derivative_fd", "cycles.fd"),
    ("cycles", "return_map_derivative_integral", "cycles.integral"),
    ("catalog", "rotation_estimate", "catalog.rotation"),
    ("catalog", "rho_sweep", "catalog.rho_sweep"),
    ("cli", "main", "cli.main"),
]

PACKAGE = "principal_config"


def _npoints(u, v):
    """Points in a call on chart coordinates ``u``, ``v`` (floats, or
    arrays that broadcast)."""
    nu = 1 if isinstance(u, float) else np.size(u)
    nv = 1 if isinstance(v, float) else np.size(v)
    return max(nu, nv)


class SpanRecorder:
    """In-memory spans plus counters, filled by the installed wrappers."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self._stack = []
        self.depth = defaultdict(int)
        self.counts = defaultdict(float)
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` updates the
        counters when the call is not nested in a span of the same name."""
        nid = self._name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, stack, depth = self.span_parent, self._stack, self.depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            outer = depth[name] == 0
            depth[name] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[name] -= 1
                stack.pop()
            if after is not None and outer:
                after(args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        hooks = self._hooks()
        for mod_name, attr, span_name in FUNCTIONS:
            original = getattr(modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapped = self.wrap(span_name, original, hooks.get(span_name))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
        geometry = modules[f"{PACKAGE}.geometry"]
        report = modules[f"{PACKAGE}.report"]
        for cls in _with_subclasses(geometry.SurfaceChart):
            if "jet" in vars(cls):
                self._patch_method(cls, "jet", "jets", hooks["jets"])
        self._patch_method(report.ReportDocument, "to_json", "report.to_json",
                           hooks["report.to_json"])

    def _patch_method(self, cls, attr, span_name, after):
        original = vars(cls)[attr]
        setattr(cls, attr, self.wrap(span_name, original, after))
        self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _hooks(self):
        c, depth = self.counts, self.depth

        def jets(args, _out):
            c["jets.calls"] += 1
            c["jets.points"] += _npoints(args[1], args[2])

        def chart_bundle(args, _out):
            c["geometry.chart_bundle.calls"] += 1
            c["geometry.chart_bundle.points"] += _npoints(args[1], args[2])

        def field_eval(key):
            def hook(_args, _out):
                c[key] += 1
                if depth["foliation.trace"]:
                    c["foliation.field_evals"] += 1
            return hook

        def calls(key):
            def hook(_args, _out):
                c[key] += 1
            return hook

        def trace(_args, traj):
            steps = traj.meta["steps"]
            c["foliation.trace.calls"] += 1
            c["foliation.steps"] += steps
            c["foliation.steps_accepted"] += len(traj.arclength) - 1
            c["foliation.crossings"] += len(traj.crossings)
            if depth["foliation.scan"]:
                c["foliation.scan.traces"] += 1
                c["foliation.scan.steps"] += steps
            if depth["cycles.find"]:
                c["cycles.find.traces"] += 1
            if depth["catalog.rotation"]:
                c["catalog.rotation.traces"] += 1

        def find(args, found):
            c["cycles.find.seeds"] += len(args[1])
            c["cycles.find.found"] += len(found)

        def to_json(_args, text):
            c["report.bytes"] += len(text)

        return {
            "jets": jets,
            "geometry.chart_bundle": chart_bundle,
            "geometry.direction": field_eval("geometry.direction.calls"),
            "geometry.implicit_bundle":
                field_eval("geometry.implicit_bundle.calls"),
            "geometry.curvature_gradients":
                calls("geometry.curvature_gradients.calls"),
            "foliation.trace": trace,
            "foliation.chart_point_near":
                calls("foliation.chart_point_near.calls"),
            "cycles.find": find,
            "report.to_json": to_json,
        }

    # -- results -----------------------------------------------------------

    def clear(self):
        for lst in (self.span_name, self.span_start, self.span_end,
                    self.span_parent):
            lst.clear()
        self.counts.clear()

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name": np.asarray(self.span_name, dtype=np.int32),
            "start": np.asarray(self.span_start, dtype=float),
            "end": np.asarray(self.span_end, dtype=float),
            "parent": np.asarray(self.span_parent, dtype=np.int64),
        }

    def self_times(self):
        """Seconds per span name: each span's duration minus the
        durations of its direct children, summed by name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = np.bincount(a["name"], weights=dur - child,
                          minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def dump(self, path):
        np.savez_compressed(path, **self.arrays())


def _with_subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_with_subclasses(sub))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec):
    """Per-layer metrics of one traced pass, by the names in
    BENCHMARK.json (without the run-level ones the caller adds)."""
    c = rec.counts
    own = defaultdict(float, rec.self_times())
    jets_points = c["jets.points"]
    bundle_calls = c["geometry.chart_bundle.calls"]
    accepted = c["foliation.steps_accepted"]
    found = c["cycles.find.found"]
    return {
        "jets.calls": c["jets.calls"],
        "jets.points": jets_points,
        "jets.self_s": own["jets"],
        "jets.us_per_point": 1e6 * _ratio(own["jets"], jets_points),
        "geometry.chart_bundle.calls": bundle_calls,
        "geometry.chart_bundle.points": c["geometry.chart_bundle.points"],
        "geometry.chart_bundle.points_per_call":
            _ratio(c["geometry.chart_bundle.points"], bundle_calls),
        "geometry.chart_bundle.self_s": own["geometry.chart_bundle"],
        "geometry.direction.calls": c["geometry.direction.calls"],
        "geometry.direction.self_s": own["geometry.direction"],
        "geometry.implicit_bundle.calls":
            c["geometry.implicit_bundle.calls"],
        "geometry.implicit_bundle.self_s": own["geometry.implicit_bundle"],
        "geometry.curvature_gradients.calls":
            c["geometry.curvature_gradients.calls"],
        "geometry.curvature_gradients.self_s":
            own["geometry.curvature_gradients"],
        "foliation.trace.calls": c["foliation.trace.calls"],
        "foliation.trace.self_s": own["foliation.trace"],
        "foliation.steps": c["foliation.steps"],
        "foliation.steps_accepted": accepted,
        "foliation.accepted_ratio": _ratio(accepted, c["foliation.steps"]),
        "foliation.crossings": c["foliation.crossings"],
        "foliation.evals_per_step":
            _ratio(c["foliation.field_evals"], accepted),
        "foliation.scan.self_s": own["foliation.scan"],
        "foliation.scan.traces": c["foliation.scan.traces"],
        "foliation.scan.steps": c["foliation.scan.steps"],
        "foliation.chart_point_near.calls":
            c["foliation.chart_point_near.calls"],
        "foliation.chart_point_near.self_s":
            own["foliation.chart_point_near"],
        "umbilics.locate.self_s": own["umbilics.locate"],
        "umbilics.classify.self_s": own["umbilics.classify"],
        "umbilics.separatrix_directions.self_s":
            own["umbilics.separatrix_directions"],
        "umbilics.location_error.self_s": own["umbilics.location_error"],
        "cycles.find.self_s": own["cycles.find"],
        "cycles.fd.self_s": own["cycles.fd"],
        "cycles.integral.self_s": own["cycles.integral"],
        "cycles.traces_per_cycle": _ratio(c["cycles.find.traces"], found),
        "cycles.found_per_seed": _ratio(found, c["cycles.find.seeds"]),
        "catalog.rotation.self_s": own["catalog.rotation"],
        "catalog.rotation.traces": c["catalog.rotation.traces"],
        "cli.main.self_s": own["cli.main"],
        "report.to_json_s": own["report.to_json"],
        "report.bytes": c["report.bytes"],
        "trace.spans": float(len(rec.span_start)),
    }


def count_metrics(metrics):
    """The deterministic part of ``layer_metrics``: everything but times."""
    return {k: v for k, v in metrics.items()
            if not (k.endswith("_s") or k.endswith("us_per_point"))}
