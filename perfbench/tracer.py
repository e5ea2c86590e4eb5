"""Spans around the calls into each topowalk module's public functions.

The tracer wraps a function in every module namespace that binds it by name
(``build_unitary`` is bound in cli, topology, symmetry and spectrum, for
example), because patching only the defining module misses the calls made
through the other bindings.  Spans stay in memory while the run lasts; each
holds the layer function's name, start, end, parent span, job id and the
counts its call produced.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from math import prod


def _points(a) -> int:
    return prod(a.shape[:-2])


def _build_counts(args, kwargs, U):
    spec = args[0]
    n = _points(U)
    return {"points": n, "elem_points": n * len(spec.elements) * (2 if spec.doubled else 1)}


# layer function -> counter of the work one call did (None: calls and time only)
LAYER_FUNCTIONS = {
    "cli.main": None,
    "config.config_from_dict": None,
    "protocols.build_unitary": _build_counts,
    "spectrum.bands_from_unitary": lambda a, kw, r: {"points": _points(a[0])},
    "spectrum.rho_closed_form": None,
    "spectrum.drho_closed_form": None,
    "topology.find_gap_closings": lambda a, kw, r: {"gap_points": len(r)},
    "topology.winding_number": None,
    "topology.chern_number": lambda a, kw, r: {"points": kw.get("grid_n", 64) ** 2},
    "topology.classify_boundary": None,
    "symmetry.classify": None,
    "symmetry.check_relation": None,
    "su2.eig_unitary": lambda a, kw, r: {"matrices": _points(a[0])},
}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job, counts]
        self.job = None
        self._stack = []
        self._restore = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "topowalk" or name.startswith("topowalk."))]
        for qualname, counter in LAYER_FUNCTIONS.items():
            modname, fname = qualname.split(".")
            original = getattr(sys.modules[f"topowalk.{modname}"], fname)
            wrapper = self._wrap(qualname, original, counter)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)
                    self._restore.append((mod, fname, original))

    def uninstall(self):
        for mod, fname, original in reversed(self._restore):
            setattr(mod, fname, original)
        self._restore.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, job, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "counts": counts}) + "\n")


def layer_metrics(spans, rows: int, out_bytes: int, overhead_s: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_s = [0.0] * n
    ancestors = [frozenset()] * n
    by_name = {}
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:  # parents precede children in the list
            child_s[parent] += dur[i]
            ancestors[i] = ancestors[parent] | {spans[parent][0]}

    def agg(name, *, under=None):
        calls, total, self_s, counts = 0, 0.0, 0.0, {}
        for i in by_name.get(name, ()):
            s = spans[i]
            if under is not None and under not in ancestors[i]:
                continue
            calls += 1
            self_s += dur[i] - child_s[i]
            if name not in ancestors[i]:
                total += dur[i]
            for key, value in (s[5] or {}).items():
                counts[key] = counts.get(key, 0) + value
        return calls, total, self_s, counts

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    calls, _, self_s, _ = agg("cli.main")
    m["cli.main.calls"] = (calls, "count")
    m["cli.main.self_s"] = (self_s, "s")
    m["cli.rows"] = (rows, "count")
    m["cli.bytes"] = (out_bytes, "bytes")
    m["cli.self_us_per_row"] = (per(self_s, rows, 1e6), "us")
    calls, total, _, _ = agg("config.config_from_dict")
    m["config.config_from_dict.calls"] = (calls, "count")
    m["config.config_from_dict.s"] = (total, "s")
    calls, total, _, c = agg("protocols.build_unitary")
    points = c.get("points", 0)
    m["protocols.build_unitary.calls"] = (calls, "count")
    m["protocols.build_unitary.points"] = (points, "count")
    m["protocols.build_unitary.elem_points"] = (c.get("elem_points", 0), "count")
    m["protocols.build_unitary.s"] = (total, "s")
    m["protocols.build_unitary.us_per_call"] = (per(total, calls, 1e6), "us")
    m["protocols.build_unitary.ns_per_point"] = (per(total, points, 1e9), "ns")
    calls, total, _, c = agg("spectrum.bands_from_unitary")
    m["spectrum.bands_from_unitary.calls"] = (calls, "count")
    m["spectrum.bands_from_unitary.points"] = (c.get("points", 0), "count")
    m["spectrum.bands_from_unitary.s"] = (total, "s")
    m["spectrum.rho_closed_form.s"] = (agg("spectrum.rho_closed_form")[1], "s")
    m["spectrum.drho_closed_form.s"] = (agg("spectrum.drho_closed_form")[1], "s")
    calls, total, self_s, c = agg("topology.find_gap_closings")
    gap_points = c.get("gap_points", 0)
    build_calls, _, _, bc = agg("protocols.build_unitary", under="topology.find_gap_closings")
    m["topology.find_gap_closings.calls"] = (calls, "count")
    m["topology.find_gap_closings.s"] = (total, "s")
    m["topology.find_gap_closings.self_s"] = (self_s, "s")
    m["topology.find_gap_closings.build_calls"] = (build_calls, "count")
    m["topology.find_gap_closings.gap_points"] = (gap_points, "count")
    m["topology.find_gap_closings.build_points_per_gap_point"] = (
        per(bc.get("points", 0), gap_points), "count")
    calls, total, _, _ = agg("topology.winding_number")
    m["topology.winding_number.calls"] = (calls, "count")
    m["topology.winding_number.s"] = (total, "s")
    calls, total, _, c = agg("topology.chern_number")
    m["topology.chern_number.calls"] = (calls, "count")
    m["topology.chern_number.s"] = (total, "s")
    m["topology.chern_number.points"] = (c.get("points", 0), "count")
    calls, total, _, _ = agg("topology.classify_boundary")
    m["topology.classify_boundary.calls"] = (calls, "count")
    m["topology.classify_boundary.s"] = (total, "s")
    m["topology.boundary_values"] = (
        sum(1 for i in by_name.get("topology.find_gap_closings", ())
            if (spans[i][5] or {}).get("gap_points")), "count")
    calls, total, self_s, _ = agg("symmetry.classify")
    m["symmetry.classify.calls"] = (calls, "count")
    m["symmetry.classify.s"] = (total, "s")
    m["symmetry.classify.self_s"] = (self_s, "s")
    calls, total, _, _ = agg("symmetry.check_relation")
    m["symmetry.check_relation.calls"] = (calls, "count")
    m["symmetry.check_relation.s"] = (total, "s")
    calls, total, _, c = agg("su2.eig_unitary")
    matrices = c.get("matrices", 0)
    m["su2.eig_unitary.calls"] = (calls, "count")
    m["su2.eig_unitary.matrices"] = (matrices, "count")
    m["su2.eig_unitary.s"] = (total, "s")
    m["su2.eig_unitary.us_per_matrix"] = (per(total, matrices, 1e6), "us")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
