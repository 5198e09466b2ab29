"""Spans around the calls into each presdim module, recorded from outside.

`Tracer.install()` wraps every public function of the traced modules in
every namespace that holds it: `cli` and `pressure` import names with
`from .x import y`, so patching only the defining module would miss their
calls.  Two methods are wrapped on their classes: `PointCloud.__post_init__`
(cloud build) and `IntervalPartition.series_verdict` (series verdicts).

A span is (name, start, end, parent).  Spans stay in compact arrays and are
reduced to per-layer metrics by `layer_metrics`; a layer's self time is its
spans' durations minus the part covered by their child spans.  Calls made in
worker threads (the cylinder thread pool) take the innermost open span of
the main thread as their parent; such children overlap, so they cover the
union of their intervals.
"""
from __future__ import annotations

import functools
import inspect
import threading
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "numerics", "interval_partition", "pressure", "boxdim", "hyperbolic", "poincare")

# work counted at a boundary: function -> (counter, amount from bound arguments and result)
_COUNTERS = {
    "numerics.compensated_sum": ("sum_terms", lambda a, r: len(a["values"])),
    "boxdim.covering_count_sphere": ("sphere_points", lambda a, r: a["cloud"].count),
    "boxdim.estimate_box_dimension": ("saturated_levels", lambda a, r: int(r.saturated.sum())),
    "interval_partition.cylinder_derivative_sums": ("cylinder_words", lambda a, r: (
        a["bmap"].branch_count if a["alphabet_cap"] is None
        else min(a["bmap"].branch_count, int(a["alphabet_cap"]))) ** a["order"]),
    "hyperbolic.parabolic_orbit": ("orbit_points", lambda a, r: (2 * a["radius"] + 1) ** a["group"].rank),
    "poincare.poincare_partial": ("lattice_terms", lambda a, r: (2 * a["radius"] + 1) ** a["group"].rank),
    "boxdim.PointCloud": ("cloud_points", lambda a, r: a["self"].count),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.names: list[tuple[str, str, str]] = []  # (layer, function, namespace) per name id
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self.clear()

    def clear(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.off_thread = array("b")  # 1 when recorded outside the parent's thread
        self.counts.clear()

    def _enter(self, name_id: int) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        off_thread = 0
        if stack:
            parent = stack[-1]
        elif tid != self._main and self._stacks.get(self._main):
            parent, off_thread = self._stacks[self._main][-1], 1
        else:
            parent = -1
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.off_thread.append(off_thread)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _exit(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def _wrap(self, fn, layer: str, label: str, namespace: str):
        name_id = len(self.names)
        self.names.append((layer, label, namespace))
        enter, exit_, counts, lock = self._enter, self._exit, self.counts, self._lock
        counter = _COUNTERS.get(f"{layer}.{label}")
        if counter is not None:
            key, amount = counter
            sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                value = amount(bound.arguments, result)
                with lock:  # pool threads count too
                    counts[key] += value
            return result

        return traced

    def install(self):
        self.names = []
        namespaces = {"presdim": self.package}
        namespaces.update((f"presdim.{n}", m) for n, m in self.modules.items())
        for layer, module in self.modules.items():
            for label, fn in vars(module).items():
                if label.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                for ns_name, ns in namespaces.items():
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, self._wrap(fn, layer, label, ns_name))
        cloud = self.modules["boxdim"].PointCloud
        self._patch(cloud, "__post_init__", self._wrap(cloud.__post_init__, "boxdim", "PointCloud", "class"))
        partition = self.modules["interval_partition"].IntervalPartition
        self._patch(partition, "series_verdict",
                    self._wrap(partition.series_verdict, "interval_partition", "series_verdict", "class"))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    n = len(tracer.start)
    labels = [f"{layer}.{label}" for layer, label, _ in tracer.names]
    layers = [layer for layer, _, _ in tracer.names]
    curve_ids = {i for i, (layer, label, ns) in enumerate(tracer.names)
                 if (labels[i] == "numerics.compensated_sum" and ns == "presdim.pressure")
                 or labels[i] == "pressure.pressure_cylinder_bracket"}
    name, start, end, parent, off = tracer.name, tracer.start, tracer.end, tracer.parent, tracer.off_thread

    covered = array("d", bytes(8 * n))  # same-thread children never overlap
    overlapping: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            if off[i]:
                overlapping[p].append((start[i], end[i]))
            else:
                covered[p] += end[i] - start[i]
    for p, intervals in overlapping.items():
        covered[p] += _union(intervals)

    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    scalar_s, scalar_calls, curve_evals, cylinder_self = 0.0, 0, 0, 0.0
    for i in range(n):
        nid, p = name[i], parent[i]
        key, dur = labels[nid], end[i] - start[i]
        inclusive[key] += dur
        calls[key] += 1
        self_time[layers[nid]] += dur - covered[i]
        if key == "interval_partition.cylinder_derivative_sums":
            cylinder_self += dur - covered[i]
        if layers[nid] == "hyperbolic" and key != "hyperbolic.parabolic_orbit" and (
                p < 0 or layers[name[p]] != "hyperbolic"):
            scalar_s += dur
            scalar_calls += 1
        curve_evals += nid in curve_ids
    counts = tracer.counts

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    cover_s = inclusive["boxdim.covering_count_sphere"]
    sum_s = inclusive["numerics.compensated_sum"]
    return {
        "boxdim.cover_sphere_s": cover_s,
        "boxdim.cover_sphere_calls": calls["boxdim.covering_count_sphere"],
        "boxdim.points_per_s": rate(counts["sphere_points"], cover_s),
        "boxdim.cloud_build_s": inclusive["boxdim.PointCloud"],
        "boxdim.cloud_points": counts["cloud_points"],
        "boxdim.cover_line_s": inclusive["boxdim.covering_count_line"],
        "boxdim.gap_bounds_s": inclusive["boxdim.gap_exponent_bounds"],
        "boxdim.saturated_levels": counts["saturated_levels"],
        "numerics.sum_s": sum_s,
        "numerics.sum_calls": calls["numerics.compensated_sum"],
        "numerics.sum_terms": counts["sum_terms"],
        "numerics.terms_per_s": rate(counts["sum_terms"], sum_s),
        "interval_partition.cylinder_sums_s": cylinder_self,
        "interval_partition.cylinder_sums_calls": calls["interval_partition.cylinder_derivative_sums"],
        "interval_partition.cylinder_words": counts["cylinder_words"],
        "interval_partition.build_s": inclusive["interval_partition.build_partition"],
        "interval_partition.build_calls": calls["interval_partition.build_partition"],
        "interval_partition.verdict_calls": calls["interval_partition.series_verdict"],
        "pressure.self_s": self_time["pressure"],
        "pressure.curve_evals": curve_evals,
        "hyperbolic.scalar_s": scalar_s,
        "hyperbolic.scalar_calls": scalar_calls,
        "hyperbolic.us_per_scalar_call": 1e6 * rate(scalar_s, scalar_calls),
        "hyperbolic.orbit_s": inclusive["hyperbolic.parabolic_orbit"],
        "hyperbolic.orbit_points": counts["orbit_points"],
        "poincare.partial_s": inclusive["poincare.poincare_partial"],
        "poincare.lattice_terms": counts["lattice_terms"],
        "poincare.exponent_s": inclusive["poincare.critical_exponent"] + inclusive["poincare.counting_exponent"],
        "cli.self_s": self_time["cli"],
        "cli.commands": calls["cli.main"],
    }
