"""Span tracing of bfstab's layers, installed from outside the package.

``Tracer.install`` wraps every public function of each layer module (and
the quantile methods of the 1-D mixture and grid densities) with a timing
wrapper, and rebinds each wrapped object wherever a bfstab module imported
it by name, so calls between modules are seen too. Private helpers such as
``transport1d._directed_distance`` are not wrapped: their work shows up as
self time of, and as child calls under, their nearest public caller.

Each span records (name, start, end, parent span, case index) in flat
arrays kept in memory. Self time is a span's duration minus the durations
of its direct children. ``summary`` turns the spans and the counters the
wrappers read off results into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("quadrature", "density1d", "transport1d", "densitynd", "sphereopt",
          "deficits", "corpus")
_METHODS = {"density1d": {"GaussianMixture1D": ("quantile", "quantile_sf"),
                          "GridDensity1D": ("quantile", "quantile_sf")}}
_QUANTILE = ("density1d.GaussianMixture1D.quantile",
             "density1d.GaussianMixture1D.quantile_sf",
             "density1d.GridDensity1D.quantile",
             "density1d.GridDensity1D.quantile_sf")


def _expect_nodes(fn, args, kwargs) -> int:
    """Integrand points of one entropy_nd / fisher_nd call (computed, not counted).

    n <= 3: whitened Gauss-Hermite at both orders over every component;
    above: scrambled Sobol replicates, 8 of them, at least 16 points per
    component each. Mirrors densitynd._expectation.
    """
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    nu, a = bound.arguments["nu"], bound.arguments
    k = nu.n_components
    if nu.dim <= 3:
        return k * (a["order"] ** nu.dim + a["check_order"] ** nu.dim)
    per_rep = max(a["mc_budget"] // 8, 256)
    alloc = np.maximum((nu.weights * per_rep).astype(int), 16)
    return 8 * int(alloc.sum())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.case = -1
        self.counts = {"quad_points": 0, "quad_panels": 0, "quantile_points": 0,
                       "expect_nodes": 0, "slice_rows": 0, "directions": 0,
                       "refined_gain": 0.0, "run_case_errors": 0}
        self.err_estimates: list[float] = []
        self._quantile_ids: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"bfstab.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    self._patch(cls, meth, self._wrap(
                        f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        # rebind every module-level reference, including `from .x import f`
        for name, mod in list(sys.modules.items()):
            if name != "bfstab" and not name.startswith("bfstab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        self._quantile_ids = {self._ids[q] for q in _QUANTILE}

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        before, after = self._hooks(name, fn)
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.span_name)
            parent = stack[-1] if stack else -1
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent)
            tracer.span_case.append(tracer.case)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            if before is not None:
                before(args, kwargs, parent)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = time.perf_counter()
                tracer.span_start[idx] = start
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _hooks(self, name: str, fn):
        c = self.counts
        if name == "quadrature.adaptive_quad":
            def after(res):
                c["quad_points"] += res.evaluations
                c["quad_panels"] += res.panels
            return None, after
        if name in _QUANTILE:
            def before(args, kwargs, parent):
                # GridDensity1D.quantile_sf hands part of its work to quantile
                if parent < 0 or self.span_name[parent] not in self._quantile_ids:
                    c["quantile_points"] += int(np.size(args[1]))
            return before, None
        if name in ("densitynd.entropy_nd", "densitynd.fisher_nd"):
            def before(args, kwargs, parent):
                c["expect_nodes"] += _expect_nodes(fn, args, kwargs)
            return before, None
        if name == "densitynd.conditional_slice_batch":
            def before(args, kwargs, parent):
                pts = args[2] if len(args) > 2 else kwargs["points"]
                c["slice_rows"] += int(np.atleast_2d(pts).shape[0])
            return before, None
        if name == "sphereopt.dn_distance":
            def after(res):
                c["directions"] += res.directions_evaluated
                c["refined_gain"] += res.refined_gain
            return None, after
        if name == "corpus.run_case":
            def after(rep):
                if rep.status == "error":
                    c["run_case_errors"] += 1
                else:
                    self.err_estimates.append(rep.error_estimate)
            return None, after
        return None, None


    # -- analysis ---------------------------------------------------------

    def _columns(self):
        name = np.frombuffer(self.span_name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32).astype(np.int64)
        case = np.frombuffer(self.span_case, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return name, parent, case, dur, dur - child

    def summary(self, explain_case: int):
        """Per-layer metrics as {name: (value, unit)}, plus the case breakdown."""
        name, parent, case, dur, self_t = self._columns()
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_t, minlength=n_names)
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        # inclusive time, not double counted when a function re-enters itself
        outer = parent_name != name
        total_s = np.bincount(name[outer], weights=dur[outer], minlength=n_names)
        ids = self._ids
        c = self.counts

        # a function a later change renamed or removed reads as 0
        def per(fn_name, arr):
            return arr[ids[fn_name]].item() if fn_name in ids else 0

        def under(caller):
            quad = name == ids.get("quadrature.adaptive_quad", -2)
            return int(np.sum(quad & (parent_name == ids.get(caller, -2))))

        quad_calls = per("quadrature.adaptive_quad", calls)
        quantile = sorted(self._quantile_ids)
        root = ids["corpus.run_case"]
        wall = float(np.sum(dur[name == root]))
        m = {
            "quadrature.adaptive_quad.calls": (quad_calls, "count"),
            "quadrature.adaptive_quad.points": (c["quad_points"], "count"),
            "quadrature.adaptive_quad.panels": (c["quad_panels"], "count"),
            "quadrature.adaptive_quad.self_s": (per("quadrature.adaptive_quad", self_s), "s"),
            "quadrature.points_per_call": (c["quad_points"] / max(quad_calls, 1), "count"),
            "sphereopt.solves": (under("sphereopt.dn_distance"), "count"),
            "deficits.slice_solves": (under("deficits.verify_corollary"), "count"),
            "transport1d.bf_distance_full.calls": (per("transport1d.bf_distance_full", calls), "count"),
            "transport1d.bf_distance_full.self_s": (per("transport1d.bf_distance_full", self_s), "s"),
            "transport1d.talagrand_deficit_1d_full.self_s": (
                per("transport1d.talagrand_deficit_1d_full", self_s), "s"),
            "density1d.quantile.calls": (int(calls[quantile].sum()), "count"),
            "density1d.quantile.points": (c["quantile_points"], "count"),
            "density1d.quantile.self_s": (float(self_s[quantile].sum()), "s"),
            "densitynd.entropy_nd.self_s": (per("densitynd.entropy_nd", self_s), "s"),
            "densitynd.fisher_nd.self_s": (per("densitynd.fisher_nd", self_s), "s"),
            "densitynd.expect.nodes": (c["expect_nodes"], "count"),
            "densitynd.conditional_slice_batch.rows": (c["slice_rows"], "count"),
            "densitynd.directional_marginal.calls": (per("densitynd.directional_marginal", calls), "count"),
            "densitynd.directional_marginal.self_s": (per("densitynd.directional_marginal", self_s), "s"),
            "sphereopt.dn_distance.calls": (per("sphereopt.dn_distance", calls), "count"),
            "sphereopt.dn_distance.self_s": (per("sphereopt.dn_distance", self_s), "s"),
            "sphereopt.directions": (c["directions"], "count"),
            "sphereopt.refined_gain": (c["refined_gain"], "1"),
            "sphereopt.lower_bound_certificate.calls": (
                per("sphereopt.lower_bound_certificate", calls), "count"),
            "deficits.lsi_deficit.total_s": (per("deficits.lsi_deficit", total_s), "s"),
            "deficits.sup_convolution.calls": (per("deficits.sup_convolution", calls), "count"),
            "deficits.sup_convolution.self_s": (per("deficits.sup_convolution", self_s), "s"),
            "deficits.err_est_p50": (float(np.median(self.err_estimates))
                                     if self.err_estimates else 0.0, "1"),
            "corpus.run_case.calls": (per("corpus.run_case", calls), "count"),
            "corpus.run_case.errors": (c["run_case_errors"], "count"),
        }
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names])
        layer_self = np.bincount(layer_of[name], weights=self_t, minlength=len(LAYERS))
        for i, layer in enumerate(LAYERS):
            m[f"layer.{layer}.self_s"] = (float(layer_self[i]), "s")
            m[f"layer.{layer}.share"] = (float(layer_self[i]) / wall if wall else 0.0, "share")

        # one case in detail: where its wall time went
        in_case = case == explain_case
        case_root = in_case & (name == root)
        case_wall = float(dur[case_root].sum())
        entry = in_case & ((name == root) | (parent_name == root))
        by_layer = np.bincount(layer_of[name[in_case]], weights=self_t[in_case],
                               minlength=len(LAYERS))
        gh = sum(float(self_t[in_case & (name == ids[f])].sum())
                 for f in ("densitynd.entropy_nd", "densitynd.fisher_nd") if f in ids)
        unassigned = float(self_t[entry].sum())
        m["trace.case.wall_s"] = (case_wall, "s")
        m["trace.case.accounted_share"] = (1.0 - unassigned / case_wall if case_wall else 0.0, "share")
        m["trace.case.gh_share"] = (gh / case_wall if case_wall else 0.0, "share")
        table = {layer: float(by_layer[i]) for i, layer in enumerate(LAYERS)}
        return m, table
