"""Spans around calls into torsiongeo, recorded from outside the library.

``Tracer.install`` replaces the library's public functions in every
``torsiongeo`` module namespace that holds them, and wraps the callables
that ``ChartGeometry``, ``VectorFieldSpec`` and ``RevolutionProfile``
instances carry (metric, Christoffel, field, potential and profile
evaluators) as each instance is created.  Arguments and results pass
through untouched, so a traced run computes the same bits as an untraced
one.

Two kinds of wrapper exist.  A *span* wrapper records (name, start, end,
parent, job) in memory for every call.  A *hot* wrapper, used for
callables that run several times per integration sample, only adds to the
per-name call count, total time and self time.  Both keep the call stack,
so a name's self time is its duration minus the time of the wrapped calls
made inside it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Public functions recorded as spans, per module.
SPAN_FUNCTIONS = {
    "scenarios": ("build_runtime", "run_scenario", "run_config", "execute_report",
                  "compile_expr"),
    "integrate": ("integrate", "integrate_adaptive", "integrate_any",
                  "integrate_two_sided", "merge_traces", "levi_civita_integrate"),
    "audit": ("make_report", "series_derivative", "curvature_general",
              "kinematic_curvature", "killing_curvature_check", "conformal_constant",
              "naive_momentum", "killing_flow_symmetry"),
    "surfaces": ("make_sphere", "make_pseudosphere", "make_catenoid", "mercator_map",
                 "loxodrome_check", "gauss_map_trace", "gaussian_curvature",
                 "sphere_angle_cosines", "embed"),
    "plane": ("flat_invariant", "arcsin_invariant", "strip_quadrature",
              "shooting_sweep"),
    "traceio": ("trace_to_csv", "write_trace_csv", "read_trace_csv",
                "reports_to_json", "write_reports_json"),
    "conformal": ("conformal_metric", "reparametrize", "compare_point_sets",
                  "geodesic_residual"),
    "algebra": ("vectorial_tensor", "torsion_from", "decompose", "frobenius_inner",
                "random_metric_class_tensor"),
}

#: Public functions called once per sample or per angle: counted, not spanned.
HOT_FUNCTIONS = {
    "plane": ("plane_curvature", "strip_bounds"),
    "surfaces": ("gauss_map",),
}

#: Instance callables wrapped at construction: (class module, class, {attr: name}).
INSTANCE_CALLABLES = (
    ("geometry", "ChartGeometry", {"metric": "geometry.metric",
                                   "christoffel_analytic": "geometry.christoffel",
                                   "christoffel_fd": "geometry.christoffel"}),
    ("geometry", "VectorFieldSpec", {"components": "geometry.field",
                                     "sigma": "geometry.potential",
                                     "sigma_grad": "geometry.potential",
                                     "flat_potential": "geometry.potential"}),
    ("surfaces", "RevolutionProfile", {"r": "surfaces.profile", "dr": "surfaces.profile",
                                       "h": "surfaces.profile", "dh": "surfaces.profile",
                                       "d2r": "surfaces.profile"}),
)


class Tracer:
    """Call counts, total and self times per name, and the span list."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()    # work done: samples, bytes, steps
        self.spans: list[tuple] = []        # (name, start, end, parent, job)
        self.job: str | None = None
        self._stack: list[list] = []        # [child seconds] per open call
        self._open: list[int] = []          # indexes of open recorded spans

    # -- wrappers --------------------------------------------------------

    def hot(self, name: str, fn):
        if fn is None or getattr(fn, "_perfbench", False):
            return fn
        clock, stack = time.perf_counter, self._stack
        calls, total, self_time = self.calls, self.total, self.self_time

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - frame[0]

        wrapper._perfbench = True
        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a recorded span; ``after(token, args, kwargs,
        result)`` may add work counters, with ``token = before()``."""
        if getattr(fn, "_perfbench", False):
            return fn
        clock, stack, spans, opened = time.perf_counter, self._stack, self.spans, self._open

        def wrapper(*args, **kwargs):
            token = before() if before else None
            frame = [0.0]
            stack.append(frame)
            parent = opened[-1] if opened else -1
            index = len(spans)
            spans.append(None)
            opened.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                opened.pop()
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                spans[index] = (name, t0, t1, parent, self.job)
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]
            if after:
                after(token, args, kwargs, result)
            return result

        wrapper._perfbench = True
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, lib) -> None:
        """Wrap ``lib``'s public functions and instance callables."""
        hooks = self._hooks(lib)
        for mod, names in SPAN_FUNCTIONS.items():
            for fname in names:
                before, after = hooks.get(f"{mod}.{fname}", (None, None))
                self._rebind(getattr(getattr(lib, mod), fname),
                             lambda fn, n=f"{mod}.{fname}", b=before, a=after:
                             self.span(n, fn, b, a))
        for mod, names in HOT_FUNCTIONS.items():
            for fname in names:
                self._rebind(getattr(getattr(lib, mod), fname),
                             lambda fn, n=f"{mod}.{fname}": self.hot(n, fn))

        # compile_expr's callables run on every RHS call
        sc = lib.scenarios
        compile_span = sc.compile_expr

        def compile_expr(src):
            return self.hot("scenarios.expr", compile_span(src))

        self._rebind(compile_span, lambda fn: compile_expr)

        cfg = sc.ScenarioConfig
        cfg.from_dict = classmethod(self.span("scenarios.config_parse",
                                              cfg.__dict__["from_dict"].__func__))
        lib.suite.ALL_CRITERIA = tuple(
            self.span(f"suite.c{i:02d}", fn)
            for i, fn in enumerate(lib.suite.ALL_CRITERIA, start=1))

        for mod, cls_name, attrs in INSTANCE_CALLABLES:
            self._instrument_class(getattr(getattr(lib, mod), cls_name), attrs)

    def _instrument_class(self, cls, attrs: dict) -> None:
        original = cls.__init__
        tracer = self

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            for attr, name in attrs.items():
                fn = getattr(obj, attr, None)
                if fn is not None:
                    setattr(obj, attr, tracer.hot(name, fn))

        cls.__init__ = __init__

    @staticmethod
    def _rebind(original, make) -> None:
        """Replace ``original`` under every name that holds it in a
        torsiongeo module (its own module and every ``from`` import)."""
        wrapped = make(original)
        for modname, module in list(sys.modules.items()):
            if modname != "torsiongeo" and not modname.startswith("torsiongeo."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    def _hooks(self, lib) -> dict:
        counts = self.counts
        sweep_signature = inspect.signature(lib.plane.shooting_sweep)
        calls = self.calls

        def stepper_done(token, args, kwargs, trace):
            counts["integrate.samples"] += len(trace)
            if trace.stop_reason == "boundary":
                counts["integrate.boundary_stops"] += 1

        def adaptive_done(token, args, kwargs, trace):
            stepper_done(token, args, kwargs, trace)
            counts["integrate.rk45_accepted"] += len(trace) - 1
            counts["integrate.rk45_rhs"] += calls["geometry.christoffel"] - token

        def csv_done(token, args, kwargs, text):
            counts["traceio.rows"] += len(args[0])
            counts["traceio.bytes"] += len(text)

        def csv_read(token, args, kwargs, trace):
            counts["traceio.rows"] += len(trace)
            counts["traceio.bytes"] += Path(args[0]).stat().st_size

        def json_done(token, args, kwargs, text):
            counts["traceio.bytes"] += len(text)

        def sweep_done(token, args, kwargs, result):
            bound = sweep_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            counts["plane.angle_steps"] += (len(result.angles) * int(round(a["t_max"] / a["h"]))
                                            * (2 if a["both_directions"] else 1))

        return {
            "integrate.integrate": (None, stepper_done),
            "integrate.integrate_adaptive": (lambda: calls["geometry.christoffel"],
                                             adaptive_done),
            "traceio.trace_to_csv": (None, csv_done),
            "traceio.read_trace_csv": (None, csv_read),
            "traceio.reports_to_json": (None, json_done),
            "plane.shooting_sweep": (None, sweep_done),
        }

    # -- output ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counts": dict(self.counts)}

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")
