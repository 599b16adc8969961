"""Conformal change of metric and the gradient-field geodesic equivalence.

For V = -grad(sigma), geodesics of the twisted connection are, up to a
reparametrization, classical geodesics of the rescaled metric
exp(2 sigma) g.  This module builds the rescaled chart, carries a trace
to the rescaled metric's clock by quadrature over its own samples, and
compares point sets of independently integrated curves.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .audit import geodesic_defect, interior_slice
from .geometry import ZERO_FIELD, ChartGeometry, ChartSource, VectorFieldSpec, cached_runtime
from .integrate import Trace, diagnostics


def conformal_source(chart: ChartSource, sigma: str) -> ChartSource:
    """The chart source with its metric sources multiplied by exp(2 sigma),
    composed as text: a "0" entry stays "0", so its Christoffel terms still
    fold away, and a "1" entry becomes the bare factor."""
    factor = f"exp(2.0*({sigma}))"
    metric = tuple(g if g == "0" else factor if g == "1" else f"{factor}*({g})"
                   for g in chart.metric)
    return replace(chart, name=f"{chart.name}~conformal", metric=metric)


def conformal_metric(chart: ChartGeometry, field: VectorFieldSpec) -> ChartGeometry:
    """The chart with metric rescaled by exp(2 sigma), for the potential
    sigma of ``field``: compiled from the chart's and sigma's sources, with
    exact Christoffel symbols, once per process for each pair."""
    if field.source is None or field.source.kind != "sigma":
        raise ValueError(f"field {field.name!r} declares no scalar potential sigma")
    return cached_runtime(conformal_source(chart.source, field.source.srcs[0]), ZERO_FIELD)[0]


def reparametrize(trace: Trace) -> Trace:
    """Relabel a twisted geodesic's samples with the time of the rescaled metric.

    The new clock obeys d t~ / d t = f = exp(sigma), and along the curve
    f' = -f g(V, v) from the trace's ``g_v`` column.  Each step adds the
    end-corrected trapezoid rule h/2 (f_k + f_k+1) + h^2/12 (f'_k - f'_k+1),
    which is 4th order, and the clock is anchored at t~ = 0 on the trace's
    t = 0 sample.  Positions are the trace's own and the velocity is v / f:
    the output has constant speed for the rescaled metric and satisfies
    its classical geodesic equation.
    """
    if trace.chart is None or trace.field is None:
        raise ValueError("trace carries no chart and field")
    derived_chart = conformal_metric(trace.chart, trace.field)
    launch = trace.index_at(0.0)
    if trace.t[launch] != 0.0:
        raise ValueError("reparametrization anchors t~ = 0 on the trace's t = 0 sample")

    f = np.exp(trace.field.sigma_column(trace.u, trace.v))
    df = -f * trace.g_v
    h = np.diff(trace.t)
    steps = 0.5 * h * (f[:-1] + f[1:]) + h * h / 12.0 * (df[:-1] - df[1:])
    clock = np.concatenate([[0.0], np.cumsum(steps)])
    clock -= clock[launch]

    du = trace.du / f
    dv = trace.dv / f
    no_field = VectorFieldSpec.zero()
    speed = diagnostics(derived_chart.metric_column, no_field.components_column,
                        trace.u, trace.v, du, dv, trace.E)[0]
    zero = np.zeros(len(trace))
    return replace(trace, t=clock, du=du, dv=dv, speed=speed, kappa=zero, g_v=zero,
                   chart=derived_chart, field=no_field, stop_reason="reparametrized")


# ---------------------------------------------------------------------------
# Point-set comparison
# ---------------------------------------------------------------------------


def chordal_lengths(points: np.ndarray) -> np.ndarray:
    """Cumulative polyline length, starting at 0."""
    seg = np.hypot(*np.diff(points, axis=0).T)
    return np.concatenate([[0.0], np.cumsum(seg)])


def resample_by_arclength(points: np.ndarray, n: int, length: float | None = None) -> np.ndarray:
    """Resample a polyline to n points equally spaced in chordal arc length."""
    cum = chordal_lengths(points)
    total = cum[-1] if length is None else min(length, cum[-1])
    s = np.linspace(0.0, total, n)
    return np.column_stack([np.interp(s, cum, points[:, 0]),
                            np.interp(s, cum, points[:, 1])])


def compare_point_sets(trace_a, trace_b) -> float:
    """Symmetric Hausdorff distance after chordal arc-length resampling.

    Accepts traces or raw (N, 2) arrays.  Both curves are cut to the
    shorter chordal length and resampled at 512 points, so two
    parametrizations of the same point set compare near zero.
    """
    a = trace_a.positions if hasattr(trace_a, "positions") else np.asarray(trace_a, dtype=float)
    b = trace_b.positions if hasattr(trace_b, "positions") else np.asarray(trace_b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("point-set comparison needs at least two samples per trace")
    length = min(chordal_lengths(a)[-1], chordal_lengths(b)[-1])
    ra = resample_by_arclength(a, 512, length)
    rb = resample_by_arclength(b, 512, length)
    d2 = (ra[:, None, 0] - rb[None, :, 0]) ** 2 + (ra[:, None, 1] - rb[None, :, 1]) ** 2
    forward = np.sqrt(d2.min(axis=1)).max()
    backward = np.sqrt(d2.min(axis=0)).max()
    return float(max(forward, backward))


def geodesic_residual(trace: Trace) -> float:
    """Max residual of the classical geodesic equation along a trace,
    with accelerations finite-differenced from the samples.  Used to check
    that a reparametrized curve solves the rescaled metric's equation."""
    wu, wv = geodesic_defect(trace)
    core = interior_slice(len(trace))
    return float(np.max(np.abs([wu[core], wv[core]]), initial=0.0))
