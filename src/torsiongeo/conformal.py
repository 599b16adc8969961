"""Conformal change of metric and the gradient-field geodesic equivalence.

For V = -grad(sigma), geodesics of the twisted connection are, up to a
reparametrization, classical geodesics of the rescaled metric
exp(2 sigma) g.  This module builds the rescaled chart, carries a trace
to the rescaled metric's clock by quadrature over its own samples, and
compares point sets of independently integrated curves.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .audit import geodesic_defect, interior_slice
from .geometry import ChartGeometry, VectorFieldSpec, VectorComponents, along
from .integrate import Trace, diagnostics

Scalar = Callable[[float, float], float]


def conformal_metric(chart: ChartGeometry, sigma: Scalar,
                     sigma_grad: Callable[[float, float], VectorComponents] | None = None,
                     name: str | None = None) -> ChartGeometry:
    """The chart with metric rescaled by exp(2 sigma).

    When the base chart has analytic Christoffels and analytic partials of
    sigma are supplied, the derived chart gets analytic Christoffels via
    the standard conformal transformation rule; otherwise it falls back to
    finite differences of the rescaled metric.
    """
    base_metric = chart.metric

    def metric(u: float, v: float) -> tuple[float, float, float]:
        f = math.exp(2.0 * sigma(u, v))
        g11, g12, g22 = base_metric(u, v)
        return (f * g11, f * g12, f * g22)

    gamma = None
    if chart.christoffel_analytic is not None and sigma_grad is not None:
        base_gamma = chart.christoffel_analytic

        def gamma(u: float, v: float):
            (a0, a1, a2), (b0, b1, b2) = base_gamma(u, v)
            su, sv = sigma_grad(u, v)
            g11, g12, g22 = base_metric(u, v)
            det = g11 * g22 - g12 * g12
            gu = (g22 * su - g12 * sv) / det   # (grad sigma)^u
            gv = (-g12 * su + g11 * sv) / det
            return (
                (a0 + 2.0 * su - g11 * gu,
                 a1 + sv - g12 * gu,
                 a2 - g22 * gu),
                (b0 - g11 * gv,
                 b1 + su - g12 * gv,
                 b2 + 2.0 * sv - g22 * gv),
            )

    return ChartGeometry(
        name=name or f"{chart.name}~conformal",
        metric=metric,
        bounds=chart.bounds,
        christoffel_analytic=gamma,
        coord_names=chart.coord_names,
        sample_box=chart.sample_box,
        fd_scale=chart.fd_scale,
    )


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
    sigma = getattr(trace.field, "sigma", None)
    if sigma is None:
        raise ValueError("trace's field declares no scalar potential sigma")
    if trace.chart is None:
        raise ValueError("trace carries no chart")
    launch = trace.index_at(0.0)
    if trace.t[launch] != 0.0:
        raise ValueError("reparametrization anchors t~ = 0 on the trace's t = 0 sample")
    derived_chart = conformal_metric(trace.chart, sigma, trace.field.sigma_grad)

    f = np.exp(along(sigma, trace.u, trace.v))
    df = -f * trace.g_v
    h = np.diff(trace.t)
    steps = 0.5 * h * (f[:-1] + f[1:]) + h * h / 12.0 * (df[:-1] - df[1:])
    clock = np.concatenate([[0.0], np.cumsum(steps)])
    clock -= clock[launch]

    du = trace.du / f
    dv = trace.dv / f
    no_field = VectorFieldSpec.zero()
    speed = diagnostics(derived_chart.metric, no_field.components,
                        trace.u, trace.v, du, dv, trace.E)[0]
    zero = np.zeros(len(trace))
    return Trace(t=clock, u=trace.u, v=trace.v, du=du, dv=dv,
                 speed=speed, kappa=zero, g_v=zero, E=trace.E,
                 chart=derived_chart, field=no_field,
                 settings=trace.settings, stop_reason="reparametrized",
                 scenario_id=trace.scenario_id)


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


def compare_point_sets(trace_a, trace_b, n_points: int = 512,
                       trim_to_common: bool = True) -> float:
    """Symmetric Hausdorff distance after chordal arc-length resampling.

    Accepts traces or raw (N, 2) arrays.  With ``trim_to_common`` both
    curves are cut to the shorter chordal length before resampling, so two
    parametrizations of the same point set compare near zero.
    """
    a = trace_a.positions if hasattr(trace_a, "positions") else np.asarray(trace_a, dtype=float)
    b = trace_b.positions if hasattr(trace_b, "positions") else np.asarray(trace_b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("point-set comparison needs at least two samples per trace")
    length = None
    if trim_to_common:
        length = min(chordal_lengths(a)[-1], chordal_lengths(b)[-1])
    ra = resample_by_arclength(a, n_points, length)
    rb = resample_by_arclength(b, n_points, length)
    d2 = ((ra[:, None, :] - rb[None, :, :]) ** 2).sum(axis=2)
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
