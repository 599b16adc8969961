"""Conformal change of metric and the gradient-field geodesic equivalence.

For V = -grad(sigma), geodesics of the twisted connection are, up to a
reparametrization, classical geodesics of the rescaled metric
exp(2 sigma) g.  This module builds the rescaled chart, solves the
reparametrization ODE, and compares point sets of independently
integrated curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .audit import geodesic_defect, interior_slice
from .geometry import (ChartGeometry, VectorFieldSpec, VectorComponents,
                       along, grad, scalar_partials)
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


@dataclass
class ConformalPair:
    """A base chart together with its exp(2 sigma) rescaling."""

    base: ChartGeometry
    sigma: Scalar
    sigma_grad: Callable[[float, float], VectorComponents] | None = None
    derived: ChartGeometry = field(init=False)

    def __post_init__(self) -> None:
        self.derived = conformal_metric(self.base, self.sigma, self.sigma_grad)

    def connection_identity_residual(self, points: np.ndarray) -> float:
        """Max residual of the conformal transformation rule for the
        Levi-Civita connection, checked through finite differences."""
        worst = 0.0
        for u, v in points:
            tilde = np.array(self.derived.christoffel_fd(u, v))
            base = np.array(self.base.christoffel(u, v))
            if self.sigma_grad is not None:
                su, sv = self.sigma_grad(u, v)
            else:
                su, sv = scalar_partials(self.sigma, u, v, self.base.fd_scale)
            gs = grad(self.base, self.sigma, (u, v), partials=self.sigma_grad)
            g11, g12, g22 = self.base.metric(u, v)
            expect = base.copy()
            # Gamma~^k_ij = Gamma^k_ij + d_i s d^k_j + d_j s d^k_i - g_ij grad^k
            ds = (su, sv)
            gmat = ((g11, g12), (g12, g22))
            for k in (0, 1):
                for col, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
                    expect[k][col] += (ds[i] if j == k else 0.0)
                    expect[k][col] += (ds[j] if i == k else 0.0)
                    expect[k][col] -= gmat[i][j] * gs[k]
            worst = max(worst, float(np.max(np.abs(tilde - expect))))
        return worst


def reparametrize(trace: Trace, sigma: Scalar | None = None,
                  derived_chart: ChartGeometry | None = None) -> Trace:
    """Resample a twisted geodesic into the time of the rescaled metric.

    Solves d tau / d t = exp(-sigma(gamma(tau))), tau(0) = 0, by RK4 on the
    scalar equation while interpolating the stored trace with cubic
    splines, and returns gamma(tau(t)) sampled on the new clock.  The
    output has constant speed for the rescaled metric and satisfies its
    classical geodesic equation.
    """
    if sigma is None:
        sigma = getattr(trace.field, "sigma", None)
    if sigma is None:
        raise ValueError("trace's field declares no scalar potential sigma")
    if derived_chart is None:
        if trace.chart is None:
            raise ValueError("trace carries no chart")
        derived_chart = conformal_metric(trace.chart, sigma,
                                         getattr(trace.field, "sigma_grad", None))

    from scipy.interpolate import CubicSpline

    t = trace.t
    su = CubicSpline(t, trace.u)
    sv = CubicSpline(t, trace.v)
    sdu = CubicSpline(t, trace.du)
    sdv = CubicSpline(t, trace.dv)
    t_lo, t_hi = float(t[0]), float(t[-1])
    if not (t_lo <= 0.0 <= t_hi):
        raise ValueError("reparametrization anchors tau(0) = 0; trace must contain t = 0")

    def point_rate(u: float, v: float) -> float:
        return math.exp(-sigma(u, v))

    def rate(tau: float) -> float:
        return point_rate(float(su(tau)), float(sv(tau)))

    h = float(np.median(np.diff(t)))

    def march(rate, lo: float, hi: float) -> tuple[list[float], list[float]]:
        times = [0.0]
        taus = [0.0]
        tau = 0.0
        while True:
            k1 = rate(tau)
            # stop before the spline range is exhausted
            if not (lo <= tau + h * k1 <= hi):
                break
            k2 = rate(tau + 0.5 * h * k1)
            k3 = rate(tau + 0.5 * h * k2)
            if not (lo <= tau + h * k3 <= hi):
                break
            k4 = rate(tau + h * k3)
            step = h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            if tau + step - hi > 0:
                break
            tau += step
            times.append(times[-1] + h)
            taus.append(tau)
        return times, taus

    # the backward half is the forward march of the reflected clock tau -> -tau
    # (RK4 commutes with it bitwise), reversed and without its launch sample
    fw_t, fw_tau = march(rate, t_lo, t_hi)
    bw_t, bw_tau = march(lambda s: rate(-s), -t_hi, -t_lo)
    new_t = np.array([-s for s in bw_t[:0:-1]] + fw_t)
    new_tau = np.array([-s for s in bw_tau[:0:-1]] + fw_tau)

    uu = su(new_tau)
    vv = sv(new_tau)
    rates = along(point_rate, uu, vv)
    duu = rates * sdu(new_tau)
    dvv = rates * sdv(new_tau)

    no_field = VectorFieldSpec.zero()
    speed = diagnostics(derived_chart.metric, no_field.components, uu, vv, duu, dvv, trace.E)[0]
    zero = np.zeros(len(new_t))
    return Trace(t=new_t, u=uu, v=vv, du=duu, dv=dvv,
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
