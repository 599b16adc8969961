"""Diagnostics along integrated traces: curvature, constants of motion,
flow symmetry.

Time derivatives of sampled series use 4th-order central differences on
uniform grids and a cubic spline on non-uniform (adaptive) grids, matching
the integrator order.  All functions are pure post-processing over
immutable traces and are embarrassingly parallel across reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .expr import libm_map
from .geometry import ChartGeometry, VectorFieldSpec, positive_part
from .integrate import GeodesicState, IntegratorSettings, Trace, integrate_two_sided

#: Per-step slack when asserting that a series is non-increasing; absorbs
#: roundoff without masking genuine violations.
MONOTONE_TOL = 1e-8


@dataclass
class InvariantReport:
    """Drift statistics of a sampled quantity along a trace."""

    name: str
    times: np.ndarray
    values: np.ndarray
    max_dev: float
    std: float
    monotone: bool | None = None
    threshold: float | None = None
    passed: bool | None = None

    @property
    def verdict(self) -> str:
        if self.passed is None:
            return "N/A"
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "max_dev": self.max_dev,
            "std": self.std,
            "verdict": self.verdict,
        }
        if self.monotone is not None:
            out["monotone"] = self.monotone
        if self.threshold is not None:
            out["threshold"] = self.threshold
        return out


def make_report(name: str, times: np.ndarray, values: np.ndarray,
                threshold: float | None = None, use_std: bool = False,
                monotone: bool | None = None) -> InvariantReport:
    """Report drift of ``values`` against its first finite sample.

    With no finite sample, ``max_dev`` and ``std`` are NaN and a report
    with a threshold fails.
    """
    finite = values[np.isfinite(values.real if np.iscomplexobj(values) else values)]
    max_dev = std = math.nan
    if len(finite):
        max_dev = float(np.max(np.abs(finite - finite[0])))
        std = float(np.sqrt(np.mean(np.abs(finite - np.mean(finite)) ** 2)))
    passed = None
    if threshold is not None:
        passed = (std if use_std else max_dev) < threshold
    return InvariantReport(name=name, times=times, values=values,
                           max_dev=max_dev, std=std, monotone=monotone,
                           threshold=threshold, passed=passed)


# ---------------------------------------------------------------------------
# Series derivatives
# ---------------------------------------------------------------------------


def uniform_step(t: np.ndarray) -> float | None:
    """The median step h of a time grid if every step lies within
    1e-9 max(1, h) of it; None for a non-uniform grid or one without steps."""
    dt = np.diff(np.asarray(t, dtype=float))
    if len(dt) == 0:
        return None
    h = float(np.median(dt))
    return h if np.all(np.abs(dt - h) <= 1e-9 * max(1.0, h)) else None


def series_derivative(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d y / d t of a sampled series, 4th order on uniform grids."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = slice(None)
    if len(t) >= 5:
        h = uniform_step(t)
        if h is not None:
            out = np.empty_like(y)
            out[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
            # one-sided 4th order at the edges
            c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
            d = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12.0 * h)
            out[0] = c @ y[:5]
            out[1] = d @ y[:5]
            out[-1] = -(c @ y[-5:][::-1])
            out[-2] = -(d @ y[-5:][::-1])
            return out
        # Non-uniform grid: prune near-duplicate knots (boundary bisection
        # tails) before fitting a spline.
        dt = np.diff(t)
        keep = np.concatenate([[True], dt > 1e-6 * np.median(dt)])
    # scipy is imported on first use: it dominates the package import time
    from scipy.interpolate import CubicSpline

    return CubicSpline(t[keep], y[keep]).derivative()(t)


def interior_slice(n: int, margin: int = 2) -> slice:
    return slice(margin, max(margin + 1, n - margin))


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------


def curvature_general(trace: Trace) -> np.ndarray:
    """Per-sample geodesic curvature sqrt(max(0, |V|^2 - g(V, v)^2 / E^2)).

    Nonnegative; vanishes where the velocity is parallel to V, where the
    curve locally coincides with a classical geodesic.  This is the trace's
    own ``kappa`` column, which the integrator computes with this formula.
    """
    _require_field(trace)
    return trace.kappa


def geodesic_defect(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample components (w^u, w^v) of a + Gamma(v, v), the acceleration
    differenced from the stored velocities; zero along a classical geodesic."""
    chart = _require_chart(trace)
    ddu = series_derivative(trace.t, trace.du)
    ddv = series_derivative(trace.t, trace.dv)
    (a0, a1, a2), (b0, b1, b2) = chart.christoffel_column(trace.u, trace.v)
    du, dv = trace.du, trace.dv
    wu = ddu + a0 * du * du + 2.0 * a1 * du * dv + a2 * dv * dv
    wv = ddv + b0 * du * du + 2.0 * b1 * du * dv + b2 * dv * dv
    return wu, wv


def kinematic_curvature(trace: Trace) -> np.ndarray:
    """Curvature |a + Gamma(v, v)| / E^2 with the acceleration differenced
    from the stored velocities; the independent oracle for the closed form."""
    wu, wv = geodesic_defect(trace)
    g11, g12, g22 = trace.chart.metric_column(trace.u, trace.v)
    n2 = g11 * wu * wu + 2.0 * g12 * wu * wv + g22 * wv * wv
    return np.sqrt(positive_part(n2)) / (trace.E * trace.E)


def killing_curvature_check(trace: Trace) -> InvariantReport:
    """For a Killing field: d/dt g(V, v) = -E^2 kappa^2, g(V, v) non-increasing.

    The derivative is finite-differenced from the stored g(V, v) series, and
    the residual must stay below 1e-4.  Raises ValueError for a field not
    flagged Killing.
    """
    residual_tol = 1e-4
    field = _require_field(trace)
    if not field.killing:
        raise ValueError(f"field {field.name!r} is not flagged as a Killing field")
    gv = trace.g_v
    kappa = curvature_general(trace)
    dgv = series_derivative(trace.t, gv)
    residual = dgv + trace.E ** 2 * kappa ** 2
    core = interior_slice(len(trace))
    max_res = float(np.max(np.abs(residual[core])))
    monotone = bool(np.all(np.diff(gv) <= MONOTONE_TOL))
    return InvariantReport(
        name="killing-curvature", times=trace.t, values=residual,
        max_dev=max_res, std=float(np.std(residual[core])),
        monotone=monotone, threshold=residual_tol,
        passed=(max_res < residual_tol) and monotone,
    )


# ---------------------------------------------------------------------------
# Constants of motion from conformal Killing data
# ---------------------------------------------------------------------------


def conformal_constant(trace: Trace,
                       X: Callable[[float, float], tuple[float, float]] | Sequence[float] = (0.0, 1.0)
                       ) -> InvariantReport:
    """Report on exp(sigma) * g(velocity, X) along the trace, for the
    potential sigma of the trace's vector field; it passes with a standard
    deviation below 1e-6.

    ``X`` is a Killing field of the conformally rescaled metric, given in
    chart components: a constant pair, or a callable that takes the arrays
    of the samples' coordinates.  exp(sigma) is libm's, as on scalars.
    """
    sigma = getattr(trace.field, "sigma_column", None)
    if sigma is None:
        raise ValueError("no scalar potential available for the conformal constant")
    vals = libm_map(math.exp, sigma(trace.u, trace.v)) * naive_momentum(trace, X)
    return make_report("conformal-constant", trace.t, vals, threshold=1e-6, use_std=True)


def naive_momentum(trace: Trace,
                   X: Callable[[float, float], tuple[float, float]] | Sequence[float] = (0.0, 1.0)) -> np.ndarray:
    """The uncorrected series g(velocity, X); generally not a first integral.
    A callable ``X`` takes the arrays of the samples' coordinates."""
    chart = _require_chart(trace)
    g11, g12, g22 = chart.metric_column(trace.u, trace.v)
    X0, X1 = X(trace.u, trace.v) if callable(X) else X
    du, dv = trace.du, trace.dv
    return g11 * du * X0 + g12 * (du * X1 + dv * X0) + g22 * dv * X1


# ---------------------------------------------------------------------------
# Flow symmetry
# ---------------------------------------------------------------------------


@dataclass
class Isometry:
    """A chart isometry given by a point map and its differential.  The point
    map acts elementwise on arrays of coordinates as on floats."""

    name: str
    point_map: Callable[[float, float], tuple[float, float]]
    differential: Callable[[float, float], np.ndarray]

    @classmethod
    def identity(cls) -> "Isometry":
        return cls("identity", lambda u, v: (u, v), lambda u, v: np.eye(2))

    @classmethod
    def rotation(cls, angle: float) -> "Isometry":
        """The rotation by ``angle`` about the origin."""
        c, s = math.cos(angle), math.sin(angle)
        R = np.array([[c, -s], [s, c]])
        return cls(f"rotation({angle:.6g})", lambda u, v: (c * u - s * v, s * u + c * v),
                   lambda u, v: R)

    @classmethod
    def translation(cls, dx: float, dy: float) -> "Isometry":
        return cls(f"translation({dx:.6g},{dy:.6g})",
                   lambda u, v: (u + dx, v + dy), lambda u, v: np.eye(2))


def killing_flow_symmetry(trace: Trace, isometry: Isometry) -> float:
    """Max pointwise mismatch between the mapped trace and a re-integration.

    The map is applied to the launch state, the geodesic is re-integrated
    over the trace's span with its method, step and tolerances, and
    positions are compared sample by sample.  The isometry must commute
    with the trace's vector field; this is spot-checked at 20 sample points,
    to 1e-6 relative, and violations raise ValueError.

    On an rk45 trace only the identity can be checked: Fehlberg scales its
    error by the state, so a mapped launch takes its own steps, and the
    re-integration's grid no longer matches (ValueError).
    """
    chart = _require_chart(trace)
    field = _require_field(trace)
    _check_commutes(trace, isometry, field, 1e-6)

    i0 = trace.index_at(0.0)
    u0, v0 = isometry.point_map(trace.u[i0], trace.v[i0])
    D = isometry.differential(trace.u[i0], trace.v[i0])
    w = D @ np.array([trace.du[i0], trace.dv[i0]])
    state = GeodesicState(0.0, u0, v0, float(w[0]), float(w[1]))

    settings = trace.settings or IntegratorSettings()
    reint = integrate_two_sided(chart, field, state, float(trace.t[0]), float(trace.t[-1]),
                                h=settings.h, method=settings.method,
                                rtol=settings.rtol, atol=settings.atol)
    if len(reint) != len(trace) or np.max(np.abs(reint.t - trace.t)) > 1e-9:
        raise ValueError("re-integrated trace does not share the sample grid")

    mu, mv = isometry.point_map(trace.u, trace.v)
    mismatch = np.hypot(mu - reint.u, mv - reint.v)
    return float(np.max(mismatch))


def _check_commutes(trace: Trace, isometry: Isometry, field: VectorFieldSpec,
                    tol: float) -> None:
    idx = np.linspace(0, len(trace) - 1, min(20, len(trace))).astype(int)
    for i in idx:
        u, v = trace.u[i], trace.v[i]
        D = isometry.differential(u, v)
        pushed = D @ np.array(field.components(u, v))
        there = np.array(field.components(*isometry.point_map(u, v)))
        scale = 1.0 + float(np.max(np.abs(there)))
        if np.max(np.abs(pushed - there)) > tol * scale:
            raise ValueError(
                f"isometry {isometry.name!r} does not commute with field {field.name!r}"
            )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _require_chart(trace: Trace) -> ChartGeometry:
    if trace.chart is None:
        raise ValueError("trace carries no chart; audits need the original chart")
    return trace.chart


def _require_field(trace: Trace) -> VectorFieldSpec:
    if trace.field is None:
        raise ValueError("trace carries no vector field")
    return trace.field
