"""Sampled validators and fixtures for charts and fields, used by the tests.

Each check samples a chart's interior and returns its worst residual:
metric positivity, exact against central-difference Christoffel symbols,
frame orthonormality, V = -grad(sigma), and the Killing equation.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from torsiongeo.errors import MetricDegeneracyError
from torsiongeo.geometry import (PLANE, ChartGeometry, FieldSource, VectorComponents,
                                 VectorFieldSpec, christoffel, compile_runtime, fd_step, grad,
                                 inner)

#: A frame as two evaluators (u, v) -> chart components, (e1, e2).
Frame = tuple[Callable[[float, float], VectorComponents],
              Callable[[float, float], VectorComponents]]


def constant_field(a: float, b: float) -> VectorFieldSpec:
    """A constant field a dx + b dy; flat potential a y - b x, Killing.
    Compiled on each call, not cached: its constants are the caller's."""
    return compile_runtime(PLANE, FieldSource(f"constant({a:.6g},{b:.6g})", "p",
                                              (f"({a!r})*y - ({b!r})*x",), killing=True))[1]


def gram_schmidt(chart: ChartGeometry) -> Frame:
    """Orthonormalize the coordinate frame (du first, then dv)."""

    def e1(u: float, v: float) -> VectorComponents:
        g11, _, _ = chart.metric(u, v)
        return (1.0 / math.sqrt(g11), 0.0)

    def e2(u: float, v: float) -> VectorComponents:
        g11, g12, g22 = chart.metric(u, v)
        # dv minus its projection on du, normalized
        a = -g12 / g11
        nrm = math.sqrt(g22 + 2.0 * a * g12 + a * a * g11)
        return (a / nrm, 1.0 / nrm)

    return e1, e2


def covariant_derivative(chart: ChartGeometry, field: VectorFieldSpec,
                         point, X) -> np.ndarray:
    """Levi-Civita covariant derivative (nabla_X V) in chart components."""
    u, v = float(point[0]), float(point[1])
    chart.require_inside(u, v)
    hu = fd_step(u)
    hv = fd_step(v)
    dV = np.array([  # dV[i][k] = partial_i V^k
        np.subtract(field.components(u + hu, v), field.components(u - hu, v)) / (2 * hu),
        np.subtract(field.components(u, v + hv), field.components(u, v - hv)) / (2 * hv),
    ])
    G = christoffel(chart, (u, v))
    V = np.array(field.components(u, v))
    Xa = np.asarray(X, dtype=float)
    out = np.empty(2)
    for k in (0, 1):
        out[k] = Xa[0] * dV[0][k] + Xa[1] * dV[1][k] + Xa @ G[k] @ V
    return out


def _validation_box(chart: ChartGeometry) -> tuple[float, float, float, float]:
    """The chart's sample box if its domain is unbounded, else the domain
    shrunk by 1 % of its width on each side."""
    u0, u1, v0, v1 = chart.bounds
    if not all(map(math.isfinite, (u0, u1, v0, v1))):
        if chart.sample_box is None:
            raise ValueError(f"chart {chart.name!r} has an unbounded domain and no sample_box")
        return chart.sample_box
    du = (u1 - u0) * 0.01
    dv = (v1 - v0) * 0.01
    return (u0 + du, u1 - du, v0 + dv, v1 - dv)


def sample_interior(chart: ChartGeometry, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Uniform random interior points, shape (n, 2)."""
    rng = rng or np.random.default_rng(0)
    u0, u1, v0, v1 = _validation_box(chart)
    us = rng.uniform(u0, u1, n)
    return np.column_stack([us, rng.uniform(v0, v1, n)])


def interior_grid(chart: ChartGeometry, n: int = 20) -> np.ndarray:
    """A regular n x n interior sample grid, shape (n*n, 2)."""
    u0, u1, v0, v1 = _validation_box(chart)
    uu, vv = np.meshgrid(np.linspace(u0, u1, n), np.linspace(v0, v1, n))
    return np.column_stack([uu.ravel(), vv.ravel()])


def check_metric_spd(chart: ChartGeometry, points: np.ndarray) -> float:
    """Verify SPD at every point; returns the smallest eigenvalue seen."""
    smallest = math.inf
    for u, v in points:
        w = np.linalg.eigvalsh(chart.metric_matrix(u, v))
        smallest = min(smallest, float(w[0]))
        if w[0] <= 0.0:
            raise MetricDegeneracyError(
                f"metric of chart {chart.name!r} has eigenvalue {w[0]} at ({u}, {v})"
            )
    return smallest


def check_christoffel_consistency(chart: ChartGeometry, points: np.ndarray) -> float:
    """Max |analytic - central difference| over Christoffel components."""
    worst = 0.0
    for u, v in points:
        ana = np.array(chart.christoffel_analytic(u, v))
        num = np.array(chart.christoffel_fd(u, v))
        worst = max(worst, float(np.max(np.abs(ana - num))))
    return worst


def check_frame_orthonormal(chart: ChartGeometry, frame: Frame, points: np.ndarray) -> float:
    """Max |g(e_i, e_j) - delta_ij| over the sample points."""
    worst = 0.0
    for u, v in points:
        e1, e2 = (e(u, v) for e in frame)
        worst = max(
            worst,
            abs(inner(chart, (u, v), e1, e1) - 1.0),
            abs(inner(chart, (u, v), e2, e2) - 1.0),
            abs(inner(chart, (u, v), e1, e2)),
        )
    return worst


def check_gradient_relation(chart: ChartGeometry, field: VectorFieldSpec, points: np.ndarray) -> float:
    """Max norm of V + grad(sigma) over the sample points."""
    if field.sigma is None:
        raise ValueError(f"field {field.name!r} declares no scalar potential")
    worst = 0.0
    for u, v in points:
        g = grad(chart, field.sigma, (u, v), partials=field.sigma_grad)
        V = np.array(field.components(u, v))
        worst = max(worst, float(np.max(np.abs(V + g))))
    return worst


def check_killing(chart: ChartGeometry, field: VectorFieldSpec, points: np.ndarray,
                  rng: np.random.Generator | None = None) -> float:
    """Max |g(nabla_X V, Y) + g(nabla_Y V, X)| over random unit X, Y."""
    rng = rng or np.random.default_rng(1)
    worst = 0.0
    for u, v in points:
        X = rng.normal(size=2)
        Y = rng.normal(size=2)
        X /= np.linalg.norm(X)
        Y /= np.linalg.norm(Y)
        nxv = covariant_derivative(chart, field, (u, v), X)
        nyv = covariant_derivative(chart, field, (u, v), Y)
        worst = max(worst, abs(inner(chart, (u, v), nxv, Y) + inner(chart, (u, v), nyv, X)))
    return worst
