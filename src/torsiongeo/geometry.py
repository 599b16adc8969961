"""Coordinate charts, metrics, and vector fields in 2D.

A chart is a rectangular open box of (u, v) coordinates together with a
metric evaluator.  All evaluators are pure functions of their arguments, so
charts and fields are safe for concurrent read-only use.

Metric evaluators return the three independent components (g11, g12, g22)
of the symmetric matrix; ``metric_matrix`` assembles the 2x2 array when a
dense form is needed.  Every chart and field the integrator steps is
described by expression sources and compiled by :func:`compile_runtime`,
with exact derivatives throughout; central differences of the metric
(``ChartGeometry.christoffel_fd``) remain as a test oracle.  A compiled
chart and field also carry the column form of each evaluator, which
traces' diagnostics and the audits call on whole arrays of samples.

No frame type is kept: an angle launch on a surface of revolution is taken
in the closed-form orthonormal frame (d_s, d_phi / r) of diag(1, r^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import cache, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ChartDomainError, MetricDegeneracyError
from .expr import _ACCELERATION, _CHRISTOFFEL, _FIELDS, _INVERSE, Column, FusedRHS, _compile

MetricComponents = tuple[float, float, float]
VectorComponents = tuple[float, float]
# Christoffel components per upper index k: (G^k_uu, G^k_uv, G^k_vv).
ChristoffelComponents = tuple[tuple[float, float, float], tuple[float, float, float]]

#: Relative scale of the central-difference step for metric and scalar
#: derivatives.  h = FD_SCALE * max(1, |coordinate|) balances truncation
#: against roundoff in double precision.
FD_SCALE = 1e-6


def fd_step(x: float) -> float:
    return FD_SCALE * max(1.0, abs(x))


@dataclass
class ChartGeometry:
    """A 2D coordinate chart with a Riemannian metric.

    The domain box is open: evaluation on or beyond the boundary raises
    :class:`ChartDomainError` instead of clamping, so chart singularities
    (sphere poles, vanishing profile radius) fail loudly.

    Parameters
    ----------
    name:
        Identifier used in traces, reports and error messages.
    metric:
        ``(u, v) -> (g11, g12, g22)``, dimensionless, SPD on the domain.
    christoffel_analytic:
        ``(u, v) -> ((G^u_uu, G^u_uv, G^u_vv), (G^v_uu, ...))``, the exact
        Levi-Civita symbols of the metric.
    bounds:
        ``(u_min, u_max, v_min, v_max)``; entries may be infinite.
    sample_box:
        Finite box to draw sample launches and points from.
    source:
        The :class:`ChartSource` a compiled chart was built from; a field
        compiled with the same source steps on this chart with its fused RHS.
    metric_column, christoffel_column:
        The column forms of a compiled chart's ``metric`` and
        ``christoffel_analytic`` (see :class:`expr.Column`): float arrays
        (u, v) in, one array per component out, bitwise the scalar values.
    """

    name: str
    metric: Callable[[float, float], MetricComponents]
    christoffel_analytic: Callable[[float, float], ChristoffelComponents]
    bounds: tuple[float, float, float, float] = (-math.inf, math.inf, -math.inf, math.inf)
    sample_box: tuple[float, float, float, float] | None = None
    source: ChartSource | None = None
    metric_column: Column | None = dc_field(default=None, repr=False, compare=False)
    christoffel_column: Column | None = dc_field(default=None, repr=False, compare=False)

    def contains(self, u: float, v: float) -> bool:
        u0, u1, v0, v1 = self.bounds
        return u0 < u < u1 and v0 < v < v1

    def require_inside(self, u: float, v: float) -> None:
        if not self.contains(u, v):
            raise ChartDomainError(
                f"point ({u!r}, {v!r}) is outside the open domain of chart {self.name!r}"
            )

    # -- metric access -------------------------------------------------

    def metric_components(self, u: float, v: float) -> MetricComponents:
        self.require_inside(u, v)
        return self.metric(u, v)

    def metric_matrix(self, u: float, v: float) -> np.ndarray:
        g11, g12, g22 = self.metric_components(u, v)
        return np.array([[g11, g12], [g12, g22]])

    def inverse_metric_components(self, u: float, v: float) -> MetricComponents:
        g11, g12, g22 = self.metric_components(u, v)
        det = g11 * g22 - g12 * g12
        if not (g11 > 0.0 and det > 0.0):
            raise MetricDegeneracyError(
                f"metric of chart {self.name!r} is not positive definite at ({u}, {v})"
            )
        return (g22 / det, -g12 / det, g11 / det)

    # -- Christoffel symbols -------------------------------------------

    def christoffel(self, u: float, v: float) -> ChristoffelComponents:
        self.require_inside(u, v)
        return self.christoffel_analytic(u, v)

    def christoffel_fd(self, u: float, v: float) -> ChristoffelComponents:
        """Levi-Civita coefficients from central differences of the metric."""
        hu = fd_step(u)
        hv = fd_step(v)
        gp = self.metric(u + hu, v)
        gm = self.metric(u - hu, v)
        du_g = ((gp[0] - gm[0]) / (2.0 * hu), (gp[1] - gm[1]) / (2.0 * hu), (gp[2] - gm[2]) / (2.0 * hu))
        gp = self.metric(u, v + hv)
        gm = self.metric(u, v - hv)
        dv_g = ((gp[0] - gm[0]) / (2.0 * hv), (gp[1] - gm[1]) / (2.0 * hv), (gp[2] - gm[2]) / (2.0 * hv))

        g11, g12, g22 = self.metric(u, v)
        det = g11 * g22 - g12 * g12
        if not (g11 > 0.0 and det > 0.0):
            raise MetricDegeneracyError(
                f"metric of chart {self.name!r} is not positive definite at ({u}, {v})"
            )
        i11 = g22 / det
        i12 = -g12 / det
        i22 = g11 / det

        # Lowered symbols G_kij = (d_i g_jk + d_j g_ik - d_k g_ij) / 2 with
        # component order (uu, uv, vv) in (i, j).
        d = (du_g, dv_g)

        def dg(i: int, j: int, k: int) -> float:
            # partial_i g_jk with g stored as (g11, g12, g22)
            idx = j + k  # (0,0)->0, (0,1)/(1,0)->1, (1,1)->2
            return d[i][idx]

        low = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]  # low[k][(i,j) as uu,uv,vv]
        for k in (0, 1):
            low[k][0] = 0.5 * (2.0 * dg(0, 0, k) - dg(k, 0, 0))
            low[k][1] = 0.5 * (dg(0, 1, k) + dg(1, 0, k) - dg(k, 0, 1))
            low[k][2] = 0.5 * (2.0 * dg(1, 1, k) - dg(k, 1, 1))
        gu = (
            i11 * low[0][0] + i12 * low[1][0],
            i11 * low[0][1] + i12 * low[1][1],
            i11 * low[0][2] + i12 * low[1][2],
        )
        gv = (
            i12 * low[0][0] + i22 * low[1][0],
            i12 * low[0][1] + i22 * low[1][1],
            i12 * low[0][2] + i22 * low[1][2],
        )
        return (gu, gv)


# ---------------------------------------------------------------------------
# Pointwise metric operations
# ---------------------------------------------------------------------------


def christoffel(chart: ChartGeometry, point: Sequence[float]) -> np.ndarray:
    """Christoffel symbols at ``point`` as a (2, 2, 2) array, G[k, i, j].

    Symmetric in (i, j).  Raises :class:`ChartDomainError` outside the open
    domain box and :class:`MetricDegeneracyError` where the metric is
    singular.
    """
    u, v = float(point[0]), float(point[1])
    (a0, a1, a2), (b0, b1, b2) = chart.christoffel(u, v)
    return np.array([[[a0, a1], [a1, a2]], [[b0, b1], [b1, b2]]])


def inner(chart: ChartGeometry, point: Sequence[float], X: Sequence[float], Y: Sequence[float]) -> float:
    """Metric inner product g(X, Y) at ``point``."""
    g11, g12, g22 = chart.metric_components(float(point[0]), float(point[1]))
    return g11 * X[0] * Y[0] + g12 * (X[0] * Y[1] + X[1] * Y[0]) + g22 * X[1] * Y[1]


def norm(chart: ChartGeometry, point: Sequence[float], X: Sequence[float]) -> float:
    return math.sqrt(max(0.0, inner(chart, point, X, X)))


def positive_part(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x), with NaN mapped to 0 as ``max(0.0, x)`` does."""
    return np.where(x > 0.0, x, 0.0)


def scalar_partials(scalar: Callable[[float, float], float],
                    u: float, v: float) -> tuple[float, float]:
    """Central-difference partial derivatives of a scalar evaluator."""
    hu = fd_step(u)
    hv = fd_step(v)
    su = (scalar(u + hu, v) - scalar(u - hu, v)) / (2.0 * hu)
    sv = (scalar(u, v + hv) - scalar(u, v - hv)) / (2.0 * hv)
    return su, sv


def grad(chart: ChartGeometry, scalar: Callable[[float, float], float],
         point: Sequence[float],
         partials: Callable[[float, float], VectorComponents] | None = None) -> np.ndarray:
    """Metric gradient of a scalar at ``point``.

    Satisfies g(grad f, X) = X(f).  Partial derivatives come from central
    differences unless an analytic ``partials`` evaluator is supplied.
    """
    u, v = float(point[0]), float(point[1])
    chart.require_inside(u, v)
    if partials is not None:
        su, sv = partials(u, v)
    else:
        su, sv = scalar_partials(scalar, u, v)
    i11, i12, i22 = chart.inverse_metric_components(u, v)
    return np.array([i11 * su + i12 * sv, i12 * su + i22 * sv])


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------


@dataclass
class VectorFieldSpec:
    """A tangent vector field in chart components, with optional potentials.

    ``sigma`` declares the relation V = -grad(sigma); ``flat_potential``
    declares the plane relation (V_u, V_v) = (d_y p, -d_x p).  Both are
    assertions by the scenario author, verified numerically by the tests.
    ``killing`` flags fields whose flow consists of isometries.
    ``source`` is the :class:`FieldSource` the field was compiled from, and
    ``fused`` pairs the source of the chart it was compiled with and their
    fused geodesic RHS, which also yields the RK steps that inline it.  The
    ``*_column`` attributes are the column forms of a compiled field's
    evaluators, as on :class:`ChartGeometry`.
    """

    name: str
    components: Callable[[float, float], VectorComponents]
    sigma: Callable[[float, float], float] | None = None
    sigma_grad: Callable[[float, float], VectorComponents] | None = None
    flat_potential: Callable[[float, float], float] | None = None
    killing: bool = False
    source: FieldSource | None = None
    fused: tuple[ChartSource, FusedRHS] | None = dc_field(default=None, repr=False,
                                                        compare=False)
    components_column: Column | None = dc_field(default=None, repr=False, compare=False)
    sigma_column: Column | None = dc_field(default=None, repr=False, compare=False)
    flat_potential_column: Column | None = dc_field(default=None, repr=False, compare=False)

    @classmethod
    def zero(cls) -> "VectorFieldSpec":
        """The compiled zero field; it steps fused on any compiled chart."""
        return built_in_runtime(PLANE, ZERO_FIELD)[1]


# ---------------------------------------------------------------------------
# Charts and fields from expression sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartSource:
    """A chart by the sources of its metric (g11, g12, g22) in the
    coordinates x and y, or u and v, and its domain."""

    name: str
    metric: tuple[str, str, str]
    bounds: tuple[float, float, float, float] = (-math.inf, math.inf, -math.inf, math.inf)
    sample_box: tuple[float, float, float, float] | None = None


@dataclass(frozen=True)
class FieldSource:
    """A vector field by its sources: the components (f, g) for ``kind``
    "fg", a flat potential p with V = (d_y p, -d_x p) for "p", or a
    potential with V = -grad(sigma) for the chart's metric for "sigma"."""

    name: str
    kind: str
    srcs: tuple[str, ...]
    killing: bool = False


ZERO_FIELD = FieldSource("zero", "fg", ("0", "0"), killing=True)
PLANE = ChartSource("plane", ("1", "0", "1"), sample_box=(-5.0, 5.0, -5.0, 5.0))


def half_plane_source(v_min: float = 0.05) -> ChartSource:
    """The euclidean metric restricted to the open strip v > v_min."""
    return replace(PLANE, name="half-plane", bounds=(-math.inf, math.inf, v_min, math.inf),
                   sample_box=(-5.0, 5.0, v_min + 0.05, 5.0))


def compile_runtime(chart: ChartSource,
                    field: FieldSource) -> tuple[ChartGeometry, VectorFieldSpec]:
    """Compile a chart and a field together into one module: the metric,
    its exact Christoffel symbols, the field's components and potentials,
    and the fused geodesic RHS that ``integrate`` steps this pair with."""

    def degenerate(u: float, v: float) -> MetricDegeneracyError:
        return MetricDegeneracyError(
            f"metric of chart {chart.name!r} is not positive definite at ({u}, {v})")

    comps = _FIELDS[field.kind]
    tails = {"metric": "return (v0, v1, v2)",
             "christoffel": _CHRISTOFFEL + "return ((a0, a1, a2), (b0, b1, b2))",
             "components": (_INVERSE if field.kind == "sigma" else "") + comps + "return (Vu, Vv)",
             "rhs": _CHRISTOFFEL + comps + _ACCELERATION + "return (ddu, ddv)",
             **{"sigma": {"sigma": "return v3", "sigma_grad": "return (v3x, v3y)"},
                "p": {"p": "return v3"}}.get(field.kind, {})}
    module = _compile((*chart.metric, *field.srcs), *tails.values(),
                      __name__=f"{chart.name}/{field.name}", _degenerate=degenerate)
    fns, cols = dict(zip(tails, module)), dict(zip(tails, module.columns))
    compiled = ChartGeometry(name=chart.name, metric=fns["metric"], bounds=chart.bounds,
                             christoffel_analytic=fns["christoffel"],
                             sample_box=chart.sample_box, source=chart,
                             metric_column=cols["metric"],
                             christoffel_column=cols["christoffel"])
    return compiled, VectorFieldSpec(
        name=field.name, components=fns["components"], sigma=fns.get("sigma"),
        sigma_grad=fns.get("sigma_grad"), flat_potential=fns.get("p"),
        killing=field.killing, source=field, fused=(chart, fns["rhs"]),
        components_column=cols["components"], sigma_column=cols.get("sigma"),
        flat_potential_column=cols.get("p"))


#: compile_runtime once per process for each of the library's built-in
#: pairs, which are few and fixed: the plane's and the zero field's
#: factories and scenarios.build_runtime.  None is ever evicted, so the
#: factories keep returning the runtimes whose modules hold the compiled steps.
built_in_runtime = cache(compile_runtime)

#: compile_runtime once per process for any other pair, up to the 256 used
#: last (the bound of expr's code cache): conformal charts, half-planes and
#: the RHS of a chart and a field compiled apart
cached_runtime = lru_cache(maxsize=256)(compile_runtime)


def euclidean_plane() -> ChartGeometry:
    """The euclidean plane with identity metric and vanishing Christoffels."""
    return built_in_runtime(PLANE, ZERO_FIELD)[0]


def half_plane(v_min: float = 0.05) -> ChartGeometry:
    """The euclidean metric restricted to the open strip v > v_min."""
    return cached_runtime(half_plane_source(v_min), ZERO_FIELD)[0]
