"""Coordinate charts, metrics, orthonormal frames, and vector fields in 2D.

A chart is a rectangular open box of (u, v) coordinates together with a
metric evaluator.  All evaluators are pure functions of their arguments, so
charts and fields are safe for concurrent read-only use.

Metric evaluators return the three independent components (g11, g12, g22)
of the symmetric matrix; ``metric_matrix`` assembles the 2x2 array when a
dense form is needed.  Every chart and field the integrator steps is
described by expression sources and compiled by :func:`compile_runtime`,
with exact derivatives throughout; central differences of the metric
(``ChartGeometry.christoffel_fd``) remain as a test oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ChartDomainError, MetricDegeneracyError
from .expr import _ACCELERATION, _CHRISTOFFEL, _FIELDS, _INVERSE, _compile

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
        Levi-Civita symbols of the metric; see
        :func:`check_christoffel_consistency`.
    bounds:
        ``(u_min, u_max, v_min, v_max)``; entries may be infinite.
    sample_box:
        Finite box used for sampled validation when ``bounds`` has infinite
        sides.
    source:
        The :class:`ChartSource` a compiled chart was built from; a field
        compiled with the same source steps on this chart with its fused RHS.
    """

    name: str
    metric: Callable[[float, float], MetricComponents]
    christoffel_analytic: Callable[[float, float], ChristoffelComponents]
    bounds: tuple[float, float, float, float] = (-math.inf, math.inf, -math.inf, math.inf)
    coord_names: tuple[str, str] = ("u", "v")
    sample_box: tuple[float, float, float, float] | None = None
    source: ChartSource | None = None

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
        return self.christoffel_raw(u, v)

    def christoffel_raw(self, u: float, v: float) -> ChristoffelComponents:
        """Christoffel components without the domain check (integrator path)."""
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


def along(fn: Callable, u: np.ndarray, v: np.ndarray, shape: tuple[int, ...] = ()) -> np.ndarray:
    """A scalar evaluator at every sample, called with Python floats as the
    stepper calls it and streamed into an array of shape ``shape + (len(u),)``,
    output axes first: ``g11, g12, g22 = along(metric, u, v, (3,))``."""
    values = map(fn, u.tolist(), v.tolist())
    for _ in shape:  # flat floats stream twice as fast as a subarray dtype
        values = itertools.chain.from_iterable(values)
    out = np.fromiter(values, dtype=float, count=len(u) * math.prod(shape))
    return np.moveaxis(out.reshape(len(u), *shape), 0, -1)


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
# Frames
# ---------------------------------------------------------------------------


@dataclass
class OrthoFrame:
    """Two frame vector evaluators, orthonormal for the chart metric."""

    e1: Callable[[float, float], VectorComponents]
    e2: Callable[[float, float], VectorComponents]

    @classmethod
    def gram_schmidt(cls, chart: ChartGeometry) -> "OrthoFrame":
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

        return cls(e1, e2)


# ---------------------------------------------------------------------------
# Vector fields
# ---------------------------------------------------------------------------


@dataclass
class VectorFieldSpec:
    """A tangent vector field in chart components, with optional potentials.

    ``sigma`` declares the relation V = -grad(sigma); ``flat_potential``
    declares the plane relation (V_u, V_v) = (d_y p, -d_x p).  Both are
    assertions by the scenario author, verified numerically by the checks
    below.  ``killing`` flags fields whose flow consists of isometries.
    ``source`` is the :class:`FieldSource` the field was compiled from, and
    ``fused`` pairs the source of the chart it was compiled with and the
    factory ``E2 -> rhs(u, v, du, dv)`` of their fused geodesic RHS.
    """

    name: str
    components: Callable[[float, float], VectorComponents]
    sigma: Callable[[float, float], float] | None = None
    sigma_grad: Callable[[float, float], VectorComponents] | None = None
    flat_potential: Callable[[float, float], float] | None = None
    killing: bool = False
    source: FieldSource | None = None
    fused: tuple[ChartSource, Callable] | None = dc_field(default=None, repr=False,
                                                        compare=False)

    def __call__(self, u: float, v: float) -> VectorComponents:
        return self.components(u, v)

    @classmethod
    def zero(cls) -> "VectorFieldSpec":
        """The compiled zero field; it steps fused on any compiled chart."""
        return built_in_runtime(PLANE, ZERO_FIELD)[1]


def covariant_derivative(chart: ChartGeometry, field: VectorFieldSpec,
                         point: Sequence[float], X: Sequence[float]) -> np.ndarray:
    """Levi-Civita covariant derivative (nabla_X V) in chart components."""
    u, v = float(point[0]), float(point[1])
    chart.require_inside(u, v)
    hu = fd_step(u)
    hv = fd_step(v)
    Vpu = field.components(u + hu, v)
    Vmu = field.components(u - hu, v)
    Vpv = field.components(u, v + hv)
    Vmv = field.components(u, v - hv)
    dV = np.array([
        [(Vpu[0] - Vmu[0]) / (2 * hu), (Vpu[1] - Vmu[1]) / (2 * hu)],
        [(Vpv[0] - Vmv[0]) / (2 * hv), (Vpv[1] - Vmv[1]) / (2 * hv)],
    ])  # dV[i][k] = partial_i V^k
    G = christoffel(chart, (u, v))
    V = np.array(field.components(u, v))
    Xa = np.asarray(X, dtype=float)
    out = np.empty(2)
    for k in (0, 1):
        out[k] = Xa[0] * dV[0][k] + Xa[1] * dV[1][k] + Xa @ G[k] @ V
    return out


# ---------------------------------------------------------------------------
# Sampled validation
# ---------------------------------------------------------------------------


def _validation_box(chart: ChartGeometry, margin: float = 0.01) -> tuple[float, float, float, float]:
    u0, u1, v0, v1 = chart.bounds
    box = chart.sample_box
    if not all(map(math.isfinite, (u0, u1, v0, v1))):
        if box is None:
            raise ValueError(
                f"chart {chart.name!r} has an unbounded domain and no sample_box"
            )
        return box
    du = (u1 - u0) * margin
    dv = (v1 - v0) * margin
    return (u0 + du, u1 - du, v0 + dv, v1 - dv)


def sample_interior(chart: ChartGeometry, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Uniform random interior points, shape (n, 2)."""
    rng = rng or np.random.default_rng(0)
    u0, u1, v0, v1 = _validation_box(chart)
    pts = np.empty((n, 2))
    pts[:, 0] = rng.uniform(u0, u1, n)
    pts[:, 1] = rng.uniform(v0, v1, n)
    return pts


def interior_grid(chart: ChartGeometry, n: int = 20) -> np.ndarray:
    """A regular n x n interior sample grid, shape (n*n, 2)."""
    u0, u1, v0, v1 = _validation_box(chart)
    us = np.linspace(u0, u1, n)
    vs = np.linspace(v0, v1, n)
    uu, vv = np.meshgrid(us, vs)
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


def check_frame_orthonormal(chart: ChartGeometry, frame: OrthoFrame, points: np.ndarray) -> float:
    """Max |g(e_i, e_j) - delta_ij| over the sample points."""
    worst = 0.0
    for u, v in points:
        e1 = frame.e1(u, v)
        e2 = frame.e2(u, v)
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
    coord_names: tuple[str, str] = ("u", "v")
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
PLANE = ChartSource("plane", ("1", "0", "1"), coord_names=("x", "y"),
                    sample_box=(-5.0, 5.0, -5.0, 5.0))


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
    fns = dict(zip(tails, _compile((*chart.metric, *field.srcs), *tails.values(),
                                   _degenerate=degenerate)))
    compiled = ChartGeometry(name=chart.name, metric=fns["metric"], bounds=chart.bounds,
                             christoffel_analytic=fns["christoffel"],
                             coord_names=chart.coord_names, sample_box=chart.sample_box,
                             source=chart)
    return compiled, VectorFieldSpec(
        name=field.name, components=fns["components"], sigma=fns.get("sigma"),
        sigma_grad=fns.get("sigma_grad"), flat_potential=fns.get("p"),
        killing=field.killing, source=field, fused=(chart, fns["rhs"]))


#: compile_runtime once per process for each built-in source pair; the chart
#: and field factories, scenarios.build_runtime, conformal_metric and the
#: RHS of a chart and a field compiled apart share its runtimes
built_in_runtime = lru_cache(maxsize=None)(compile_runtime)


def euclidean_plane() -> ChartGeometry:
    """The euclidean plane with identity metric and vanishing Christoffels."""
    return built_in_runtime(PLANE, ZERO_FIELD)[0]


def half_plane(v_min: float = 0.05) -> ChartGeometry:
    """The euclidean metric restricted to the open strip v > v_min."""
    return built_in_runtime(half_plane_source(v_min), ZERO_FIELD)[0]
