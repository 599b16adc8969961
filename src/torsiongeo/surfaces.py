"""Surfaces of revolution with their flat vectorial connection.

A profile curve (r(s), h(s)) in natural parametrization generates the
surface (r cos phi, r sin phi, h) with first fundamental form
diag(1, r^2).  Declaring tangent vectors parallel when they make equal
angles with the meridians yields a flat metric connection whose defining
vector field is (r'/r) e1 = -grad(-ln r); its geodesics are loxodromes.

Catalog construction is pure; all evaluators are safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .audit import make_report, series_derivative, InvariantReport
from .errors import ChartDomainError
from .expr import Column, _compile, libm_map
from .geometry import ChartGeometry, ChartSource, FieldSource, VectorFieldSpec, cached_runtime
from .integrate import Trace


@dataclass
class RevolutionProfile:
    """Profile curve evaluators r(s), h(s) with first derivatives, and r''(s)
    for the Gauss curvature, in arc-length parametrization: r'^2 + h'^2 = 1.
    ``columns`` maps each evaluator's name, r to d2r, to its column form
    (see :class:`expr.Column`), which takes the arrays (s, phi) of a trace.
    """

    r: Callable[[float], float]
    dr: Callable[[float], float]
    h: Callable[[float], float]
    dh: Callable[[float], float]
    d2r: Callable[[float], float]
    s_domain: tuple[float, float]
    columns: dict[str, Column]

    def natural_residual(self, samples: np.ndarray) -> float:
        """Max |r'^2 + h'^2 - 1| over sample arc lengths."""
        dr, dh = (self.columns[name](samples, samples) for name in ("dr", "dh"))
        return float(np.max(np.abs(dr ** 2 + dh ** 2 - 1.0)))


@dataclass
class CatalogSurface:
    """A surface of revolution bundled with its chart, flat-connection
    vector field, and closed-form Mercator map.

    ``mercator`` is the primitive y(s) of 1/r vanishing at the surface's
    anchor and ``mercator_inv`` its inverse s(y); both act elementwise on
    arrays.
    """

    name: str
    profile: RevolutionProfile
    chart: ChartGeometry
    field: VectorFieldSpec
    mercator: Callable[[np.ndarray], np.ndarray]
    mercator_inv: Callable[[np.ndarray], np.ndarray]


def _surface(name: str, sources: tuple[str, str, str, str], s_domain: tuple[float, float],
             mercator: Callable[[np.ndarray], np.ndarray],
             mercator_inv: Callable[[np.ndarray], np.ndarray]) -> CatalogSurface:
    """The surface of the natural profile with the sources (r, h, h', r'')
    in s = x, compiled into one module with r' the partial of r.  The
    metric diag(1, r^2) and the potential sigma = -log r of the field
    (r'/r) e1 are composed from r as text.
    """
    r = sources[0]
    module = _compile(sources, "return v0", "return v0x", "return v1", "return v2",
                      "return v3", __name__=f"{name} profile")
    profile = RevolutionProfile(*module, s_domain,
                                dict(zip(("r", "dr", "h", "dh", "d2r"), module.columns)))
    s0, s1 = s_domain
    if profile.natural_residual(np.linspace(s0, s1, 11)[1:-1]) > 1e-9:
        raise ValueError(
            "surface construction needs a natural (arc-length) profile, "
            "with r'^2 + h'^2 = 1"
        )
    span = s1 - s0
    chart, fld = cached_runtime(
        ChartSource(name, ("1", "0", f"({r})*({r})"), bounds=(s0, s1, -math.inf, math.inf),
                    sample_box=(s0 + 0.01 * span, s1 - 0.01 * span, -math.pi, math.pi)),
        FieldSource(f"{name}-flat", "sigma", (f"-log({r})",)))
    return CatalogSurface(name=name, profile=profile, chart=chart, field=fld,
                          mercator=mercator, mercator_inv=mercator_inv)


# ---------------------------------------------------------------------------
# Catalog surfaces
# ---------------------------------------------------------------------------

#: Half-width of the excluded neighbourhoods of the sphere poles.
SPHERE_EPS = 1e-3


def make_sphere() -> CatalogSurface:
    """Unit sphere, colatitude chart s in (SPHERE_EPS, pi - SPHERE_EPS).

    Profile r = sin s, h = cos s; the pole neighbourhoods are excluded so
    integration stops with a boundary event instead of hitting the chart
    singularity.  Mercator map y = log tan(s/2), anchored at the equator.
    """
    return _surface("sphere", ("sin(x)", "cos(x)", "-sin(x)", "-sin(x)"),
                    (SPHERE_EPS, math.pi - SPHERE_EPS),
                    mercator=lambda s: np.log(np.tan(s / 2.0)),
                    mercator_inv=lambda y: 2.0 * np.arctan(np.exp(y)))


def make_pseudosphere() -> CatalogSurface:
    """Pseudosphere (tractrix of r = exp(-s)) on s in (1e-3, 6); constant
    curvature -1.

    The defining vector field is the constant -e1, which is parallel for
    the flat connection.  Mercator map y = exp(s) - exp(s_mid), anchored
    at the domain midpoint s_mid.
    """
    s_min, s_max = 1e-3, 6.0
    shift = math.exp(0.5 * (s_min + s_max))
    dh = "sqrt(1.0 - exp(-2.0 * x))"
    return _surface("pseudosphere", ("exp(-x)", f"atanh({dh}) - {dh}", dh, "exp(-x)"),
                    (s_min, s_max),
                    mercator=lambda s: np.exp(s) - shift,
                    mercator_inv=lambda y: np.log(y + shift))


def make_catenoid() -> CatalogSurface:
    """Catenoid, the profile (cosh t, t) in arc length s = sinh t.

    In closed form r = sqrt(1 + s^2), h = asinh s and r'' = (1 + s^2)^(-3/2)
    on s in (-16, 16).  A minimal surface with non-constant curvature; its
    Gauss map is conformal, so flat-connection geodesics map to sphere
    loxodromes.  Mercator map y = asinh s, anchored at the waist.
    """
    return _surface("catenoid", ("sqrt(1 + x*x)", "asinh(x)", "1.0 / sqrt(1.0 + x * x)",
                                 "(1.0 + x * x) ** -1.5"), (-16.0, 16.0),
                    mercator=np.arcsinh, mercator_inv=np.sinh)


CATALOG_BUILDERS = {
    "sphere": make_sphere,
    "pseudosphere": make_pseudosphere,
    "catenoid": make_catenoid,
}


# ---------------------------------------------------------------------------
# Mercator-type coordinate change
# ---------------------------------------------------------------------------


def mercator_map(surface: CatalogSurface, s) -> float | np.ndarray:
    """y = integral of ds / r from the surface's anchor; x is phi.

    Strictly monotone with dy/ds = 1/r; pushes the surface metric
    diag(1, r^2) to the euclidean metric of the (x, y) plane.  Evaluated in
    the surface's closed form, elementwise on arrays.
    """
    s = np.asarray(s, dtype=float)
    _require_in_profile(surface, s, "s", s)
    y = surface.mercator(s)
    return float(y) if np.ndim(y) == 0 else y


def mercator_inverse(surface: CatalogSurface, y) -> float | np.ndarray:
    """The arc length s with mercator_map(s) = y, in closed form."""
    with np.errstate(all="ignore"):
        s = surface.mercator_inv(np.asarray(y, dtype=float))
    _require_in_profile(surface, s, "y", y)
    return float(s) if np.ndim(s) == 0 else s


def _require_in_profile(surface: CatalogSurface, s: np.ndarray, name: str, given) -> None:
    s0, s1 = surface.profile.s_domain
    outside = ~((s0 < s) & (s < s1))
    if np.any(outside):
        bad = np.asarray(given, dtype=float)[outside][0]
        raise ChartDomainError(f"{name} = {bad} lies outside profile domain ({s0}, {s1})")


# ---------------------------------------------------------------------------
# Loxodromes and the Gauss map
# ---------------------------------------------------------------------------


def loxodrome_check(trace: Trace, surface: CatalogSurface) -> InvariantReport:
    """Report on g(velocity, e2) = r * dphi/dt, the cosine of the angle to
    the parallel circles; constant exactly when the curve is a loxodrome,
    and passing with a standard deviation below 1e-6."""
    vals = surface.profile.columns["r"](trace.u, trace.v) * trace.dv
    return make_report("loxodrome-angle", trace.t, vals, threshold=1e-6, use_std=True)


def gauss_map(surface: CatalogSurface, s: float, phi: float) -> tuple[np.ndarray, tuple[float, float]]:
    """Unit normal at (s, phi) and its (colatitude, longitude) on the sphere.

    Only supported for the catenoid: the map is defined for any surface of
    revolution, but the constant-angle behaviour exploited downstream is
    certified here only for minimal surfaces, where it is conformal.
    """
    normals, colat, lon = _gauss_columns(surface, np.array([s], dtype=float),
                                         np.array([phi], dtype=float))
    return normals[0], (float(colat[0]), float(lon[0]))


def gauss_map_trace(surface: CatalogSurface, trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a trace through the Gauss map; returns (normals, colat, lon),
    with the longitude series unwrapped for differencing."""
    normals, colat, lon = _gauss_columns(surface, trace.u, trace.v)
    return normals, colat, np.unwrap(lon)


def _gauss_columns(surface: CatalogSurface, s: np.ndarray,
                   phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gauss map at every sample: the normals (-h' cos phi, -h' sin phi, r')
    as rows, their colatitudes and longitudes, with libm's trigonometry."""
    if surface.name != "catenoid":
        raise ValueError("gauss_map is only supported for the catenoid surface")
    rp, hp = (surface.profile.columns[name](s, phi) for name in ("dr", "dh"))
    n0 = -hp * libm_map(math.cos, phi)
    n1 = -hp * libm_map(math.sin, phi)
    colat = libm_map(math.atan2, libm_map(math.hypot, n0, n1), rp)
    return np.column_stack([n0, n1, rp]), colat, libm_map(math.atan2, n1, n0)


def sphere_angle_cosines(colat: np.ndarray, lon: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cosine of the angle to the parallel circles for a sampled sphere
    curve, from finite-differenced velocities; speed-normalized because the
    sampled curve need not be unit speed."""
    ds = series_derivative(t, colat)
    dp = series_derivative(t, lon)
    sin_s = np.sin(colat)
    speed = np.sqrt(ds ** 2 + (sin_s * dp) ** 2)
    return sin_s * dp / speed


def embed(surface: CatalogSurface, trace: Trace) -> np.ndarray:
    """3D polyline of a trace on the embedded surface, (r cos phi, r sin phi, h)."""
    _require_in_profile(surface, trace.u, "s", trace.u)
    r, h = (surface.profile.columns[name](trace.u, trace.v) for name in ("r", "h"))
    return np.column_stack([r * libm_map(math.cos, trace.v), r * libm_map(math.sin, trace.v), h])


def gaussian_curvature(surface: CatalogSurface, s: np.ndarray) -> np.ndarray:
    """Gauss curvature -r''/r of a surface of revolution in natural
    parametrization, at an array of arc lengths."""
    columns = surface.profile.columns
    return -columns["d2r"](s, s) / columns["r"](s, s)
