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
from .expr import _compile
from .geometry import (ChartGeometry, ChartSource, FieldSource, OrthoFrame, VectorFieldSpec,
                       along, compile_runtime)
from .integrate import Trace


@dataclass
class RevolutionProfile:
    """Profile curve evaluators r(s), h(s) with first derivatives, and r''(s)
    for the Gauss curvature, in arc-length parametrization: r'^2 + h'^2 = 1.
    """

    r: Callable[[float], float]
    dr: Callable[[float], float]
    h: Callable[[float], float]
    dh: Callable[[float], float]
    s_domain: tuple[float, float]
    d2r: Callable[[float], float]

    def natural_residual(self, samples: np.ndarray) -> float:
        """Max |r'^2 + h'^2 - 1| over sample arc lengths."""
        return max(abs(self.dr(s) ** 2 + self.dh(s) ** 2 - 1.0) for s in samples)


@dataclass
class CatalogSurface:
    """A surface of revolution bundled with its chart, flat-connection
    vector field, orthonormal frame, and closed-form Mercator map.

    ``mercator`` is the primitive y(s) of 1/r vanishing at the surface's
    anchor and ``mercator_inv`` its inverse s(y); both act elementwise on
    arrays.
    """

    name: str
    profile: RevolutionProfile
    chart: ChartGeometry
    field: VectorFieldSpec
    frame: OrthoFrame
    mercator: Callable[[np.ndarray], np.ndarray]
    mercator_inv: Callable[[np.ndarray], np.ndarray]


def _surface(name: str, r: str, s_domain: tuple[float, float], h: Callable[[float], float],
             dh: Callable[[float], float], d2r: Callable[[float], float],
             mercator: Callable[[np.ndarray], np.ndarray],
             mercator_inv: Callable[[np.ndarray], np.ndarray]) -> CatalogSurface:
    """The surface of the natural profile with radius source ``r`` in s = x.

    The metric diag(1, r^2) and the potential sigma = -log r of the field
    (r'/r) e1 are composed from ``r`` as text, and compiled with the
    profile's r and r' from the same source.
    """
    r_fn, dr_fn = _compile((r,), "return v0", "return v0x")
    profile = RevolutionProfile(r=r_fn, dr=dr_fn, h=h, dh=dh, s_domain=s_domain, d2r=d2r)
    s0, s1 = s_domain
    if profile.natural_residual(np.linspace(s0, s1, 11)[1:-1]) > 1e-9:
        raise ValueError(
            "surface construction needs a natural (arc-length) profile, "
            "with r'^2 + h'^2 = 1"
        )
    span = s1 - s0
    chart, fld = compile_runtime(
        ChartSource(name, ("1", "0", f"({r})*({r})"), bounds=(s0, s1, -math.inf, math.inf),
                    coord_names=("s", "phi"),
                    sample_box=(s0 + 0.01 * span, s1 - 0.01 * span, -math.pi, math.pi)),
        FieldSource(f"{name}-flat", "sigma", (f"-log({r})",)))
    frame = OrthoFrame(e1=lambda u, v: (1.0, 0.0),
                       e2=lambda u, v: (0.0, 1.0 / r_fn(u)))
    return CatalogSurface(name=name, profile=profile, chart=chart, field=fld,
                          frame=frame, mercator=mercator, mercator_inv=mercator_inv)


# ---------------------------------------------------------------------------
# Catalog surfaces
# ---------------------------------------------------------------------------

#: Half-width of the excluded neighbourhoods of the sphere poles.
SPHERE_EPS = 1e-3


def make_sphere(eps: float = SPHERE_EPS) -> CatalogSurface:
    """Unit sphere, colatitude chart s in (eps, pi - eps).

    Profile r = sin s, h = cos s; the pole neighbourhoods are excluded so
    integration stops with a boundary event instead of hitting the chart
    singularity.  Mercator map y = log tan(s/2), anchored at the equator.
    """
    return _surface("sphere", "sin(x)", (eps, math.pi - eps), h=math.cos,
                    dh=lambda s: -math.sin(s), d2r=lambda s: -math.sin(s),
                    mercator=lambda s: np.log(np.tan(s / 2.0)),
                    mercator_inv=lambda y: 2.0 * np.arctan(np.exp(y)))


def make_pseudosphere(s_min: float = 1e-3, s_max: float = 6.0) -> CatalogSurface:
    """Pseudosphere (tractrix of r = exp(-s)); constant curvature -1.

    The defining vector field is the constant -e1, which is parallel for
    the flat connection.  Mercator map y = exp(s) - exp(s_mid), anchored
    at the domain midpoint s_mid.
    """
    shift = math.exp(0.5 * (s_min + s_max))

    def h(s: float) -> float:
        w = math.sqrt(1.0 - math.exp(-2.0 * s))
        return math.atanh(w) - w

    return _surface("pseudosphere", "exp(-x)", (s_min, s_max), h=h,
                    dh=lambda s: math.sqrt(1.0 - math.exp(-2.0 * s)),
                    d2r=lambda s: math.exp(-s),
                    mercator=lambda s: np.exp(s) - shift,
                    mercator_inv=lambda y: np.log(y + shift))


def make_catenoid(s_extent: float = 16.0) -> CatalogSurface:
    """Catenoid, the profile (cosh t, t) in arc length s = sinh t.

    In closed form r = sqrt(1 + s^2), h = asinh s and r'' = (1 + s^2)^(-3/2)
    on s in (-s_extent, s_extent).  A minimal surface with non-constant
    curvature; its Gauss map is conformal, so flat-connection geodesics map
    to sphere loxodromes.  Mercator map y = asinh s, anchored at the waist.
    """
    return _surface("catenoid", "sqrt(1 + x*x)", (-s_extent, s_extent), h=math.asinh,
                    dh=lambda s: 1.0 / math.sqrt(1.0 + s * s),
                    d2r=lambda s: (1.0 + s * s) ** -1.5,
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


def loxodrome_check(trace: Trace, surface: CatalogSurface,
                    threshold: float = 1e-6) -> InvariantReport:
    """Report on g(velocity, e2) = r * dphi/dt, the cosine of the angle to
    the parallel circles; constant exactly when the curve is a loxodrome."""
    r = surface.profile.r
    vals = along(lambda u, v: r(u), trace.u, trace.v) * trace.dv
    return make_report("loxodrome-angle", trace.t, vals, threshold=threshold, use_std=True)


def gauss_map(surface: CatalogSurface, s: float, phi: float) -> tuple[np.ndarray, tuple[float, float]]:
    """Unit normal at (s, phi) and its (colatitude, longitude) on the sphere.

    Only supported for the catenoid: the map is defined for any surface of
    revolution, but the constant-angle behaviour exploited downstream is
    certified here only for minimal surfaces, where it is conformal.
    """
    if surface.name != "catenoid":
        raise ValueError("gauss_map is only supported for the catenoid surface")
    rp = surface.profile.dr(s)
    hp = surface.profile.dh(s)
    n = np.array([-hp * math.cos(phi), -hp * math.sin(phi), rp])
    colat = math.atan2(math.hypot(n[0], n[1]), n[2])
    lon = math.atan2(n[1], n[0])
    return n, (colat, lon)


def gauss_map_trace(surface: CatalogSurface, trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map a trace through the Gauss map; returns (normals, colat, lon),
    with the longitude series unwrapped for differencing."""
    normals = np.empty((len(trace), 3))
    colat = np.empty(len(trace))
    lon = np.empty(len(trace))
    for i in range(len(trace)):
        n, (ct, ln) = gauss_map(surface, float(trace.u[i]), float(trace.v[i]))
        normals[i] = n
        colat[i] = ct
        lon[i] = ln
    return normals, colat, np.unwrap(lon)


def sphere_angle_cosines(colat: np.ndarray, lon: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cosine of the angle to the parallel circles for a sampled sphere
    curve, from finite-differenced velocities; speed-normalized because the
    sampled curve need not be unit speed."""
    ds = series_derivative(t, colat)
    dp = series_derivative(t, lon)
    sin_s = np.sin(colat)
    speed = np.sqrt(ds ** 2 + (sin_s * dp) ** 2)
    return sin_s * dp / speed


def embed_points(surface: CatalogSurface, s: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Embed chart samples into R^3 as (r cos phi, r sin phi, h)."""
    out = np.empty((len(s), 3))
    for i, (ss, pp) in enumerate(zip(s, phi)):
        rr = surface.profile.r(float(ss))
        out[i] = (rr * math.cos(pp), rr * math.sin(pp), surface.profile.h(float(ss)))
    return out


def embed(surface: CatalogSurface, trace: Trace) -> np.ndarray:
    """3D polyline of a trace on the embedded surface."""
    return embed_points(surface, trace.u, trace.v)


def gaussian_curvature(surface: CatalogSurface, s: float) -> float:
    """Gauss curvature -r''/r of a surface of revolution in natural
    parametrization."""
    profile = surface.profile
    return -profile.d2r(s) / profile.r(s)
