"""Vector fields on the euclidean plane and their geodesic phenomenology.

For V = f dx + g dy the geodesics obey x'' = -kappa y', y'' = kappa x' with
signed curvature kappa = f y' - g x'.  When the connection is flat, i.e.
(f, g) = (d_y p, -d_x p) for a potential p, the complex velocity satisfies
z' = z0 exp(i p), giving a second invariant of motion beside the speed.
The shear field y dx admits the explicit invariant +/- y^2/2 - arcsin(y')
whose singular levels confine generic geodesics to horizontal strips.

Pure computations throughout; the shooting sweep is vectorized over
launch angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .audit import InvariantReport, SegmentStat, make_report
from .geometry import PLANE, FieldSource, VectorFieldSpec, along, built_in_runtime, compile_runtime
from .integrate import GeodesicState, Trace, _rk4_step

#: A branch segment of the arcsin invariant ends when |x'| drops below this.
BRANCH_SPLIT_TOL = 1e-9


#: The winding and shear fields by their flat potentials p, V = (d_y p, -d_x p).
WINDING = FieldSource("winding", "p", ("-0.5*(x*x + y*y)",), killing=True)
SHEAR = FieldSource("shear", "p", ("0.5*y*y",))


def winding_field() -> VectorFieldSpec:
    """V = -y dx + x dy, the rotation generator; flat potential -(x^2+y^2)/2."""
    return built_in_runtime(PLANE, WINDING)[1]


def shear_field() -> VectorFieldSpec:
    """V = y dx; flat potential y^2/2.  Not Killing, but commutes with dx."""
    return built_in_runtime(PLANE, SHEAR)[1]


def constant_field(a: float, b: float) -> VectorFieldSpec:
    """A constant field a dx + b dy; flat potential a y - b x, Killing.
    Compiled on each call, not cached: its constants are the caller's."""
    return compile_runtime(PLANE, FieldSource(f"constant({a:.6g},{b:.6g})", "p",
                                              (f"({a!r})*y - ({b!r})*x",), killing=True))[1]


def plane_curvature(field: VectorFieldSpec, state) -> float:
    """Signed curvature f y' - g x' of a unit-speed plane geodesic."""
    if isinstance(state, GeodesicState):
        x, y, dx, dy = state.u, state.v, state.du, state.dv
    else:
        x, y, dx, dy = state
    fx, fy = field.components(x, y)
    return fx * dy - fy * dx


# ---------------------------------------------------------------------------
# Flat-case complex invariant
# ---------------------------------------------------------------------------


def flat_invariant(trace: Trace, p: Callable[[float, float], float] | None = None,
                   threshold: float = 1e-6) -> InvariantReport:
    """Report on z' exp(-i p) along a flat-connection plane geodesic.

    The series is constant (equal to its launch value z0, with |z0| = E)
    whenever the trace comes from a field with flat potential p.
    """
    if p is None:
        p = getattr(trace.field, "flat_potential", None)
    if p is None:
        raise ValueError("no flat potential available for the complex invariant")
    zdot = trace.du + 1j * trace.dv
    phase = along(p, trace.u, trace.v)
    values = zdot * np.exp(-1j * phase)
    return make_report("flat-invariant", trace.t, values, threshold=threshold)


# ---------------------------------------------------------------------------
# Shear field: arcsin invariant, strips, quadrature
# ---------------------------------------------------------------------------


def _require_unit_speed(E: float) -> None:
    if abs(E - 1.0) > 1e-9:
        raise ValueError(f"natural parametrization required (E = 1), got E = {E}")


def arcsin_invariant(trace: Trace, threshold: float = 1e-6,
                     clamp_tol: float = 1e-9) -> InvariantReport:
    """Piecewise invariant c = sign(x') * y^2/2 - arcsin(y') of the shear field.

    The sign tracks the branch of x' = +/- sqrt(1 - y'^2); a branch segment
    ends where |x'| < BRANCH_SPLIT_TOL or the sign flips, and constancy is
    asserted per segment.  |y'| beyond 1 (impossible at E = 1 up to
    roundoff) raises ValueError.
    """
    _require_unit_speed(trace.E)
    dy = trace.dv
    if np.any(np.abs(dy) > 1.0 + clamp_tol):
        raise ValueError("|y'| exceeds 1; trace is not in natural parametrization")
    dyc = np.clip(dy, -1.0, 1.0)
    dx = trace.du

    values = np.full(len(trace), np.nan)
    live = np.abs(dx) >= BRANCH_SPLIT_TOL
    branch = np.where(live, np.sign(dx), 0.0)
    values[live] = branch[live] * 0.5 * trace.v[live] ** 2 - np.arcsin(dyc[live])

    # segments are the runs of one nonzero branch sign; the padding makes
    # every run, even one at either end, begin and end at a change
    cuts = np.flatnonzero(np.diff(branch, prepend=0.0, append=0.0)).tolist()
    segments: list[SegmentStat] = []
    for start, stop in zip(cuts[:-1], cuts[1:]):
        if branch[start] == 0.0:
            continue
        seg = values[start:stop]
        segments.append(SegmentStat(
            start=start, stop=stop, sign=int(branch[start]),
            mean=float(np.mean(seg)), std=float(np.std(seg)),
            max_dev=float(np.max(np.abs(seg - seg[0]))),
        ))

    max_dev = max((s.max_dev for s in segments), default=math.nan)
    worst_std = max((s.std for s in segments), default=math.nan)
    return InvariantReport(
        name="arcsin-invariant", times=trace.t, values=values,
        max_dev=max_dev, std=worst_std, threshold=threshold,
        passed=bool(segments) and worst_std < threshold, segments=segments,
    )


@dataclass
class StripBounds:
    """Singular levels of the shear quadrature bracketing a launch height.

    ``sign`` is the x' branch at launch.  The bounds satisfy
    sin(sign * y^2/2 - c) = 0; a generic geodesic approaches them
    asymptotically and never leaves the open strip.
    """

    c: float
    sign: int
    lower: float
    upper: float

    @property
    def degenerate(self) -> bool:
        return self.lower == self.upper


def strip_bounds(y0: float, dy0: float, dx0: float) -> StripBounds:
    """Strip of the shear-field geodesic launched at height y0 with
    velocity (dx0, dy0), |velocity| = 1.

    A horizontal launch (dy0 = 0) makes y0 itself a singular level and the
    strip degenerates to the line y = y0.
    """
    _require_unit_speed(math.hypot(dx0, dy0))
    if dx0 != 0.0:
        s = 1 if dx0 > 0 else -1
    else:
        # branch chosen by the sign x' acquires immediately after launch
        s = 1 if -y0 * dy0 * dy0 >= 0 else -1
    c = s * 0.5 * y0 * y0 - math.asin(max(-1.0, min(1.0, dy0)))
    if dy0 == 0.0:
        return StripBounds(c=c, sign=s, lower=y0, upper=y0)
    lower, upper = _strip_levels(y0, c, s, -math.asin(dy0) * s * y0)
    return StripBounds(c=c, sign=s, lower=lower, upper=upper)


def _strip_levels(y0: float, c: float, s: int, side: float) -> tuple[float, float]:
    """The singular levels y = +/-sqrt(2 s (c + k pi)) nearest below and
    above y0 (-inf or inf where there is none).

    A level that rounds onto y0 lies above it if ``side`` > 0 and below
    if ``side`` < 0.  Near y0, theta(y) = s y^2/2 - c is about
    theta(y0) + s y0 (y - y0), so its zero lies on the side of
    -theta(y0) s y0.
    """
    levels: list[float] = []
    k0 = math.ceil(-c / math.pi) if s > 0 else math.floor(-c / math.pi)
    reach = abs(y0) + 1.0
    for j in range(256):
        k = k0 + s * j
        val = 2.0 * s * (c + k * math.pi)
        if val < 0.0:
            continue
        m = math.sqrt(val)
        levels.extend([m, -m] if m > 0.0 else [0.0])
        if m > reach:
            break
    lower = max((lv for lv in levels if lv < y0 or (lv == y0 and side < 0.0)),
                default=-math.inf)
    upper = min((lv for lv in levels if lv > y0 or (lv == y0 and side > 0.0)),
                default=math.inf)
    return lower, upper


@dataclass
class StripTime:
    """Elapsed time from the strip quadrature, with a divergence flag."""

    t: float
    diverged: bool


def strip_quadrature(y0: float, y: float, c: float, sign: int,
                     cap: float = 1e4) -> StripTime:
    """Elapsed time t = integral from y0 to y of dy / sin(sign y^2/2 - c).

    The interval must be free of singular levels of the integrand; a level
    strictly inside raises ValueError.  The integral diverges
    logarithmically at the levels, so a target within floating-point reach
    of one reports the capped value with the divergence flag set.
    """

    from scipy.integrate import quad

    def theta(x: float) -> float:
        return sign * 0.5 * x * x - c

    if y == y0:
        return StripTime(0.0, False)

    # a launch height on a singular level (y' = 0) has a degenerate strip
    lower, upper = ((y0, y0) if theta(y0) == 0.0
                    else _strip_levels(y0, c, sign, -theta(y0) * sign * y0))
    lo, hi = (y0, y) if y > y0 else (y, y0)
    near = min(abs(y - lower), abs(y - upper))
    if not (lower < lo and hi < upper):
        if near <= 4.0 * np.finfo(float).eps * max(1.0, abs(y)):
            return StripTime(math.copysign(cap, y - y0), True)
        raise ValueError(
            f"singular level inside the quadrature interval [{lo}, {hi}]"
        )

    def integrand(x: float) -> float:
        return 1.0 / math.sin(theta(x))

    # Approach a nearby singular endpoint geometrically so the adaptive
    # rule never straddles the blow-up.
    target_level = upper if y > y0 else lower
    gap = abs(target_level - y)
    width = abs(y - y0)
    total = 0.0
    if gap < 0.25 * width:
        pieces = [y0]
        g = 0.5 * width
        while g > gap * 1.0001:
            pieces.append(target_level - math.copysign(g, target_level - y0))
            g *= 0.5
        pieces.append(y)
        for a, b in zip(pieces[:-1], pieces[1:]):
            part, _ = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-10, limit=300)
            total += part
            if abs(total) >= cap:
                return StripTime(math.copysign(cap, total), True)
    else:
        total, _ = quad(integrand, y0, y, epsabs=1e-13, epsrel=1e-10, limit=300)
    if abs(total) >= cap:
        return StripTime(math.copysign(cap, total), True)
    return StripTime(total, False)


# ---------------------------------------------------------------------------
# Shooting sweep (vectorized over launch angles)
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    angles: np.ndarray
    y_min: np.ndarray
    y_max: np.ndarray


def shooting_sweep(origin: tuple[float, float] = (1.0, 1.0), n_angles: int = 720,
                   t_max: float = 50.0, h: float = 2e-3,
                   both_directions: bool = True) -> SweepResult:
    """Integrate unit-speed shear-field launches in every direction and
    record the extreme heights reached; the negative-control evidence that
    points in disjoint strips cannot be joined by a geodesic arc.

    The shared RK4 step advances all angles at once as arrays, with E = 1
    and no boundary, on the shear's own equation x'' = y x' x' - y,
    y'' = y x' y'.  The flow is even in the velocity, so the backward
    half of each geodesic is the forward run from the exactly negated
    launch velocity: with ``both_directions`` those launches join the
    same batch and the two halves' extremes are merged.
    """
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
    dx = np.cos(angles)
    dy = np.sin(angles)
    if both_directions:
        dx = np.concatenate([dx, -dx])
        dy = np.concatenate([dy, -dy])
    x = np.full(len(dx), float(origin[0]))
    y = np.full(len(dx), float(origin[1]))
    y_lo = y.copy()
    y_hi = y.copy()

    def rhs(x, y, dx, dy):
        gv = y * dx
        return gv * dx - y, gv * dy

    def everywhere(x, y):
        return True

    for _ in range(int(round(t_max / h))):
        x, y, dx, dy = _rk4_step(rhs, everywhere, x, y, dx, dy, h)
        np.minimum(y_lo, y, out=y_lo)
        np.maximum(y_hi, y, out=y_hi)
    if both_directions:
        y_lo = np.minimum(y_lo[:n_angles], y_lo[n_angles:])
        y_hi = np.maximum(y_hi[:n_angles], y_hi[n_angles:])
    return SweepResult(angles=angles, y_min=y_lo, y_max=y_hi)
