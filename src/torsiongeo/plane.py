"""Vector fields on the euclidean plane and their geodesic phenomenology.

For V = f dx + g dy the geodesics obey x'' = -kappa y', y'' = kappa x' with
signed curvature kappa = f y' - g x'.  When the connection is flat, i.e.
(f, g) = (d_y p, -d_x p) for a potential p, the complex velocity satisfies
z' = z0 exp(i p), giving a second invariant of motion beside the speed.
For the shear field y dx this makes y^2/2 - theta constant, for the
velocity angle theta; its singular levels, where y' = 0, confine generic
geodesics to horizontal strips.

Pure computations throughout; the shooting sweep steps its launch angles
as lanes of one loop that :mod:`native` compiles, one block of lanes per
CPU, or as numpy lane arrays where none builds, both from the one RK4 step
text the tableau emits, less its box checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import native
from .audit import InvariantReport, make_report
from .expr import _code
from .geometry import PLANE, FieldSource, VectorFieldSpec, built_in_runtime
from .integrate import RK4, GeodesicState, Trace

#: The winding and shear fields by their flat potentials p, V = (d_y p, -d_x p).
WINDING = FieldSource("winding", "p", ("-0.5*(x*x + y*y)",), killing=True)
SHEAR = FieldSource("shear", "p", ("0.5*y*y",))


def winding_field() -> VectorFieldSpec:
    """V = -y dx + x dy, the rotation generator; flat potential -(x^2+y^2)/2."""
    return built_in_runtime(PLANE, WINDING)[1]


def shear_field() -> VectorFieldSpec:
    """V = y dx; flat potential y^2/2.  Not Killing, but commutes with dx."""
    return built_in_runtime(PLANE, SHEAR)[1]


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


def flat_invariant(trace: Trace) -> InvariantReport:
    """Report on z' exp(-i p) along a flat-connection plane geodesic, for
    the flat potential p of the trace's field; it passes within 1e-6.

    The series is constant (equal to its launch value z0, with |z0| = E)
    whenever the trace comes from a field with flat potential p.
    """
    p = getattr(trace.field, "flat_potential_column", None)
    if p is None:
        raise ValueError("no flat potential available for the complex invariant")
    zdot = trace.du + 1j * trace.dv
    phase = p(trace.u, trace.v)
    values = zdot * np.exp(-1j * phase)
    return make_report("flat-invariant", trace.t, values, threshold=1e-6)


# ---------------------------------------------------------------------------
# Shear field: the angle invariant, strips, quadrature
# ---------------------------------------------------------------------------


def _require_unit_speed(E: float) -> None:
    if abs(E - 1.0) > 1e-9:
        raise ValueError(f"natural parametrization required (E = 1), got E = {E}")


def arcsin_invariant(trace: Trace) -> InvariantReport:
    """Report on c = y^2/2 - theta along a shear-field geodesic, for its
    velocity angle theta = atan2(y', x') unwrapped along the trace; it
    passes with a standard deviation below 1e-6.

    Since z' = z0 exp(i y^2/2), c is one constant over the whole geodesic,
    with no branches.  Where x' > 0, theta = arcsin(y'), hence the name.
    The trace must be launched at unit speed (E = 1); a speed error along
    it shows in the standard deviation, as the angle needs no |y'| <= 1.
    """
    _require_unit_speed(trace.E)
    values = 0.5 * trace.v ** 2 - np.unwrap(np.arctan2(trace.dv, trace.du))
    return make_report("arcsin-invariant", trace.t, values, threshold=1e-6, use_std=True)


@dataclass
class StripBounds:
    """Singular levels of the shear quadrature bracketing a launch height.

    The bounds satisfy sin(y^2/2 - c) = 0; a generic geodesic approaches
    them asymptotically and never leaves the open strip.
    """

    c: float
    lower: float
    upper: float

    @property
    def degenerate(self) -> bool:
        return self.lower == self.upper


def strip_bounds(y0: float, dy0: float, dx0: float) -> StripBounds:
    """Strip of the shear-field geodesic launched at height y0 with
    velocity (dx0, dy0), |velocity| = 1.

    Along the geodesic y' = sin(y^2/2 - c), with c = y0^2/2 - theta0 for the
    launch angle theta0 = atan2(dy0, dx0) in (-pi, pi], so the strip lies
    between the nearest roots y = +/-sqrt(2 (c + k pi)) of the right side.
    The launch lies on the level of k = theta0 / pi, so its neighbours have
    k = -1, 0 or 1, and the root nearest to y = 0 is one of theirs too; k
    runs over -2..2, as a level can round past y0.  A horizontal launch
    (dy0 = 0) makes y0 itself a root and the strip degenerates to the line
    y = y0.  A non-finite input, or a launch so high that c or a
    neighbouring level overflows, raises ValueError.
    """
    if not (math.isfinite(y0) and math.isfinite(dy0) and math.isfinite(dx0)):
        raise ValueError(f"launch must be finite, got y0 = {y0}, velocity = ({dx0}, {dy0})")
    _require_unit_speed(math.hypot(dx0, dy0))
    c = 0.5 * y0 * y0 - math.atan2(dy0, dx0)
    if not math.isfinite(c):
        raise ValueError(f"launch height {y0} overflows the shear invariant")
    if dy0 == 0.0:
        return StripBounds(c=c, lower=y0, upper=y0)
    levels: list[float] = []
    for k in range(-2, 3):
        val = 2.0 * (c + k * math.pi)
        if val < 0.0:
            continue
        if val == math.inf:
            raise ValueError(f"launch height {y0} overflows its singular levels")
        m = math.sqrt(val)
        levels.extend([m, -m] if m > 0.0 else [0.0])
    # a root that rounds onto y0 lies at y0 + (k pi - theta0) / y0 to first
    # order; theta0 - k pi is then small with the sign of dy0 dx0, so the
    # root lies on the side of -dy0 dx0 y0
    side = -dy0 * dx0 * y0
    lower = max(lv for lv in levels if lv < y0 or (lv == y0 and side < 0.0))
    upper = min(lv for lv in levels if lv > y0 or (lv == y0 and side > 0.0))
    return StripBounds(c=c, lower=lower, upper=upper)


@dataclass
class StripTime:
    """Elapsed time from the strip quadrature, with a divergence flag."""

    t: float
    diverged: bool


def strip_quadrature(y0: float, y: float, strip: StripBounds) -> StripTime:
    """Elapsed time t = integral from y0 to y of dy / sin(y^2/2 - c) along
    the shear-field geodesic launched at height y0 in ``strip``, the
    launch's :func:`strip_bounds`.

    The interval must lie in the strip; a bound strictly inside raises
    ValueError.  The integral diverges logarithmically at the bounds, so a
    target within floating-point reach of one reports the capped value,
    1e4, with the divergence flag set.
    """

    from scipy.integrate import quad

    cap = 1e4

    if y == y0:
        return StripTime(0.0, False)

    lower, upper = strip.lower, strip.upper
    lo, hi = (y0, y) if y > y0 else (y, y0)
    near = min(abs(y - lower), abs(y - upper))
    if not (lower < lo and hi < upper):
        if near <= 4.0 * np.finfo(float).eps * max(1.0, abs(y)):
            return StripTime(math.copysign(cap, y - y0), True)
        raise ValueError(
            f"singular level inside the quadrature interval [{lo}, {hi}]"
        )

    def integrand(x: float) -> float:
        return 1.0 / math.sin(0.5 * x * x - strip.c)

    # Approach a nearby singular endpoint geometrically so the adaptive
    # rule never straddles the blow-up.
    target_level = upper if y > y0 else lower
    gap = abs(target_level - y)
    width = abs(y - y0)
    pieces, g = [y0], 0.5 * width
    if gap < 0.25 * width:
        while g > gap * 1.0001:
            pieces.append(target_level - math.copysign(g, target_level - y0))
            g *= 0.5
    pieces.append(y)
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        part, _ = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-10, limit=300)
        total += part
        if abs(total) >= cap:
            return StripTime(math.copysign(cap, total), True)
    return StripTime(total, False)


# ---------------------------------------------------------------------------
# Shooting sweep (vectorized over launch angles)
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    """Each angle's lowest and highest height, the kernel that stepped
    them, ``"c"`` for the compiled loop or ``"numpy"`` for the lane arrays,
    and how many blocks of lanes it stepped at once, each on its own
    thread: 1 for the lane arrays or a process on one CPU."""

    angles: np.ndarray
    y_min: np.ndarray
    y_max: np.ndarray
    kernel: str
    blocks: int


def _shear_stage(s, x, y, dx, dy, ddx, ddy):
    """Stage s of x'' = -f + (f x' + g y') x', y'' = -g + (f x' + g y') y'
    for the shear V = f dx + g dy with f = y + 0.0 x and g = 0.0 x + 0.0 x,
    the field as the batched loop broadcast it over x.  The zero terms carry
    x's sign into the slopes: on a lane that stays at y = 0, as the 0 and pi
    launches from a height of -0.0 do, the signs of the zeros they add decide
    whether the heights read -0.0 or 0.0."""
    return [f"z{s} = 0.0 * {x}", f"f{s} = {y} + z{s}", f"e{s} = z{s} + z{s}",
            f"g{s} = f{s} * {dx} + e{s} * {dy}", f"{ddx} = -f{s} + g{s} * {dx}",
            f"{ddy} = -e{s} + g{s} * {dy}"]


@functools.cache
def _sweep_kernel():
    """The compiled lane loop of the sweep's step (see
    :func:`native.lanes_source`), loaded on the first call; None where it
    does not build or load, and the sweep then steps numpy lane arrays (see
    :func:`_lanes`)."""
    return native.load(native.lanes_source(RK4.emit(_shear_stage)), "lanes",
                       int, int, float, *[np.ndarray] * 6)


@functools.cache
def _lanes():
    """``step(u, v, du, dv, h) -> (un, vn, pn, qn)``, the sweep's RK4 step
    less its box checks (see :func:`native.unguarded`).  It uses only + - *
    / and unary minus, which C doubles, Python floats and numpy arrays round
    alike, with the same grouping, so on numpy lane arrays it steps every
    lane as the compiled loop does, bit for bit."""
    namespace: dict = {}
    exec(_code(native.unguarded(RK4.emit(_shear_stage)), "shear-sweep lanes"), namespace)
    return namespace["step"]


def shooting_sweep(origin: tuple[float, float] = (1.0, 1.0), n_angles: int = 720,
                   t_max: float = 50.0, h: float = 2e-3,
                   both_directions: bool = True) -> SweepResult:
    """Integrate unit-speed shear-field launches in every direction and
    record the extreme heights reached; the negative-control evidence that
    points in disjoint strips cannot be joined by a geodesic arc.

    The RK4 tableau steps every angle as one lane (x, y, x', y'), with
    E = 1 and no boundary, on the geodesic equation of the field as the
    batched loop broadcast it (see :func:`_shear_stage`).  Both kernels run
    the scalar step's statements less its box checks: in one compiled C loop
    where the system ``cc`` builds one (see :func:`native.lanes_source`),
    and on numpy lane arrays otherwise, with bitwise the same results;
    ``SweepResult.kernel`` says which ran.  The compiled loop steps one
    contiguous block of lanes per CPU the process may use, each on private
    copies of its lanes, on its own thread and CPU (see
    :func:`native.in_blocks`);
    lanes never meet, so no lane's bits depend on the split, and
    ``SweepResult.blocks`` records it.  The numpy lane arrays step in one
    block, as their Python holds the GIL.  The flow is even in the
    velocity, so the backward half of each geodesic is the forward run from
    the exactly negated launch velocity: with ``both_directions`` those
    launches join the same batch and the two halves' extremes are merged.
    ``origin`` must be finite, ``n_angles`` an int >= 1, ``h`` finite and
    positive, ``t_max`` finite and >= 0, and the step count t_max / h must
    fit a signed 64-bit integer; anything else raises ValueError.
    """
    x0, y0 = (float(c) for c in origin)
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise ValueError(f"origin must be finite, got {origin!r}")
    if isinstance(n_angles, bool) or not isinstance(n_angles, (int, np.integer)) \
            or n_angles < 1:
        raise ValueError(f"n_angles must be an int >= 1, got {n_angles!r}")
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step h must be finite and positive, got {h!r}")
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max!r}")
    if not math.isfinite(t_max / h) or round(t_max / h) >= 2 ** 63:
        raise ValueError(f"t_max {t_max!r} over step {h!r} overflows the step count")
    steps = round(t_max / h)
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
    dx = np.cos(angles)
    dy = np.sin(angles)
    if both_directions:
        dx = np.concatenate([dx, -dx])
        dy = np.concatenate([dy, -dy])
    x = np.full(len(dx), x0)
    y = np.full(len(dx), y0)
    y_lo = y.copy()
    y_hi = y.copy()
    kernel = _sweep_kernel()
    blocks = 1
    if kernel is not None:
        arrays = (x, y, dx, dy, y_lo, y_hi)

        def block(lo: int, hi: int) -> None:
            # private copies, so no two threads write one cache line
            own = [a[lo:hi].copy() for a in arrays]
            kernel(hi - lo, steps, h, *own)
            y_lo[lo:hi], y_hi[lo:hi] = own[4], own[5]

        blocks = native.in_blocks(block, len(y))
    else:
        lanes = _lanes()
        for _ in range(steps):
            x, y, dx, dy = lanes(x, y, dx, dy, h)
            np.minimum(y_lo, y, out=y_lo)
            np.maximum(y_hi, y, out=y_hi)
    if both_directions:
        y_lo = np.minimum(y_lo[:n_angles], y_lo[n_angles:])
        y_hi = np.maximum(y_hi[:n_angles], y_hi[n_angles:])
    return SweepResult(angles=angles, y_min=y_lo, y_max=y_hi,
                       kernel="numpy" if kernel is None else "c", blocks=blocks)
