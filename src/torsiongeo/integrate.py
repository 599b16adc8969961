"""Geodesic ODE assembly and time stepping.

The second-order system integrated here is, in chart coordinates,

    ddot(x)^k = -G^k_ij dx^i dx^j - E^2 V^k + g(V, dx) dx^k

whose solutions have constant speed E by construction.  E is frozen at
launch from the initial velocity rather than re-measured per step, so any
numerical speed drift stays observable in the trace diagnostics; there is
no re-projection.

``integrate`` is a pure function of its inputs; batch runs over many
initial conditions may execute concurrently with no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Callable

import numpy as np

from . import native
from .expr import FusedRHS
from .geometry import ChartGeometry, VectorFieldSpec, cached_runtime, positive_part

STOP_TIME = "t1"
STOP_BOUNDARY = "boundary"
STOP_MAX_STEPS = "max-steps"
STOP_UNDERFLOW = "underflow"

#: Absolute time tolerance to which a domain-boundary exit is bisected.
BOUNDARY_TIME_TOL = 1e-9

#: The per-sample arrays of a :class:`Trace`, in CSV column order.
COLUMNS = ("t", "u", "v", "du", "dv", "speed", "kappa", "g_v")


@dataclass
class GeodesicState:
    """Position and velocity at a time, in chart coordinates."""

    t: float
    u: float
    v: float
    du: float
    dv: float


@dataclass
class IntegratorSettings:
    """Stepper configuration.

    ``t1 < t0`` requests backward integration, run as the time reversal of
    a forward one (see :func:`integrate`).  For ``rk4`` the step ``h``
    is fixed; for ``rk45`` it is the initial step of the embedded
    Fehlberg pair, controlled by ``rtol``/``atol`` with safety factor 0.9
    and step-scale clamps [0.2, 5.0].
    """

    method: str = "rk4"
    h: float = 1e-3
    rtol: float = 1e-9
    atol: float = 1e-12
    t0: float = 0.0
    t1: float = 1.0
    max_steps: int = 5_000_000

    def __post_init__(self) -> None:
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("h", "rtol", "atol"):
            x = getattr(self, name)
            if isinstance(x, bool) or not (isinstance(x, Real) and 0.0 < x < math.inf):
                raise ValueError(f"{name} must be a finite float > 0, got {x!r}")
        if isinstance(self.max_steps, bool) or not (isinstance(self.max_steps, Integral)
                                                    and self.max_steps >= 1):
            raise ValueError(f"max_steps must be an int >= 1, got {self.max_steps!r}")
        for name in ("t0", "t1"):
            x = getattr(self, name)
            if isinstance(x, bool) or not (isinstance(x, Real) and math.isfinite(x)):
                raise ValueError(f"{name} must be a finite float, got {x!r}")
        if not math.isfinite((self.t1 - self.t0) / self.h):
            raise ValueError(f"span [{self.t0!r}, {self.t1!r}] over step {self.h!r} "
                             f"overflows the step count")


@dataclass
class Trace:
    """A time-ordered geodesic sample with per-step diagnostics.

    Samples are stored with strictly increasing times regardless of the
    integration direction.  ``speed`` is the instantaneous metric norm of
    the velocity, ``kappa`` the geodesic curvature sqrt(|V|^2 - g(V,v)^2/E^2),
    and ``g_v`` the coupling g(V, velocity).
    """

    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    speed: np.ndarray
    kappa: np.ndarray
    g_v: np.ndarray
    E: float
    chart: ChartGeometry | None = None
    field: VectorFieldSpec | None = None
    settings: IntegratorSettings | None = None
    stop_reason: str = STOP_TIME
    scenario_id: str | None = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def positions(self) -> np.ndarray:
        return np.column_stack([self.u, self.v])

    def index_at(self, t: float) -> int:
        return int(np.argmin(np.abs(self.t - t)))

    def sub_interval(self, t_min: float, t_max: float) -> "Trace":
        mask = (self.t >= t_min - 1e-12) & (self.t <= t_max + 1e-12)
        return replace(self, **{c: getattr(self, c)[mask] for c in COLUMNS})

    def max_speed_drift(self) -> float:
        return float(np.max(np.abs(self.speed - self.E)) / self.E)


class _BoundaryHit(Exception):
    """Internal: a step stage would evaluate outside the open domain box."""


def _fused(chart: ChartGeometry, field: VectorFieldSpec) -> FusedRHS:
    """The fused RHS that steps ``field`` on ``chart``: the field's own when
    it was compiled with ``chart``'s source, else the one compiled once per
    process for the pair of their sources."""
    if field.fused is not None and field.fused[0] == chart.source:
        return field.fused[1]
    if chart.source is None or field.source is None:
        raise ValueError(f"chart {chart.name!r} and field {field.name!r} step only when "
                         f"built by compile_runtime")
    if field.source.kind == "sigma":
        raise ValueError(f"field {field.name!r} is -grad sigma for the metric of chart "
                         f"{field.fused[0].name!r}, not of {chart.name!r}")
    return cached_runtime(chart.source, field.source)[1].fused[1]


def geodesic_rhs(chart: ChartGeometry, field: VectorFieldSpec,
                 state: GeodesicState, E: float) -> tuple[float, float]:
    """Acceleration (ddu, ddv) of the torsion-coupled geodesic equation.

    Contracting the result with the velocity shows g(a_levi_civita, v) = 0,
    so the flow conserves the speed E exactly in exact arithmetic.
    """
    chart.require_inside(state.u, state.v)
    return _fused(chart, field)(E * E)(state.u, state.v, state.du, state.dv)


@dataclass(frozen=True)
class Tableau:
    """An explicit Runge-Kutta tableau.

    ``a`` holds the Butcher matrix rows below the diagonal (the system is
    autonomous, so the nodes are not needed), ``b`` the weights, each divided
    by ``divisor``, and ``err`` the optional error-estimate weights.  Zero
    coefficients are skipped and unit ones dropped, and a lone coefficient
    multiplies h before the slope.
    """

    name: str
    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    divisor: float = 1.0
    err: tuple[float, ...] | None = None

    def emit(self, stage: Callable[..., list[str]]) -> str:
        """The source of ``step(u, v, du, dv, h, E2, u0, u1, v0, v1)``, which
        returns the new state, paired with the error estimate when ``err`` is
        given, and raises _BoundaryHit rather than evaluate a stage, or
        return a result, outside the open box (u0, u1) x (v0, v1).
        ``stage(s, x, y, du, dv, ddu, ddv)`` gives the statements that bind
        stage s's slope (ddu, ddv) at the state (x, y, du, dv)."""
        ks = [("du", "dv", "a1", "b1")]

        def combo(weights, j, den=1.0):
            terms = [(w, k[j]) for w, k in zip(weights, ks) if w != 0.0]
            if len(terms) == 1 and den == 1.0:
                w, k = terms[0]
                return f"h * {k}" if w == 1.0 else f"{w!r} * h * {k}"
            total = " + ".join(k if w == 1.0 else f"{w!r} * {k}" for w, k in terms)
            return f"h * ({total})" + ("" if den == 1.0 else f" / {den!r}")

        def update(names, weights, den=1.0):
            u, v, p, q = (f"    {n} = {y} + {combo(weights, j, den)}"
                          for j, (n, y) in enumerate(zip(names, ("u", "v", "du", "dv"))))
            return [u, v, f"    if not (u0 < {names[0]} < u1 and v0 < {names[1]} < v1):",
                    "        raise _BoundaryHit", p, q]

        def inline(s, *names):
            return [f"    {line}" for line in stage(s, *names)]

        lines = ["def step(u, v, du, dv, h, E2=None, u0=None, u1=None, v0=None, v1=None):",
                 *inline(1, "u", "v", "du", "dv", "a1", "b1")]
        for s, row in enumerate(self.a, start=2):
            lines += update((f"u{s}", f"v{s}", f"p{s}", f"q{s}"), row)
            lines += inline(s, f"u{s}", f"v{s}", f"p{s}", f"q{s}", f"a{s}", f"b{s}")
            ks.append((f"p{s}", f"q{s}", f"a{s}", f"b{s}"))
        lines += update(("un", "vn", "pn", "qn"), self.b, self.divisor)
        if self.err is None:
            lines.append("    return un, vn, pn, qn")
        else:
            lines += [f"    {n} = {combo(self.err, j)}"
                      for j, n in enumerate(("eu", "ev", "ep", "eq"))]
            lines.append("    return (un, vn, pn, qn), (eu, ev, ep, eq)")
        return "\n".join(lines) + "\n"


RK4 = Tableau("rk4", ((0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), (1.0, 2.0, 2.0, 1.0), 6.0)

# Fehlberg 4(5).  The 4th-order solution is propagated; the difference to
# the embedded 5th-order one estimates the local error.
_F_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2, 0.0)
_F_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
FEHLBERG = Tableau(
    "rk45",
    ((0.25,),
     (3.0 / 32.0, 9.0 / 32.0),
     (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
     (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
     (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0)),
    _F_B4, err=tuple(b5 - b4 for b4, b5 in zip(_F_B4, _F_B5)))


def _make_step(chart: ChartGeometry, field: VectorFieldSpec, E2: float,
               tableau: Tableau) -> Callable:
    """``tableau``'s step ``(u, v, du, dv, h)`` of ``field`` on ``chart`` at
    launch speed E2, with the fused RHS inlined at every stage."""
    return _fused(chart, field).step(tableau, E2, chart.bounds, _BoundaryHit=_BoundaryHit)


def _run(march, method: str, chart: ChartGeometry, field: VectorFieldSpec,
         initial: GeodesicState, settings: IntegratorSettings,
         scenario_id: str | None) -> Trace:
    """Launch checks, time reversal and diagnostics shared by the steppers.

    The flow is even in the velocity, so a backward run over [t1, t0] is
    the reflection (t, x') -> (-t, -x') of a forward run from -t0 with the
    launch velocity negated.  Both steppers commute with that reflection
    bitwise, so ``march`` only ever steps forward.  It takes its steps
    from ``make_step(tableau)`` and returns ``(t, cols, stop)``: the sample
    times, the (u, v, du, dv) columns and the stop reason.
    """
    chart.require_inside(initial.u, initial.v)
    g11, g12, g22 = chart.metric(initial.u, initial.v)
    du, dv = initial.du, initial.dv
    E2 = g11 * du * du + 2.0 * g12 * du * dv + g22 * dv * dv
    if not 0.0 < E2 < math.inf:
        raise ValueError(f"initial velocity must be nonzero, with a finite speed: E^2 = {E2!r}")
    E = math.sqrt(E2)

    def make_step(tableau: Tableau) -> Callable:
        return _make_step(chart, field, E2, tableau)

    sign = 1.0 if settings.t1 >= settings.t0 else -1.0
    t, (u, v, du, dv), stop = march(make_step, sign * settings.t0, sign * settings.t1,
                                    (initial.u, initial.v, sign * du, sign * dv), settings)
    if sign < 0:
        t, u, v, du, dv = -t[::-1], u[::-1], v[::-1], -du[::-1], -dv[::-1]

    speed, kappa, g_v = diagnostics(chart.metric_column, field.components_column,
                                    u, v, du, dv, E)
    return Trace(t=t, u=u, v=v, du=du, dv=dv, speed=speed, kappa=kappa,
                 g_v=g_v, E=E, chart=chart, field=field,
                 settings=replace(settings, method=method),
                 stop_reason=stop, scenario_id=scenario_id)


def integrate(chart: ChartGeometry, field: VectorFieldSpec,
              initial: GeodesicState, settings: IntegratorSettings,
              scenario_id: str | None = None) -> Trace:
    """Integrate the geodesic equation from ``initial`` over the settings span.

    The initial position must lie strictly inside the chart domain and the
    initial velocity must be nonzero, with a finite speed E at launch.
    Integration stops at ``t1``, at ``max_steps``, or at a domain-boundary
    event, whichever comes first, and records which in ``stop_reason``.
    A step that would evaluate outside the open domain box triggers the
    boundary stop: the offending step is discarded and the exit time is
    refined by bisection to ``BOUNDARY_TIME_TOL``.  A backward span
    (``t1 < t0``) is integrated forward from the negated launch velocity
    and reflected back.  ``settings.method`` is not read; the trace's
    settings record ``"rk4"``.  A march of at least ``NATIVE_MIN_STEPS``
    steps, or one whose step text has already stepped that many in Python
    in earlier marches of the process, runs a compiled loop of the same
    step where one builds, with the same bits (see :mod:`native`).
    """
    return _run(_rk4_march, "rk4", chart, field, initial, settings, scenario_id)


#: The planned step count from which an RK4 march with no kernel loaded
#: builds one, and the Python steps a text's earlier marches must add up
#: to before a shorter march of it builds one (see
#: :func:`native.rk4_kernel`).  A ``cc`` build takes 70-135 ms and a Python
#: step 2.5-3.9 us (catalog texts, 2-vCPU host, CPython 3.11, GCC 12), so
#: 10 000 Python steps cost about one build: the rent-or-buy rule pays per
#: step until the steps paid reach a build's cost, then builds.  Only
#: earlier marches count, so a one-shot run of a short span builds
#: nothing, and a text marched again builds once its tally is full.
NATIVE_MIN_STEPS = 10_000


def _rk4_march(make_step, t0, t1, y, settings):
    step = make_step(RK4)
    h = settings.h
    span = t1 - t0
    n_full = int(math.floor(span / h + 1e-9))
    rem = span - n_full * h
    if n_full >= 1 and rem <= 1e-9 * h:  # a span shorter than h takes one short step
        rem = 0.0
    total = n_full + (1 if rem > 0.0 else 0)
    n = min(total, settings.max_steps)
    stop = STOP_MAX_STEPS if total > settings.max_steps else STOP_TIME
    launch, blocks, k = y, [], 0
    kernel = native.rk4_kernel(step, n, NATIVE_MIN_STEPS)
    if kernel is not None:
        # the compiled loop stops before any step that leaves the box,
        # fails a check or raises a flag; the Python step takes it from there
        blocks, k, y = kernel.march(step, y, n, n_full, h, rem)
    rows = []
    h_part = None
    try:
        for k in range(k, n):
            y = step(*y, h if k < n_full else rem)
            rows.append(y)
    except _BoundaryHit:
        stop = STOP_BOUNDARY
        partial = _bisect_exit(step, *y, h if k < n_full else rem)
        if partial is not None:
            h_part, y = partial
            rows.append(y)
    cols = np.concatenate([np.reshape(launch, (4, 1)), *blocks, np.reshape(rows, (-1, 4)).T],
                          axis=1)

    # Times come from k * h, not from accumulation, so the stored grid is
    # exactly uniform apart from an optional short final step.  The launch
    # time is t0 itself: t0 + 0.0 would turn a backward run's -0.0 into
    # +0.0, and its reflection into -0.0.
    t = t0 + np.minimum(np.arange(cols.shape[1]) * h, span)
    t[0] = t0
    if h_part is not None:
        t[-1] = t[-2] + h_part
    return t, cols, stop


def _bisect_exit(step, u, v, du, dv, h):
    """Largest sub-step of h that the RK4 ``step`` takes inside, refined to
    BOUNDARY_TIME_TOL.

    Returns (h_taken, state) or None when even a vanishing step exits.
    """
    lo = 0.0
    hi = h
    best = None
    while hi - lo > BOUNDARY_TIME_TOL:
        mid = 0.5 * (lo + hi)
        try:
            state = step(u, v, du, dv, mid)
        except _BoundaryHit:
            hi = mid
        else:
            lo = mid
            best = state
    if best is None or lo == 0.0:
        return None
    return lo, best


def diagnostics(metric_column, components_column, u, v, du, dv, E):
    """Per-sample (speed, kappa, g(V, v)) at launch speed E, from the column
    forms of a chart's metric and a field's components; the speed squares
    the velocity as the launch does, so the launch sample's speed is E."""
    g11, g12, g22 = metric_column(u, v)
    Vu, Vv = components_column(u, v)
    speed = np.sqrt(positive_part(g11 * du * du + 2.0 * g12 * du * dv + g22 * dv * dv))
    g_v = Vu * (g11 * du + g12 * dv) + Vv * (g12 * du + g22 * dv)
    nv2 = g11 * Vu * Vu + 2.0 * g12 * Vu * Vv + g22 * Vv * Vv
    kappa = np.sqrt(positive_part(nv2 - g_v * g_v / (E * E)))
    return speed, kappa, g_v


def integrate_adaptive(chart: ChartGeometry, field: VectorFieldSpec,
                       initial: GeodesicState, settings: IntegratorSettings,
                       scenario_id: str | None = None) -> Trace:
    """Embedded Fehlberg 4(5) integration with per-step error control.

    Stops like :func:`integrate`, and also with ``underflow`` when the
    controlled step falls below 1e-14, keeping the samples accepted so far.
    The trace's settings record ``"rk45"`` whatever ``settings.method`` says.
    """
    return _run(_rkf45_march, "rk45", chart, field, initial, settings, scenario_id)


def _rkf45_march(make_step, t0, t1, y, settings):
    step = make_step(FEHLBERG)
    span = t1 - t0
    t_rel = 0.0
    ts = [t0]
    rows = [y]
    h = min(settings.h, span) if span > 0 else settings.h
    stop = STOP_TIME
    steps = 0
    tiny = 1e-15 * max(1.0, span)

    while span - t_rel > tiny:
        if steps >= settings.max_steps:
            stop = STOP_MAX_STEPS
            break
        if h < 1e-14:
            stop = STOP_UNDERFLOW
            break
        h = min(h, span - t_rel)
        try:
            y_new, err = step(*y, h)
        except _BoundaryHit:
            partial = _bisect_exit(make_step(RK4), *y, h)
            if partial is not None:
                h_part, state = partial
                t_rel += h_part
                ts.append(t0 + t_rel)
                rows.append(state)
            stop = STOP_BOUNDARY
            break
        steps += 1
        ratio = 0.0
        for e, a, b in zip(err, y, y_new):
            scale = settings.atol + settings.rtol * max(abs(a), abs(b))
            ratio = max(ratio, abs(e) / scale)
        if ratio <= 1.0:
            t_rel += h
            y = y_new
            ts.append(t0 + t_rel)
            rows.append(y)
        factor = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
        h *= factor

    return np.array(ts), np.array(rows).T, stop


def integrate_any(chart: ChartGeometry, field: VectorFieldSpec,
                  initial: GeodesicState, settings: IntegratorSettings,
                  scenario_id: str | None = None) -> Trace:
    """Dispatch on ``settings.method``."""
    if settings.method == "rk45":
        return integrate_adaptive(chart, field, initial, settings, scenario_id)
    return integrate(chart, field, initial, settings, scenario_id)


def levi_civita_integrate(chart: ChartGeometry, initial: GeodesicState,
                          settings: IntegratorSettings,
                          scenario_id: str | None = None) -> Trace:
    """Classical geodesic flow: the V = 0 special case."""
    return integrate_any(chart, VectorFieldSpec.zero(), initial, settings, scenario_id)


def merge_traces(backward: Trace, forward: Trace) -> Trace:
    """Join a backward and a forward run launched from the same state.

    Both traces are ascending in time; the duplicated launch sample is
    dropped from the forward part.
    """
    if abs(backward.t[-1] - forward.t[0]) > 1e-12:
        raise ValueError("traces do not share the launch time")
    return replace(forward, stop_reason=f"{backward.stop_reason}/{forward.stop_reason}",
                   **{c: np.concatenate([getattr(backward, c), getattr(forward, c)[1:]])
                      for c in COLUMNS})


def integrate_two_sided(chart: ChartGeometry, field: VectorFieldSpec,
                        initial: GeodesicState, t_min: float, t_max: float,
                        h: float = 1e-3, method: str = "rk4",
                        scenario_id: str | None = None,
                        rtol: float = 1e-9, atol: float = 1e-12) -> Trace:
    """Integrate over [t_min, t_max] with the launch state at t = 0."""
    if not (t_min <= 0.0 <= t_max):
        raise ValueError("two-sided span must contain t = 0")
    fwd = integrate_any(chart, field, initial,
                        IntegratorSettings(method=method, h=h, t0=0.0, t1=t_max,
                                           rtol=rtol, atol=atol), scenario_id)
    if t_min == 0.0:
        return fwd
    back = integrate_any(chart, field, initial,
                         IntegratorSettings(method=method, h=h, t0=0.0, t1=t_min,
                                            rtol=rtol, atol=atol), scenario_id)
    return merge_traces(back, fwd)
