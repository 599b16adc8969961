import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st
from scipy.interpolate import CubicSpline

from torsiongeo.audit import Isometry, killing_flow_symmetry, uniform_step
from torsiongeo.errors import ChartDomainError
from torsiongeo.geometry import (PLANE, ZERO_FIELD, ChartSource, FieldSource, VectorFieldSpec,
                                 compile_runtime, euclidean_plane)
from torsiongeo.integrate import (GeodesicState, IntegratorSettings, _BoundaryHit,
                                  _make_rhs, _rk4_step, _rkf45_step, geodesic_rhs,
                                  integrate, integrate_adaptive, integrate_two_sided,
                                  levi_civita_integrate, merge_traces)
from torsiongeo.plane import winding_field
from torsiongeo.scenarios import CATALOG, build_runtime, run_scenario
from torsiongeo.surfaces import make_sphere

from test_runtimes import CONFIG_RUNTIMES, config_runtime


RUNTIMES = ["plane-zero", "plane-winding", "plane-shear", "halfplane-sigma", "sphere",
            "pseudosphere", "catenoid"]


def runtime(key):
    """A built-in runtime, or one of the config runtimes of test_runtimes."""
    return config_runtime(key) if key in CONFIG_RUNTIMES else build_runtime(key)


def settings(t1, h=1e-3, **kw):
    return IntegratorSettings(t0=0.0, t1=t1, h=h, **kw)


def state_at(tr, i):
    return GeodesicState(float(tr.t[i]), float(tr.u[i]), float(tr.v[i]),
                         float(tr.du[i]), float(tr.dv[i]))


def test_straight_line_endpoint():
    chart = euclidean_plane()
    tr = integrate(chart, VectorFieldSpec.zero(),
                   GeodesicState(0.0, 0.0, 0.0, 1.0, 0.0), settings(1.0))
    assert tr.u[-1] == pytest.approx(1.0, abs=1e-12)
    assert tr.v[-1] == pytest.approx(0.0, abs=1e-15)
    assert tr.stop_reason == "t1"


def test_rhs_zero_for_zero_field():
    chart = euclidean_plane()
    acc = geodesic_rhs(chart, VectorFieldSpec.zero(),
                       GeodesicState(0.0, 0.3, -0.4, 0.6, 0.8), 1.0)
    assert acc == (0.0, 0.0)


def test_rhs_matches_plane_curvature_form(rng):
    # On the plane with V = f dx + g dy and E = 1 the equations reduce to
    # x'' = -kappa y', y'' = kappa x' with kappa = f y' - g x'.
    chart = euclidean_plane()
    field = winding_field()
    for _ in range(50):
        x, y = rng.normal(size=2)
        ang = rng.uniform(0, 2 * math.pi)
        dx, dy = math.cos(ang), math.sin(ang)
        ddx, ddy = geodesic_rhs(chart, field, GeodesicState(0.0, x, y, dx, dy), 1.0)
        kappa = -y * dy - x * dx
        assert ddx == pytest.approx(-kappa * dy, abs=1e-12)
        assert ddy == pytest.approx(kappa * dx, abs=1e-12)


def test_rhs_orthogonal_to_velocity(rng):
    # g(nabla_v v, v) = 0: the acceleration minus the field terms is
    # metric-orthogonal to the velocity, so speed is conserved.
    surf = make_sphere()
    for _ in range(20):
        s = rng.uniform(0.5, 2.5)
        phi = rng.uniform(-2, 2)
        ang = rng.uniform(0, 2 * math.pi)
        e2 = 1.0 / math.sin(s)
        du, dv = math.cos(ang), math.sin(ang) * e2
        ddu, ddv = geodesic_rhs(surf.chart, surf.field,
                                GeodesicState(0.0, s, phi, du, dv), 1.0)
        Vu, _ = surf.field.components(s, phi)
        g22 = math.sin(s) ** 2
        # nabla_v v = acc + Gamma(v, v) = -E^2 V + g(V, v) v
        lc_u = ddu + (-math.sin(s) * math.cos(s)) * dv * dv
        lc_v = ddv + 2.0 * (math.cos(s) / math.sin(s)) * du * dv
        assert lc_u * du + g22 * lc_v * dv == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("key", RUNTIMES + list(CONFIG_RUNTIMES))
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.floats(0.01, 10.0))
@hsettings(max_examples=50, deadline=None)
def test_rhs_is_exactly_even_in_velocity(key, fu, fv, du, dv, E2):
    # backward runs and the two-sided sweep reflect forward runs from -v;
    # that is exact only while the acceleration is bitwise even in v
    rt = runtime(key)
    u0, u1, v0, v1 = rt.chart.sample_box
    u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
    rhs = _make_rhs(rt.chart, rt.field, E2)
    assert rhs(u, v, du, dv) == rhs(u, v, -du, -dv)


def oracle_rk4_step(rhs, contains, u, v, du, dv, h):
    # the hand-written RK4 step the tableau compiler replaced
    a1, b1 = rhs(u, v, du, dv)
    u2 = u + 0.5 * h * du
    v2 = v + 0.5 * h * dv
    if not contains(u2, v2):
        raise _BoundaryHit
    p2 = du + 0.5 * h * a1
    q2 = dv + 0.5 * h * b1
    a2, b2 = rhs(u2, v2, p2, q2)
    u3 = u + 0.5 * h * p2
    v3 = v + 0.5 * h * q2
    if not contains(u3, v3):
        raise _BoundaryHit
    p3 = du + 0.5 * h * a2
    q3 = dv + 0.5 * h * b2
    a3, b3 = rhs(u3, v3, p3, q3)
    u4 = u + h * p3
    v4 = v + h * q3
    if not contains(u4, v4):
        raise _BoundaryHit
    p4 = du + h * a3
    q4 = dv + h * b3
    a4, b4 = rhs(u4, v4, p4, q4)
    un = u + h * (du + 2.0 * p2 + 2.0 * p3 + p4) / 6.0
    vn = v + h * (dv + 2.0 * q2 + 2.0 * q3 + q4) / 6.0
    if not contains(un, vn):
        raise _BoundaryHit
    pn = du + h * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
    qn = dv + h * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
    return un, vn, pn, qn


F_A = (
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
F_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2, 0.0)
F_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
F_ERR = tuple(b5 - b4 for b4, b5 in zip(F_B4, F_B5))


def oracle_rkf45_step(rhs, contains, y, h):
    # the generic Fehlberg 4(5) loop the tableau compiler replaced
    def dot(weights, ks, i):
        # zero weights skipped and the sum started from its first term, as the
        # compiled kernel does, so that an exactly zero result keeps its sign
        terms = [w * k[i] for w, k in zip(weights, ks) if w != 0.0]
        return sum(terms[1:], terms[0])

    ks = []
    f = rhs(y[0], y[1], y[2], y[3])
    ks.append((y[2], y[3], f[0], f[1]))
    for row in F_A:
        z = [y[i] + h * dot(row, ks, i) for i in range(4)]
        if not contains(z[0], z[1]):
            raise _BoundaryHit
        f = rhs(z[0], z[1], z[2], z[3])
        ks.append((z[2], z[3], f[0], f[1]))
    y4 = [y[i] + h * dot(F_B4, ks, i) for i in range(4)]
    if not contains(y4[0], y4[1]):
        raise _BoundaryHit
    err = [h * dot(F_ERR, ks, i) for i in range(4)]
    return y4, err


def bits(call):
    """The float bits of a step's flattened result, or the exception it raised."""
    try:
        out = call()
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)
    flat = np.ravel(np.array(out, dtype=object))
    return [float.hex(float(x)) for x in flat]


@pytest.mark.parametrize("key", RUNTIMES + list(CONFIG_RUNTIMES))
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.floats(0.5, 3.0), st.floats(1e-4, 1.0))
@hsettings(max_examples=150, deadline=None)
def test_compiled_kernels_equal_the_hand_written_ones(key, fu, fv, du, dv, E, h):
    rt = runtime(key)
    u0, u1, v0, v1 = rt.chart.sample_box
    u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
    rhs, inside = _make_rhs(rt.chart, rt.field, E * E), rt.chart.contains
    assert bits(lambda: _rk4_step(rhs, inside, u, v, du, dv, h)) == \
        bits(lambda: oracle_rk4_step(rhs, inside, u, v, du, dv, h))
    # The first Fehlberg stage was h * (0.25 * k) and is now 0.25 * h * k.
    # Scaling by 0.25 is exact unless it lands in the subnormal range, so the
    # two round differently only for slopes below about 1e-307.
    if all(x == 0.0 or abs(x) >= 1e-300 for x in (du, dv)):
        assert bits(lambda: _rkf45_step(rhs, inside, u, v, du, dv, h)) == \
            bits(lambda: oracle_rkf45_step(rhs, inside, (u, v, du, dv), h))


def test_launches_that_overflow_the_speed_or_the_step_count_fail():
    with pytest.raises(ValueError, match=r"with a finite speed: E\^2 = inf"):
        integrate(euclidean_plane(), VectorFieldSpec.zero(),
                  GeodesicState(0.0, 0.0, 0.0, 1e200, 1e200), settings(1.0))
    with pytest.raises(ValueError, match="overflows the step count"):
        IntegratorSettings(t0=0.0, t1=1e308, h=1e-3)


def test_sphere_meridian_rhs_cancels():
    surf = make_sphere()
    acc = geodesic_rhs(surf.chart, surf.field, GeodesicState(0.0, 1.0, 0.0, 1.0, 0.0), 1.0)
    assert acc[0] == pytest.approx(0.0, abs=1e-14)
    assert acc[1] == pytest.approx(0.0, abs=1e-14)


def test_winding_endpoint_against_sixteenth_step_reference():
    # Self-convergence oracle: the fine reference shares every 16th sample.
    chart = euclidean_plane()
    field = winding_field()
    state = GeodesicState(0.0, 0.0, 2.0, 1.0, 0.0)
    coarse = integrate(chart, field, state, settings(10.0, h=1e-3))
    fine = integrate(chart, field, state, settings(10.0, h=1e-3 / 16.0))
    assert len(fine) == 16 * (len(coarse) - 1) + 1
    sel = slice(None, None, 16)
    err = np.max(np.hypot(fine.u[sel] - coarse.u, fine.v[sel] - coarse.v))
    assert err < 1e-6


def test_rk4_observed_order_at_least_3_7():
    # step sizes large enough that the endpoint errors sit well above the
    # roundoff floor of the halving sequence
    chart = euclidean_plane()
    field = winding_field()
    state = GeodesicState(0.0, 0.0, 2.0, 1.0, 0.0)
    ref = integrate(chart, field, state, settings(10.0, h=6.25e-4))
    errors = []
    for h in (2e-2, 1e-2, 5e-3):
        tr = integrate(chart, field, state, settings(10.0, h=h))
        errors.append(math.hypot(tr.u[-1] - ref.u[-1], tr.v[-1] - ref.v[-1]))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 3.7


def test_time_reversal_round_trip_by_backward_integration():
    chart = euclidean_plane()
    field = winding_field()
    fwd = integrate(chart, field, GeodesicState(0.0, 0.0, 2.0, 1.0, 0.0), settings(3.0))
    end = state_at(fwd, len(fwd) - 1)
    back = integrate(chart, field, end,
                     IntegratorSettings(t0=3.0, t1=0.0, h=1e-3))
    # backward traces are stored ascending; the first sample is t = 0
    assert back.t[0] == pytest.approx(0.0, abs=1e-12)
    assert math.hypot(back.u[0] - 0.0, back.v[0] - 2.0) < 1e-6
    assert math.hypot(back.du[0] - 1.0, back.dv[0] - 0.0) < 1e-6


def test_boundary_event_stops_cleanly():
    surf = make_sphere()
    state = GeodesicState(0.0, math.pi / 2, 0.0, 1.0, 0.0)  # meridian
    tr = integrate(surf.chart, surf.field, state, settings(5.0))
    assert tr.stop_reason == "boundary"
    assert surf.chart.contains(tr.u[-1], tr.v[-1])
    # the exit is bisected to 1e-9 in time: the last sample sits against
    # the pole cap at s = pi - 1e-3
    assert math.pi - 1e-3 - tr.u[-1] < 1e-6
    assert tr.t[-1] == pytest.approx(math.pi / 2 - 1e-3, abs=1e-5)


def test_initial_state_validation():
    surf = make_sphere()
    with pytest.raises(ChartDomainError):
        integrate(surf.chart, surf.field,
                  GeodesicState(0.0, -0.2, 0.0, 1.0, 0.0), settings(1.0))
    with pytest.raises(ValueError):
        integrate(surf.chart, surf.field,
                  GeodesicState(0.0, 1.0, 0.0, 0.0, 0.0), settings(1.0))


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(h=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorSettings(method="euler")
    for bad in (dict(h=math.inf), dict(h=math.nan), dict(t1=math.inf),
                dict(t0=math.nan), dict(t0=0.0, t1=-math.inf)):
        with pytest.raises(ValueError):
            IntegratorSettings(**bad)


def test_arbitrary_launch_speed_is_conserved():
    # E is whatever the launch speed is; nothing assumes natural
    # parametrization in the stepper itself
    chart = euclidean_plane()
    field = winding_field()
    tr = integrate(chart, field, GeodesicState(0.0, 0.0, 2.0, 1.2, 1.6),
                   settings(3.0))
    assert tr.E == pytest.approx(2.0)
    assert tr.max_speed_drift() < 1e-9


def test_max_steps_stop():
    chart = euclidean_plane()
    tr = integrate(chart, VectorFieldSpec.zero(),
                   GeodesicState(0.0, 0.0, 0.0, 1.0, 0.0),
                   IntegratorSettings(t0=0.0, t1=10.0, h=1e-3, max_steps=100))
    assert tr.stop_reason == "max-steps"
    assert len(tr) == 101


def test_uniform_grid_and_strictly_increasing_times():
    tr = run_scenario(CATALOG["plane-winding-offset"], span=(-2.0, 2.0))
    assert np.all(np.diff(tr.t) > 0)
    assert uniform_step(tr.t) is not None
    assert tr.t[tr.index_at(0.0)] == pytest.approx(0.0, abs=1e-15)


def test_merge_requires_shared_launch():
    chart = euclidean_plane()
    a = integrate(chart, VectorFieldSpec.zero(),
                  GeodesicState(0.0, 0.0, 0.0, 1.0, 0.0), settings(1.0))
    with pytest.raises(ValueError):
        merge_traces(a, a.sub_interval(0.5, 1.0))


def test_adaptive_matches_fixed_step():
    chart = euclidean_plane()
    field = winding_field()
    state = GeodesicState(0.0, 0.0, 2.0, 1.0, 0.0)
    ref = integrate(chart, field, state, settings(2.0, h=2.5e-4))
    ada = integrate_adaptive(chart, field, state,
                             settings(2.0, h=1e-2, rtol=1e-10, atol=1e-12))
    assert math.hypot(ada.u[-1] - ref.u[-1], ada.v[-1] - ref.v[-1]) < 1e-6
    assert uniform_step(ada.t) is None  # steps actually adapted
    assert ada.t[-1] == pytest.approx(2.0, abs=1e-12)


def test_adaptive_boundary_stop():
    surf = make_sphere()
    state = GeodesicState(0.0, math.pi / 2, 0.0, 1.0, 0.0)
    tr = integrate_adaptive(surf.chart, surf.field, state,
                            settings(5.0, h=1e-2, rtol=1e-9, atol=1e-12))
    assert tr.stop_reason == "boundary"
    assert surf.chart.contains(tr.u[-1], tr.v[-1])


def test_trace_satisfies_ode_residual(winding_trace):
    # residual of a high-order interpolant against the assembled equation
    tr = winding_trace.sub_interval(-2.0, 2.0)
    du_spline = CubicSpline(tr.t, tr.du).derivative()(tr.t)
    dv_spline = CubicSpline(tr.t, tr.dv).derivative()(tr.t)
    worst = 0.0
    for i in range(5, len(tr) - 5):
        ddu, ddv = geodesic_rhs(tr.chart, tr.field, state_at(tr, i), tr.E)
        worst = max(worst, abs(du_spline[i] - ddu), abs(dv_spline[i] - ddv))
    assert worst < 1e-5


def test_levi_civita_great_circle_stays_on_equator():
    surf = make_sphere()
    tr = levi_civita_integrate(surf.chart,
                               GeodesicState(0.0, math.pi / 2, 0.0, 0.0, 1.0),
                               settings(3.0))
    assert np.max(np.abs(tr.u - math.pi / 2)) < 1e-10
    assert tr.max_speed_drift() < 1e-12


def test_levi_civita_straight_lines_in_mercator_image_chart():
    # The image metric diag(1/sin^2 s, 1) of the sphere is flat: classical
    # geodesics have constant velocity in the (y, phi) coordinates, which
    # here shows as a loxodrome when pulled back.  Spot check: the chart's
    # classical geodesic launched along phi keeps du/dv constant ratio.
    chart = compile_runtime(ChartSource(
        "mercator-image", ("1/sin(u)**2", "0", "1"),
        bounds=(0.3, math.pi - 0.3, -math.inf, math.inf),
        sample_box=(0.4, math.pi - 0.4, -3.0, 3.0)), ZERO_FIELD)[0]
    state = GeodesicState(0.0, math.pi / 2, 0.0, math.sin(math.pi / 2), 1.0)
    tr = levi_civita_integrate(chart, state, settings(0.8))
    # Mercator image y = log tan(s/2) advances linearly in time
    y = np.log(np.tan(tr.u / 2.0))
    rate = np.diff(y) / np.diff(tr.t)
    assert np.max(np.abs(rate - rate[0])) < 1e-6


def test_two_sided_span_contains_zero():
    chart = euclidean_plane()
    with pytest.raises(ValueError):
        integrate_two_sided(chart, VectorFieldSpec.zero(),
                            GeodesicState(0.0, 0.0, 0.0, 1.0, 0.0), 1.0, 2.0)


@pytest.mark.parametrize("run, asked, ran", [(integrate, "rk45", "rk4"),
                                             (integrate_adaptive, "rk4", "rk45")])
def test_trace_records_the_method_that_ran(run, asked, ran):
    # each stepper ignores settings.method; the trace must name the one
    # that ran, or a re-integration from its settings lands on another grid
    tr = run(euclidean_plane(), winding_field(), GeodesicState(0.0, 0.0, 0.0, 1.0, 0.0),
             IntegratorSettings(method=asked, h=1e-2, t1=2.0))
    assert tr.settings.method == ran
    assert killing_flow_symmetry(tr, Isometry.identity()) == 0.0


def test_adaptive_underflow_is_a_stop_reason():
    # the field jumps by 1e12 at x = 1, so no step across it meets the tolerance
    field = compile_runtime(PLANE, FieldSource("jump", "fg", ("1e12*(x//1)", "0")))[1]
    tr = integrate_adaptive(euclidean_plane(), field, GeodesicState(0.0, 0.9, 0.0, 1.0, 0.1),
                            settings(1.0))
    assert tr.stop_reason == "underflow"
    assert 1 < len(tr) and tr.u[-1] < 1.0
