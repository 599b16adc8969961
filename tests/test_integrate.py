import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st
from scipy.interpolate import CubicSpline

from torsiongeo.audit import uniform_step
from torsiongeo.errors import ChartDomainError
from torsiongeo.geometry import VectorFieldSpec, euclidean_plane
from torsiongeo.integrate import (GeodesicState, IntegratorSettings, _make_rhs,
                                  geodesic_rhs, integrate, integrate_adaptive,
                                  integrate_two_sided, levi_civita_integrate,
                                  merge_traces)
from torsiongeo.plane import winding_field
from torsiongeo.scenarios import CATALOG, build_runtime, run_scenario
from torsiongeo.surfaces import make_sphere


def settings(t1, h=1e-3, **kw):
    return IntegratorSettings(t0=0.0, t1=t1, h=h, **kw)


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


@pytest.mark.parametrize("key", ["plane-zero", "plane-winding", "plane-shear",
                                 "halfplane-sigma", "sphere", "pseudosphere", "catenoid"])
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.floats(0.01, 10.0))
@hsettings(max_examples=50, deadline=None)
def test_rhs_is_exactly_even_in_velocity(key, fu, fv, du, dv, E2):
    # backward runs and the two-sided sweep reflect forward runs from -v;
    # that is exact only while the acceleration is bitwise even in v
    rt = build_runtime(key)
    u0, u1, v0, v1 = rt.chart.sample_box
    u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
    rhs = _make_rhs(rt.chart, rt.field, E2)
    assert rhs(u, v, du, dv) == rhs(u, v, -du, -dv)


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
    end = fwd.state(len(fwd) - 1)
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
        ddu, ddv = geodesic_rhs(tr.chart, tr.field, tr.state(i), tr.E)
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
    import torsiongeo.geometry as geo

    chart = geo.ChartGeometry(
        name="mercator-image",
        metric=lambda u, v: (1.0 / math.sin(u) ** 2, 0.0, 1.0),
        bounds=(0.3, math.pi - 0.3, -math.inf, math.inf),
        sample_box=(0.4, math.pi - 0.4, -3.0, 3.0),
    )
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
