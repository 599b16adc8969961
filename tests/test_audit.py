import math

import numpy as np
import pytest
from hypothesis import assume, given, settings as hsettings, strategies as st

from geometry_checks import constant_field
from torsiongeo.audit import (Isometry, conformal_constant, curvature_general,
                              interior_slice, killing_curvature_check,
                              killing_flow_symmetry, kinematic_curvature,
                              make_report, naive_momentum, series_derivative)
from torsiongeo.geometry import euclidean_plane, inner
from torsiongeo.integrate import (GeodesicState, IntegratorSettings, integrate_two_sided,
                                  levi_civita_integrate)
from torsiongeo.plane import plane_curvature, winding_field
from torsiongeo.scenarios import CATALOG, build_runtime, run_scenario
from torsiongeo.surfaces import make_sphere
from torsiongeo.traceio import read_trace_csv, write_trace_csv


def test_series_derivative_fourth_order():
    t = np.linspace(0.0, 2.0, 201)
    y = np.sin(3.0 * t)
    d = series_derivative(t, y)
    assert np.max(np.abs(d - 3.0 * np.cos(3.0 * t))) < 1e-6


def test_series_derivative_nonuniform_spline():
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(0.0, 2.0, 300))
    y = t ** 3
    d = series_derivative(t, y)
    core = slice(10, -10)
    assert np.max(np.abs(d[core] - 3.0 * t[core] ** 2)) < 1e-3


def test_curvature_zero_when_velocity_parallel_to_field():
    # a horizontal launch in a constant field keeps v parallel to V
    chart = euclidean_plane()
    field = constant_field(1.0, 0.0)
    from torsiongeo.integrate import integrate

    tr = integrate(chart, field, GeodesicState(0.0, 0.0, 0.0, 1.0, 0.0),
                   IntegratorSettings(t0=0.0, t1=2.0, h=1e-3))
    assert np.max(curvature_general(tr)) < 1e-12
    assert np.max(np.abs(tr.g_v - tr.g_v[0])) < 1e-12


def test_plane_lagrange_identity(rng):
    # |f y' - g x'| = sqrt(|V|^2 - g(V, v)^2) for unit vectors in 2D
    pf = winding_field()
    for _ in range(100):
        x, y = rng.normal(size=2) * 2.0
        ang = rng.uniform(0.0, 2.0 * math.pi)
        dx, dy = math.cos(ang), math.sin(ang)
        signed = plane_curvature(pf, (x, y, dx, dy))
        f, g = pf.components(x, y)
        nV2 = f * f + g * g
        gV = f * dx + g * dy
        assert abs(signed) == pytest.approx(math.sqrt(max(0.0, nV2 - gV * gV)), abs=1e-12)


def test_curvature_general_vs_kinematic(winding_trace):
    tr = winding_trace
    core = interior_slice(len(tr))
    diff = np.abs(curvature_general(tr)[core] - kinematic_curvature(tr)[core])
    assert np.max(diff) < 1e-5


def test_sphere_loxodrome_curvature_closed_form(suite_ctx):
    # along a 45 degree loxodrome kappa = |cot s| |sin nu|
    tr = suite_ctx.trace("sphere-loxodrome-45")
    kappa = curvature_general(tr)
    expect = np.abs(np.cos(tr.u) / np.sin(tr.u)) * math.sin(math.pi / 4)
    assert np.max(np.abs(kappa - expect)) < 1e-10
    core = interior_slice(len(tr))
    assert np.max(np.abs(kinematic_curvature(tr)[core] - expect[core])) < 1e-5


def test_killing_check_requires_flag(shear_trace):
    with pytest.raises(ValueError):
        killing_curvature_check(shear_trace)


def test_report_sample_count_matches_trace(winding_trace):
    rep = killing_curvature_check(winding_trace)
    assert len(rep.values) == len(winding_trace)


def test_killing_curvature_and_monotonicity(winding_trace):
    rep = killing_curvature_check(winding_trace)
    assert rep.max_dev < 1e-4
    assert rep.monotone
    assert rep.passed


def test_conformal_constant_equals_frame_cosine(suite_ctx):
    # exp(sigma) g(v, d_phi) = (1/r) r^2 phi' = r phi' = g(v, e2)
    tr = suite_ctx.trace("sphere-loxodrome-45")
    rep = conformal_constant(tr, X=(0.0, 1.0))
    cosine = np.array([math.sin(u) * dv for u, dv in zip(tr.u, tr.dv)])
    assert np.max(np.abs(rep.values - cosine)) < 1e-12
    assert rep.std < 1e-6
    assert rep.passed


def test_classical_clairaut_limit():
    # V = 0 on the sphere: plain g(v, d_phi) is the classical constant
    surf = make_sphere()
    state = GeodesicState(0.0, math.pi / 2, 0.0, 0.4, 0.9)
    tr = levi_civita_integrate(surf.chart, state,
                               IntegratorSettings(t0=0.0, t1=3.0, h=1e-3))
    momentum = naive_momentum(tr, X=(0.0, 1.0))
    assert np.std(momentum) < 1e-8


def test_pseudosphere_invariant_vs_naive_momentum(suite_ctx):
    tr = suite_ctx.trace("pseudosphere-loxodrome")
    rep = conformal_constant(tr, X=(0.0, 1.0))
    assert rep.std < 1e-6
    assert np.std(naive_momentum(tr, X=(0.0, 1.0))) > 1e-3


def test_identity_isometry_zero_mismatch(winding_trace):
    tr = winding_trace.sub_interval(-1.0, 1.0)
    assert killing_flow_symmetry(tr, Isometry.identity()) < 1e-14


def test_rotation_symmetry_of_winding_field(winding_trace):
    tr = winding_trace.sub_interval(-2.0, 2.0)
    assert killing_flow_symmetry(tr, Isometry.rotation(math.pi / 3)) < 1e-6


def test_translation_symmetry_of_shear_field(shear_trace):
    tr = shear_trace.sub_interval(-2.0, 2.0)
    assert killing_flow_symmetry(tr, Isometry.translation(2.0, 0.0)) < 1e-6


def test_noncommuting_isometry_rejected(shear_trace):
    tr = shear_trace.sub_interval(-1.0, 1.0)
    with pytest.raises(ValueError):
        killing_flow_symmetry(tr, Isometry.rotation(math.pi / 3))


def test_reports_serialize():
    tr = run_scenario(CATALOG["plane-winding-center"], span=(-1.0, 1.0))
    rep = killing_curvature_check(tr)
    d = rep.to_dict()
    assert d["verdict"] == "PASS"
    assert set(d) >= {"name", "max_dev", "std", "verdict", "monotone"}


def test_make_report_without_finite_samples():
    for values in (np.full(3, np.nan), np.array([])):
        times = np.arange(float(len(values)))
        rep = make_report("x", times, values, threshold=1e-6)
        assert math.isnan(rep.max_dev) and math.isnan(rep.std)
        assert rep.passed is False
        assert make_report("x", times, values).passed is None


# ---------------------------------------------------------------------------
# Array diagnostics against the per-sample loops they replaced
# ---------------------------------------------------------------------------


def loop_diagnostics(chart, field, tr):
    n = len(tr)
    speed, kappa, g_v = np.empty(n), np.empty(n), np.empty(n)
    E2 = tr.E * tr.E
    for i in range(n):
        g11, g12, g22 = chart.metric(tr.u[i], tr.v[i])
        Vu, Vv = field.components(tr.u[i], tr.v[i])
        du, dv = tr.du[i], tr.dv[i]
        speed[i] = math.sqrt(max(0.0, g11 * du * du + 2.0 * g12 * du * dv + g22 * dv * dv))
        gv = Vu * (g11 * du + g12 * dv) + Vv * (g12 * du + g22 * dv)
        nv2 = g11 * Vu * Vu + 2.0 * g12 * Vu * Vv + g22 * Vv * Vv
        g_v[i] = gv
        kappa[i] = math.sqrt(max(0.0, nv2 - gv * gv / E2))
    return speed, kappa, g_v


def loop_kinematic(chart, tr):
    ddu = series_derivative(tr.t, tr.du)
    ddv = series_derivative(tr.t, tr.dv)
    out = np.empty(len(tr))
    for i in range(len(tr)):
        (a0, a1, a2), (b0, b1, b2) = chart.christoffel_analytic(tr.u[i], tr.v[i])
        du, dv = tr.du[i], tr.dv[i]
        wu = ddu[i] + a0 * du * du + 2.0 * a1 * du * dv + a2 * dv * dv
        wv = ddv[i] + b0 * du * du + 2.0 * b1 * du * dv + b2 * dv * dv
        g11, g12, g22 = chart.metric(tr.u[i], tr.v[i])
        out[i] = math.sqrt(max(0.0, g11 * wu * wu + 2.0 * g12 * wu * wv + g22 * wv * wv)) / (tr.E * tr.E)
    return out


def loop_momentum(chart, tr, xfun, sigma=lambda u, v: 0.0):
    return np.array([
        math.exp(sigma(tr.u[i], tr.v[i]))
        * inner(chart, (tr.u[i], tr.v[i]), (tr.du[i], tr.dv[i]), xfun(tr.u[i], tr.v[i]))
        for i in range(len(tr))
    ])


def rotation_x(u, v):
    return (v, -u)


@pytest.mark.parametrize("key", ["plane-zero", "plane-winding", "plane-shear",
                                 "halfplane-sigma", "sphere", "pseudosphere", "catenoid"])
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.05, 3.0),
       st.floats(0.0, 2.0 * math.pi), st.floats(-0.3, -0.05), st.floats(0.05, 0.3),
       st.sampled_from(["rk4", "rk45"]))
@hsettings(max_examples=20)
def test_array_audits_equal_sample_loops(key, tmp_path_factory, fu, fv, speed, angle,
                                         t_min, t_max, method):
    rt = build_runtime(key)
    chart, field = rt.chart, rt.field
    u0, u1, v0, v1 = chart.sample_box
    u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
    g11, _, g22 = chart.metric(u, v)
    state = GeodesicState(0.0, u, v, speed * math.cos(angle) / math.sqrt(g11),
                          speed * math.sin(angle) / math.sqrt(g22))
    tr = integrate_two_sided(chart, field, state, t_min, t_max, h=0.01, method=method)
    assume(len(tr) >= 2)

    for got, want in zip((tr.speed, tr.kappa, tr.g_v), loop_diagnostics(chart, field, tr)):
        assert got.tobytes() == want.tobytes()
    assert curvature_general(tr).tobytes() == tr.kappa.tobytes()
    assert kinematic_curvature(tr).tobytes() == loop_kinematic(chart, tr).tobytes()
    for X, xfun in (((0.0, 1.0), lambda u, v: (0.0, 1.0)), (rotation_x, rotation_x)):
        want = loop_momentum(chart, tr, xfun)
        assert naive_momentum(tr, X).tobytes() == want.tobytes()
        if field.sigma is not None:
            want = loop_momentum(chart, tr, xfun, field.sigma)
            assert conformal_constant(tr, X=X).values.tobytes() == want.tobytes()

    # the launch sample squares its velocity as the launch does
    assert tr.speed[tr.index_at(0.0)] == tr.E
    path = write_trace_csv(tr, tmp_path_factory.getbasetemp() / "oracle.csv")
    assert read_trace_csv(path).E == tr.E
