import math

import numpy as np
import pytest

from torsiongeo.audit import (Isometry, conformal_constant, curvature_general,
                              interior_slice, killing_curvature_check,
                              killing_flow_symmetry, kinematic_curvature,
                              make_report, naive_momentum, series_derivative)
from torsiongeo.geometry import euclidean_plane
from torsiongeo.integrate import GeodesicState, IntegratorSettings, levi_civita_integrate
from torsiongeo.plane import constant_field, plane_curvature, shear_field, winding_field
from torsiongeo.scenarios import CATALOG, run_scenario
from torsiongeo.surfaces import make_sphere


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


def test_mismatched_field_rejected(winding_trace):
    with pytest.raises(ValueError):
        curvature_general(winding_trace, shear_field())


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
