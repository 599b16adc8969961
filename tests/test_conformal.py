import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from geometry_checks import check_christoffel_consistency, sample_interior
from torsiongeo.conformal import (chordal_lengths, compare_point_sets, conformal_metric,
                                  geodesic_residual, reparametrize, resample_by_arclength)
from torsiongeo.geometry import PLANE, FieldSource, compile_runtime
from torsiongeo.integrate import GeodesicState, IntegratorSettings, integrate, levi_civita_integrate
from torsiongeo.scenarios import CATALOG, Scenario, build_runtime, run_scenario
from torsiongeo.suite import _conformal_pair_distance
from torsiongeo.surfaces import make_sphere, mercator_map


def test_identity_rescale_keeps_metric():
    chart, field = compile_runtime(PLANE, FieldSource("flat-sigma", "sigma", ("0",)))
    derived = conformal_metric(chart, field)
    assert derived.metric(0.3, 0.4) == (1.0, 0.0, 1.0)


def test_surface_rescale_gives_inverse_square_metric():
    surf = make_sphere()
    derived = conformal_metric(surf.chart, surf.field)
    s = 1.1
    r2 = math.sin(s) ** 2
    g11, g12, g22 = derived.metric(s, 0.0)
    assert g11 == pytest.approx(1.0 / r2, rel=1e-14)
    assert g12 == 0.0
    assert g22 == pytest.approx(1.0, rel=1e-14)


def test_halfplane_rescale_is_hyperbolic():
    rt = build_runtime("halfplane-sigma")  # sigma = -log(y) on y > 0.05
    derived = conformal_metric(rt.chart, rt.field)
    g11, g12, g22 = derived.metric(0.0, 2.0)
    assert g11 == pytest.approx(0.25)
    assert g22 == pytest.approx(0.25)
    # analytic hyperbolic Christoffels
    (a0, a1, a2), (b0, b1, b2) = derived.christoffel_analytic(0.0, 2.0)
    assert (a0, a1, a2) == pytest.approx((0.0, -0.5, 0.0))
    assert (b0, b1, b2) == pytest.approx((0.5, 0.0, -0.5))


@pytest.mark.parametrize("case", ["sphere", "pseudosphere", "catenoid", "halfplane"])
def test_connection_identity_residual(case, rng):
    # the compiled conformal Christoffel symbols against central differences
    # of the rescaled metric
    rt = build_runtime("halfplane-sigma" if case == "halfplane" else case)
    pts = sample_interior(rt.chart, 100, rng)
    assert check_christoffel_consistency(conformal_metric(rt.chart, rt.field), pts) < 1e-6


def test_reparametrize_constant_sigma_rescales_time():
    sigma_value = 0.7
    chart, field = compile_runtime(PLANE, FieldSource("flat-sigma", "sigma", ("0.7",)))
    tr = integrate(chart, field, GeodesicState(0.0, 0.0, 0.0, 1.0, 0.0),
                   IntegratorSettings(t0=0.0, t1=2.0, h=1e-3))
    rep = reparametrize(tr)
    # tau(t) = exp(-sigma) t: the curve advances at the rescaled rate
    scale = math.exp(-sigma_value)
    assert np.max(np.abs(rep.u - scale * rep.t)) < 1e-10


def test_reparametrized_loxodrome_is_classical_geodesic(suite_ctx):
    tr = suite_ctx.trace("sphere-loxodrome-45").sub_interval(0.0, 2.0)
    rep = reparametrize(tr)
    # constant speed for the rescaled metric
    assert np.std(rep.speed) < 1e-6
    # and the classical geodesic equation holds along the resample
    assert geodesic_residual(rep) < 1e-4


SIGMA_SCENARIOS = [sid for sid, sc in CATALOG.items()
                   if build_runtime(sc.runtime).field.sigma is not None]


@pytest.mark.parametrize("sid", SIGMA_SCENARIOS)
def test_reparametrized_catalog_traces_are_classical_geodesics(suite_ctx, sid):
    rep = reparametrize(suite_ctx.trace(sid))
    assert np.std(rep.speed) < 1e-6
    assert geodesic_residual(rep) < 1e-4


@pytest.mark.parametrize("key", ["sphere", "pseudosphere", "catenoid"])
@given(st.floats(0.2, 0.8), st.floats(-1.2, 1.2), st.booleans(), st.floats(0.05, 0.5))
@hsettings(max_examples=20)
def test_loxodrome_clock_is_mercator_over_cos_alpha(key, fs, alpha, flip, t_max):
    # the rescaled metric is dy^2 + dphi^2 in the Mercator coordinate y, where
    # a loxodrome at angle alpha to the meridians is a line with dy = cos(alpha) dt~
    surf = build_runtime(key).surface
    u0, u1 = surf.chart.sample_box[:2]
    s0 = u0 + fs * (u1 - u0)
    alpha += math.pi if flip else 0.0
    tr = run_scenario(Scenario("lox", key, (s0, 0.0), angle=alpha, span=(-t_max, t_max)))
    rep = reparametrize(tr)
    exact = (mercator_map(surf, tr.u) - mercator_map(surf, s0)) / math.cos(alpha)
    assert rep.t[tr.index_at(0.0)] == 0.0
    assert np.max(np.abs(rep.t - exact)) <= 1e-10 * np.max(np.abs(rep.t))


def test_reparametrize_needs_the_launch_sample(suite_ctx):
    tr = suite_ctx.trace("sphere-loxodrome-45").sub_interval(0.5, 2.0)
    with pytest.raises(ValueError, match="t = 0 sample"):
        reparametrize(tr)


def test_reparametrize_requires_potential(winding_trace):
    with pytest.raises(ValueError):
        reparametrize(winding_trace)


def test_meridian_maps_to_same_point_set():
    surf = make_sphere()
    tr = run_scenario(CATALOG["sphere-meridian"], span=(0.0, 1.0))
    derived = conformal_metric(surf.chart, surf.field)
    w = 1.0 / math.sqrt(derived.metric(math.pi / 2, 0.0)[0])
    lc = levi_civita_integrate(derived, GeodesicState(0.0, math.pi / 2, 0.0, w, 0.0),
                               IntegratorSettings(t0=0.0, t1=2.0, h=1e-3))
    assert compare_point_sets(tr, lc) < 1e-6


def test_compare_point_sets_identical_and_sensitivity(suite_ctx):
    tr = suite_ctx.trace("sphere-loxodrome-45").sub_interval(0.0, 2.0)
    assert compare_point_sets(tr, tr) == 0.0
    rt = build_runtime("sphere")
    control = _conformal_pair_distance(rt, tr, 5.0, perturb_angle=0.1)
    assert control > 1e-2


def _compare_point_sets_with_a_3d_temporary(a, b) -> float:
    """compare_point_sets as it was with the (512, 512, 2) difference
    array summed over its last axis, kept as the bitwise oracle."""
    length = min(chordal_lengths(a)[-1], chordal_lengths(b)[-1])
    ra = resample_by_arclength(a, 512, length)
    rb = resample_by_arclength(b, 512, length)
    d2 = ((ra[:, None, :] - rb[None, :, :]) ** 2).sum(axis=2)
    forward = np.sqrt(d2.min(axis=1)).max()
    backward = np.sqrt(d2.min(axis=0)).max()
    return float(max(forward, backward))


_COORDINATES = st.one_of(st.floats(-10.0, 10.0), st.floats())  # st.floats() includes inf and NaN


@given(st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=2, max_size=30),
       st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=2, max_size=30))
@hsettings(max_examples=200, deadline=None)
def test_compare_point_sets_equals_the_3d_temporary_bitwise(a, b):
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    with np.errstate(all="ignore"):
        got = compare_point_sets(a, b)
        want = _compare_point_sets_with_a_3d_temporary(a, b)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_compare_point_sets_needs_two_samples():
    with pytest.raises(ValueError):
        compare_point_sets(np.zeros((1, 2)), np.zeros((4, 2)))


def test_resample_by_arclength_even_spacing():
    pts = np.column_stack([np.linspace(0, 1, 50) ** 2, np.zeros(50)])
    res = resample_by_arclength(pts, 11)
    assert np.allclose(np.diff(res[:, 0]), 0.1, atol=1e-12)
    assert chordal_lengths(res)[-1] == pytest.approx(1.0, abs=1e-12)


def test_gradient_scenarios_match_conformal_geodesics(suite_ctx):
    # pseudosphere case: the two independent integrations are each
    # other's oracle
    tr = suite_ctx.custom_trace(
        Scenario("pseudosphere-lox-45-short", "pseudosphere", (1.0, 0.0),
                 angle=math.pi / 4, span=(0.0, 1.5)))
    rt = build_runtime("pseudosphere")
    assert _conformal_pair_distance(rt, tr, 9.0) < 1e-4
