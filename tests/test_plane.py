import functools
import math
import shutil
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geometry_checks import constant_field
from torsiongeo import native, plane
from torsiongeo.geometry import euclidean_plane
from torsiongeo.integrate import (RK4, GeodesicState, IntegratorSettings, integrate,
                                  integrate_two_sided)
from torsiongeo.plane import (arcsin_invariant, flat_invariant, plane_curvature,
                              shear_field, shooting_sweep, strip_bounds,
                              strip_quadrature, winding_field)
from torsiongeo.scenarios import CATALOG, run_scenario

C_DIAG = 0.5 - math.pi / 4.0  # launch invariant of the (1,1)/sqrt(2) scenario
UPPER_DIAG = math.sqrt(2.0 * (C_DIAG + math.pi))


def test_potentials_generate_components(rng):
    for pf in (winding_field(), shear_field(), constant_field(0.3, -1.2)):
        p = pf.flat_potential
        for _ in range(20):
            x, y = rng.normal(size=2) * 2.0
            hx = 1e-6 * max(1.0, abs(x))
            hy = 1e-6 * max(1.0, abs(y))
            dyp = (p(x, y + hy) - p(x, y - hy)) / (2 * hy)
            dxp = (p(x + hx, y) - p(x - hx, y)) / (2 * hx)
            f, g = pf.components(x, y)
            assert f == pytest.approx(dyp, abs=1e-8)
            assert g == pytest.approx(-dxp, abs=1e-8)


def test_flat_fields_have_zero_curvature_density(rng):
    # the curvature form's coefficient -(d_x f + d_y g), by central differences
    for pf in (winding_field(), shear_field()):
        for _ in range(20):
            x, y = rng.normal(size=2) * 3.0
            hx = 1e-6 * max(1.0, abs(x))
            hy = 1e-6 * max(1.0, abs(y))
            dfx = (pf.components(x + hx, y)[0] - pf.components(x - hx, y)[0]) / (2.0 * hx)
            dgy = (pf.components(x, y + hy)[1] - pf.components(x, y - hy)[1]) / (2.0 * hy)
            assert abs(dfx + dgy) < 1e-8


def test_plane_curvature_examples(rng):
    wind = winding_field()
    assert plane_curvature(wind, (0.0, 2.0, 1.0, 0.0)) == 0.0
    shear = shear_field()
    for _ in range(20):
        y, dy = rng.normal(size=2)
        assert plane_curvature(shear, (0.0, y, 0.5, dy)) == pytest.approx(y * dy)
    # winding: kappa = -(x x' + y y'), minus half the derivative of the
    # squared distance to the origin
    for _ in range(100):
        x, y = rng.normal(size=2) * 2.0
        ang = rng.uniform(0, 2 * math.pi)
        dx, dy = math.cos(ang), math.sin(ang)
        assert plane_curvature(wind, (x, y, dx, dy)) == pytest.approx(
            -(x * dx + y * dy), abs=1e-12)


def test_flat_invariant_zero_field_constant_velocity():
    chart = euclidean_plane()
    field = constant_field(0.0, 0.0)
    tr = integrate(chart, field, GeodesicState(0.0, 0.0, 0.0, 0.6, 0.8),
                   IntegratorSettings(t0=0.0, t1=2.0, h=1e-3))
    rep = flat_invariant(tr)
    assert rep.max_dev < 1e-14


def test_flat_invariant_winding_through_origin(winding_trace):
    rep = flat_invariant(winding_trace)
    assert rep.max_dev < 1e-6
    assert abs(abs(rep.values[0]) - 1.0) < 1e-12  # |z0| = E = 1
    assert rep.passed


def test_flat_invariant_shear(shear_trace):
    rep = flat_invariant(shear_trace.sub_interval(-10.0, 10.0))
    assert rep.max_dev < 1e-6


def test_potential_time_derivative_equals_curvature(winding_trace, shear_trace):
    # along a flat-field geodesic d/dt p(gamma(t)) = kappa(t)
    from torsiongeo.audit import interior_slice, series_derivative

    for tr in (winding_trace.sub_interval(-5.0, 5.0), shear_trace.sub_interval(-5.0, 5.0)):
        p = tr.field.flat_potential
        series = np.array([p(x, y) for x, y in zip(tr.u, tr.v)])
        dp = series_derivative(tr.t, series)
        kappa = np.array([
            plane_curvature(tr.field, (tr.u[i], tr.v[i], tr.du[i], tr.dv[i]))
            for i in range(len(tr))
        ])
        core = interior_slice(len(tr))
        assert np.max(np.abs(dp[core] - kappa[core])) < 1e-6


def test_flat_invariant_requires_potential(shear_trace):
    from dataclasses import replace

    from torsiongeo.geometry import VectorFieldSpec

    stripped = replace(shear_trace, field=VectorFieldSpec(
        name="shear-no-p", components=shear_trace.field.components))
    with pytest.raises(ValueError):
        flat_invariant(stripped)


def test_horizontal_line_is_geodesic_with_degenerate_strip():
    chart = euclidean_plane()
    field = shear_field()
    tr = integrate(chart, field, GeodesicState(0.0, 0.0, 2.0, 1.0, 0.0),
                   IntegratorSettings(t0=0.0, t1=5.0, h=1e-3))
    # (a t + b, y0) solves the equations
    assert np.max(np.abs(tr.v - 2.0)) < 1e-12
    assert np.max(np.abs(tr.u - tr.t)) < 1e-12
    sb = strip_bounds(2.0, 0.0, 1.0)
    assert sb.degenerate
    assert sb.lower == sb.upper == 2.0
    # the launch height is a singular level of the quadrature
    with pytest.raises(ValueError):
        strip_quadrature(2.0, 2.5, sb)
    rep = arcsin_invariant(tr)
    assert rep.std == 0.0


def test_arcsin_invariant_diagonal_scenario(shear_trace):
    rep = arcsin_invariant(shear_trace)
    assert rep.passed
    assert rep.std < 1e-6
    # the launch turns through x' = 0, and one constant holds on both sides
    assert np.min(shear_trace.du) < 0.0 < np.max(shear_trace.du)
    assert rep.values[shear_trace.index_at(0.0)] == pytest.approx(C_DIAG, abs=1e-12)


def test_arcsin_invariant_steep_scenario():
    tr = run_scenario(CATALOG["plane-shear-steep"])
    rep = arcsin_invariant(tr)
    assert rep.passed
    i0 = tr.index_at(0.0)
    assert rep.values[i0] == pytest.approx(strip_bounds(1.0, tr.dv[i0], tr.du[i0]).c,
                                           abs=1e-12)


def test_arcsin_invariant_requires_unit_speed(shear_trace):
    from dataclasses import replace

    bad = replace(shear_trace, E=2.0)
    with pytest.raises(ValueError):
        arcsin_invariant(bad)


def test_arcsin_invariant_holds_on_random_shear_launches():
    """y^2/2 - theta is one constant on random launches over |t| <= 10.

    The report presumes a unit-speed trace, so runs that lose unit speed
    are discarded.  They exist: the RHS holds E^2 at its launch value, so a speed error grows
    like exp(2 * integral of g(V, v) dt), and a launch that lingers by a
    repelling level, nearly horizontal at large |y0|, reaches speed 3 by
    t = 10 (y0 = 2.5 at angle -1e-10).  Over 2300 random and nearly
    horizontal launches, the runs kept read a std of at most 1.6e-7.

    The example is the launch where the branch form
    sign(x') y^2/2 - arcsin(y') read std 7.8e-6, at a speed drift of
    8.6e-8: arcsin magnifies the error in y' by 1/|x'|.
    """
    from hypothesis import assume, example, given, settings as hsettings, strategies as st

    chart, field = euclidean_plane(), shear_field()

    @given(st.floats(-2.5, 2.5), st.floats(0.0, 2.0 * math.pi, exclude_max=True),
           st.sampled_from(["rk4", "rk45"]))
    @example(0.5626980213651538, 0.2760957787909324, "rk45")
    @hsettings(max_examples=30)
    def run(y0, angle, method):
        launch = GeodesicState(0.0, 0.0, y0, math.cos(angle), math.sin(angle))
        tr = integrate_two_sided(chart, field, launch, -10.0, 10.0, h=1e-2, method=method)
        assume(tr.max_speed_drift() < 1e-7)
        rep = arcsin_invariant(tr)
        assert rep.passed, rep.std

    run()


def test_strip_bounds_diagonal_scenario():
    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    assert sb.c == pytest.approx(C_DIAG, abs=1e-15)
    assert sb.upper == pytest.approx(UPPER_DIAG, abs=1e-14)
    assert sb.lower == pytest.approx(-UPPER_DIAG, abs=1e-14)
    # bounds are singular levels of the integrand
    for level in (sb.lower, sb.upper):
        assert abs(math.sin(0.5 * level ** 2 - sb.c)) < 1e-10


def test_strip_bounds_steep_scenario():
    n = math.hypot(-1.0, 0.5)
    sb = strip_bounds(1.0, 0.5 / n, -1.0 / n)
    assert sb.c == pytest.approx(0.5 - math.atan2(0.5, -1.0), abs=1e-15)
    expect = math.sqrt(2.0 * (sb.c + math.pi))
    assert sb.upper == pytest.approx(expect, abs=1e-12)
    assert sb.lower == pytest.approx(-expect, abs=1e-12)
    assert 1.0 < sb.upper < 1.5


def test_strip_confinement(shear_trace):
    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    assert np.max(np.abs(shear_trace.v)) < sb.upper + 1e-6


def test_strip_quadrature_zero_and_trace_agreement(shear_trace):
    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    assert strip_quadrature(1.0, 1.0, sb).t == 0.0
    fwd = shear_trace.sub_interval(0.0, 20.0)
    j = int(np.searchsorted(fwd.v, 2.0))
    t_star = fwd.t[j - 1] + (2.0 - fwd.v[j - 1]) / (fwd.v[j] - fwd.v[j - 1]) * (
        fwd.t[j] - fwd.t[j - 1])
    out = strip_quadrature(1.0, 2.0, sb)
    assert not out.diverged
    assert out.t == pytest.approx(t_star, abs=1e-4)


def test_strip_quadrature_backward_time(shear_trace):
    # descending targets give the (negative) time of the backward branch
    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    back = shear_trace.sub_interval(-20.0, 0.0)
    v, t = back.v, back.t
    j = int(np.where((v[:-1] <= 0.5) & (v[1:] > 0.5))[0][-1])
    t_star = t[j] + (0.5 - v[j]) / (v[j + 1] - v[j]) * (t[j + 1] - t[j])
    out = strip_quadrature(1.0, 0.5, sb)
    assert not out.diverged
    assert out.t == pytest.approx(t_star, abs=1e-4)
    assert out.t < 0.0


def test_strip_quadrature_diverges_at_bound():
    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    # elapsed time grows without bound as the target approaches the level
    gaps = [10 ** -k for k in range(2, 7)]
    times = [strip_quadrature(1.0, sb.upper - g, sb).t for g in gaps]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    at_bound = strip_quadrature(1.0, sb.upper, sb)
    assert at_bound.diverged
    assert at_bound.t > 1e3


def test_strip_quadrature_rejects_interior_singularity():
    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    with pytest.raises(ValueError):
        strip_quadrature(1.0, sb.upper + 0.5, sb)


def test_strip_bounds_bracket_and_are_levels_for_random_launches():
    from hypothesis import given, settings as hsettings, strategies as st

    @given(st.floats(-3.0, 3.0), st.floats(0.02, math.pi - 0.02))
    @hsettings(max_examples=200)
    def run(y0, angle):
        dy0 = math.sin(angle)
        dx0 = math.cos(angle)
        sb = strip_bounds(y0, dy0, dx0)
        assert sb.lower < y0 < sb.upper
        for level in (sb.lower, sb.upper):
            assert abs(math.sin(0.5 * level ** 2 - sb.c)) < 1e-9

    run()


@given(st.floats(3.0, 1e3), st.booleans(), st.floats(-math.pi, math.pi))
@example(50.0, False, math.atan2(0.6, 0.8))
@settings(max_examples=200)
def test_strip_bounds_of_high_launches_are_the_neighbouring_levels(height, below, angle):
    # the launch sits on the level y^2 = y0^2 + 2 (k pi - theta0) at
    # k = theta0 / pi; its neighbours are the levels at floor(theta0 / pi)
    # and the next k, mirrored for a launch below the axis
    y0 = -height if below else height
    dx0, dy0 = math.cos(angle), math.sin(angle)
    assume(abs(dy0) > 1e-6)
    theta0 = math.atan2(dy0, dx0)
    k = math.floor(theta0 / math.pi)
    near, far = (math.sqrt(y0 * y0 + 2.0 * (j * math.pi - theta0)) for j in (k, k + 1))
    sb = strip_bounds(y0, dy0, dx0)
    lower, upper = (-far, -near) if below else (near, far)
    assert sb.lower == pytest.approx(lower, rel=1e-12)
    assert sb.upper == pytest.approx(upper, rel=1e-12)
    assert sb.lower < y0 < sb.upper


@pytest.mark.parametrize("y0, dy0, dx0", [
    (math.nan, 0.6, 0.8), (math.inf, 0.6, 0.8), (1.0, math.nan, 0.8), (1.0, 0.6, math.nan),
    (1e200, 0.6, 0.8),  # y0^2 / 2 overflows
    (1.5e154, 0.6, 0.8),  # c is finite, 2 (c + k pi) is not
])
def test_strip_bounds_reject_non_finite_launches_and_levels(y0, dy0, dx0):
    with pytest.raises(ValueError):
        strip_bounds(y0, dy0, dx0)


@pytest.mark.parametrize("y0, dy0, dx0, lower, upper", [
    # y' = sin(pi) = 1.2e-16: the level sqrt(2(c + pi)) = 1 + 1e-16 rounds onto y0
    (1.0, math.sin(math.pi), math.cos(math.pi), -1.0, 1.0),
    (-1.0, math.sin(math.pi), math.cos(math.pi), -1.0, 1.0),
    # y' = -1.2e-16: the level rounds onto y0 again, and lies below it
    (1.0, -math.sin(math.pi), math.cos(math.pi), 1.0, 2.698737724785346),
])
def test_strip_bounds_keep_a_level_that_rounds_onto_the_launch_height(y0, dy0, dx0,
                                                                       lower, upper):
    sb = strip_bounds(y0, dy0, dx0)
    assert (sb.lower, sb.upper) == (lower, upper)


def test_shooting_sweep_stays_out_of_disjoint_strip():
    sweep = shooting_sweep(origin=(1.0, 1.0), n_angles=36, t_max=5.0, h=2e-3)
    assert sweep.y_max.shape == (36,)
    target = strip_bounds(3.5, math.sqrt(0.5), math.sqrt(0.5))
    assert float(np.max(sweep.y_max)) < target.lower
    # analytic ceiling: no launch from height 1 can clear sqrt(2(1/2 + pi))
    assert float(np.max(sweep.y_max)) < math.sqrt(2.0 * (0.5 + math.pi))


def test_sweep_matches_direct_integration():
    sweep = shooting_sweep(origin=(1.0, 1.0), n_angles=8, t_max=3.0, h=1e-3,
                           both_directions=False)
    chart = euclidean_plane()
    field = shear_field()
    j = 1  # angle 2 pi / 8
    ang = sweep.angles[j]
    tr = integrate(chart, field,
                   GeodesicState(0.0, 1.0, 1.0, math.cos(ang), math.sin(ang)),
                   IntegratorSettings(t0=0.0, t1=3.0, h=1e-3))
    assert sweep.y_max[j] == pytest.approx(float(np.max(tr.v)), abs=1e-9)
    assert sweep.y_min[j] == pytest.approx(float(np.min(tr.v)), abs=1e-9)


def test_two_sided_sweep_matches_two_sided_integration():
    sweep = shooting_sweep(origin=(1.0, 1.0), n_angles=8, t_max=3.0, h=1e-3)
    chart = euclidean_plane()
    field = shear_field()
    for j in (1, 2, 3, 5, 6, 7):
        ang = sweep.angles[j]
        tr = integrate_two_sided(chart, field,
                                 GeodesicState(0.0, 1.0, 1.0, math.cos(ang), math.sin(ang)),
                                 -3.0, 3.0, h=1e-3)
        assert sweep.y_max[j] == pytest.approx(float(np.max(tr.v)), abs=1e-9)
        assert sweep.y_min[j] == pytest.approx(float(np.min(tr.v)), abs=1e-9)


def _hand_written_sweep(origin, n_angles, t_max, h, both_directions):
    """The sweep's former batched RK4 loop, kept as the bitwise oracle.  Its
    lanes never meet, so a forward-only sweep is the first ``n_angles``
    lanes of the sweep in both directions, before the halves merge."""
    y_lo, y_hi = _hand_written_lanes(tuple(origin), n_angles, t_max, h)
    if both_directions:
        return (np.minimum(y_lo[:n_angles], y_lo[n_angles:]),
                np.maximum(y_hi[:n_angles], y_hi[n_angles:]))
    return y_lo[:n_angles], y_hi[:n_angles]


@functools.cache
def _hand_written_lanes(origin, n_angles, t_max, h):
    """The extreme heights of each lane of the loop, the forward lanes then
    the backward ones; cached, as a sweep's two directions share them."""
    angles = 2.0 * math.pi * np.arange(n_angles) / n_angles
    dx = np.concatenate([np.cos(angles), -np.cos(angles)])
    dy = np.concatenate([np.sin(angles), -np.sin(angles)])
    x = np.full(len(dx), float(origin[0]))
    y = np.full(len(dx), float(origin[1]))
    y_lo = y.copy()
    y_hi = y.copy()

    def rhs(x, y, dx, dy):
        f = y + 0.0 * x
        g = 0.0 * x + 0.0 * x
        gv = f * dx + g * dy
        return dx, dy, -f + gv * dx, -g + gv * dy

    for _ in range(int(round(t_max / h))):
        k1 = rhs(x, y, dx, dy)
        k2 = rhs(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1],
                 dx + 0.5 * h * k1[2], dy + 0.5 * h * k1[3])
        k3 = rhs(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1],
                 dx + 0.5 * h * k2[2], dy + 0.5 * h * k2[3])
        k4 = rhs(x + h * k3[0], y + h * k3[1],
                 dx + h * k3[2], dy + h * k3[3])
        x = x + h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        y = y + h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        dx = dx + h * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0
        dy = dy + h * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]) / 6.0
        np.minimum(y_lo, y, out=y_lo)
        np.maximum(y_hi, y, out=y_hi)
    return y_lo, y_hi


@pytest.mark.parametrize("origin, n_angles, t_max", [
    pytest.param((1.0, 1.0), 64, 20.0, id="origin0-64"),
    pytest.param((1.0, 1.0), 65, 20.0, id="origin1-65"),
    pytest.param((0.3, -2.0), 37, 20.0, id="origin2-37"),
    # the suite's lane count for a tenth of its span, long enough to see
    # a stage coefficient one ulp off
    pytest.param((1.0, 1.0), 720, 5.0, id="origin0-720")])
@pytest.mark.parametrize("both_directions", [True, False])
def test_sweep_matches_hand_written_rk4_bitwise(origin, n_angles, t_max, both_directions):
    sweep = shooting_sweep(origin=origin, n_angles=n_angles, t_max=t_max, h=2e-3,
                           both_directions=both_directions)
    y_lo, y_hi = _hand_written_sweep(origin, n_angles, t_max, 2e-3, both_directions)
    assert sweep.y_min.tobytes() == y_lo.tobytes()
    assert sweep.y_max.tobytes() == y_hi.tobytes()


@pytest.mark.parametrize("bad", [{"h": -1e-3}, {"h": 0.0}, {"h": math.nan}, {"h": math.inf},
                                 {"n_angles": 0}, {"n_angles": -3}, {"n_angles": 2.5},
                                 {"n_angles": True}, {"t_max": math.inf}, {"t_max": -1.0},
                                 {"t_max": math.nan}, {"t_max": 1e300, "h": 1e-10},
                                 # a step count past the kernel's 64-bit counter
                                 {"t_max": 1e300, "h": 1.0}, {"t_max": 2.0 ** 63, "h": 1.0},
                                 {"origin": (0.0, math.nan)}, {"origin": (0.0, math.inf)},
                                 {"origin": (0.0, -math.inf)}, {"origin": (math.nan, 1.0)}])
def test_sweep_rejects_bad_inputs(bad):
    with pytest.raises(ValueError):
        shooting_sweep(**bad)


def _sweep_bytes(sweep):
    return sweep.y_min.tobytes(), sweep.y_max.tobytes()


@given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.integers(1, 40),
       st.floats(0.0, 0.5), st.floats(1e-3, 1e-1), st.booleans())
@example(0.0, 0.0, 7, 0.3, 1e-2, True)
@example(0.0, -0.0, 8, 0.3, 1e-2, False)
# the 0 and pi lanes stay at a height of zero, whose sign the x terms decide
@example(0.0, -0.0, 1, 0.5, 0.0625, True)
# a lane whose x overflows while its height is still finite
@example(4.0, 8.827037490723354, 29, 1.8210118514595248, 0.26832482305084654, False)
# a blow-up: 12 of the 32 heights end non-finite
@example(0.0, 8.0, 16, 2.0, 0.3, True)
@settings(max_examples=25)
def test_compiled_kernel_fallback_and_hand_written_loop_agree_bitwise(x0, y0, n_angles, t_max,
                                                                       h, both_directions):
    kwargs = dict(origin=(x0, y0), n_angles=n_angles, t_max=t_max, h=h,
                  both_directions=both_directions)
    with np.errstate(all="ignore"):
        compiled = shooting_sweep(**kwargs)
        with mock.patch.object(plane, "_sweep_kernel", lambda: None):
            fallback = shooting_sweep(**kwargs)
        oracle = _hand_written_sweep((x0, y0), n_angles, t_max, h, both_directions)
    assert fallback.kernel == "numpy"
    assert _sweep_bytes(compiled) == _sweep_bytes(fallback)
    assert _sweep_bytes(compiled) == tuple(a.tobytes() for a in oracle)


def test_blow_up_example_has_non_finite_lanes():
    with np.errstate(all="ignore"):
        sweep = shooting_sweep(origin=(0.0, 8.0), n_angles=16, t_max=2.0, h=0.3)
    heights = np.concatenate([sweep.y_min, sweep.y_max])
    assert np.count_nonzero(~np.isfinite(heights)) == 12


@pytest.mark.parametrize("broken", ["no cc on the path", "source that does not compile"])
def test_sweep_falls_back_to_numpy_without_a_kernel(monkeypatch, broken):
    compiled = shooting_sweep(origin=(0.3, -0.7), n_angles=9, t_max=1.0, h=1e-2)
    # a fresh loader and an uncached build, so the process's compiled kernel
    # stays cached
    monkeypatch.setattr(plane, "_sweep_kernel", functools.cache(plane._sweep_kernel.__wrapped__))
    monkeypatch.setattr(native, "build", native.build.__wrapped__)
    if broken == "no cc on the path":
        monkeypatch.setenv("PATH", "")
    else:
        monkeypatch.setattr(native, "lanes_source", lambda text: "not C\n")
    assert plane._sweep_kernel() is None
    fallback = shooting_sweep(origin=(0.3, -0.7), n_angles=9, t_max=1.0, h=1e-2)
    assert fallback.kernel == "numpy"
    assert _sweep_bytes(fallback) == _sweep_bytes(compiled)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on the path")
def test_sweep_runs_the_compiled_kernel_where_cc_exists():
    # a broken build would fall back silently and lose the kernel's speed
    assert shooting_sweep(n_angles=4, t_max=0.1).kernel == "c"


@pytest.mark.parametrize("n_angles", [1, 7, 8, 9, 15, 17, 33, 1440])
@pytest.mark.parametrize("both_directions", [True, False])
def test_compiled_sweep_equals_the_array_blocks_at_every_remainder(n_angles, both_directions):
    # a 512-bit loop steps 8 lanes at once and the rest in its epilogue; the
    # batch holds n_angles lanes, or twice that with both directions
    kwargs = dict(origin=(0.3, -0.7), n_angles=n_angles, t_max=1.0, h=1e-2,
                  both_directions=both_directions)
    compiled = shooting_sweep(**kwargs)
    with mock.patch.object(plane, "_sweep_kernel", lambda: None):
        fallback = shooting_sweep(**kwargs)
    assert compiled.kernel == ("c" if shutil.which("cc") else "numpy")
    assert fallback.kernel == "numpy"
    assert _sweep_bytes(compiled) == _sweep_bytes(fallback)


def _on_cpus(count, pins=None):
    """Patch the set of CPUs the process may use to ``count`` of them, and
    record each thread's pin in ``pins`` in place of setting it."""
    record = (pins if pins is not None else []).append
    return mock.patch.multiple(
        native.os, sched_getaffinity=lambda pid: set(range(count)),
        sched_setaffinity=lambda pid, cpus: record((threading.get_ident(), set(cpus))))


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        _CountedThread.started += 1
        super().start()


@pytest.mark.parametrize("n_angles", [1, 7, 8, 9, 15, 17, 33, 1440])
@pytest.mark.parametrize("both_directions", [True, False])
def test_split_sweep_equals_one_block_and_the_array_blocks(n_angles, both_directions):
    # lanes never meet, so each lane's bits cannot depend on the split
    kwargs = dict(origin=(0.3, -0.7), n_angles=n_angles, t_max=1.0, h=1e-2,
                  both_directions=both_directions)
    lanes = n_angles * (2 if both_directions else 1)
    with _on_cpus(1):
        one = shooting_sweep(**kwargs)
    with mock.patch.object(plane, "_sweep_kernel", lambda: None):
        fallback = shooting_sweep(**kwargs)
    assert one.blocks == 1
    assert fallback.blocks == 1
    assert _sweep_bytes(one) == _sweep_bytes(fallback)
    for cpus in (2, 3, 4):
        _CountedThread.started = 0
        with _on_cpus(cpus), mock.patch.object(native.threading, "Thread", _CountedThread):
            split = shooting_sweep(**kwargs)
        blocks = min(cpus, -(-lanes // 8)) if split.kernel == "c" else 1
        assert split.blocks == blocks
        assert _CountedThread.started == blocks - 1
        assert _sweep_bytes(split) == _sweep_bytes(one)


def test_more_blocks_than_cores_at_a_short_switch_interval_keep_the_bits():
    kwargs = dict(origin=(0.3, -0.7), n_angles=720, t_max=0.5)
    with _on_cpus(1):
        one = shooting_sweep(**kwargs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _on_cpus(16):
            split = shooting_sweep(**kwargs)
    finally:
        sys.setswitchinterval(interval)
    assert split.blocks == (16 if split.kernel == "c" else 1)
    assert _sweep_bytes(split) == _sweep_bytes(one)


def test_one_cpu_starts_no_thread():
    with _on_cpus(1), mock.patch.object(native.threading, "Thread",
                                        side_effect=AssertionError("a thread started")):
        sweep = shooting_sweep(n_angles=720, t_max=0.5)
    assert sweep.blocks == 1


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 31, 64, 1440])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 64])
def test_lane_blocks_tile_the_lanes_in_whole_vectors(n, cpus):
    calls = []
    with _on_cpus(cpus):
        count = native.in_blocks(lambda lo, hi: calls.append((lo, hi)), n)
    calls.sort()
    assert count == len(calls) == max(1, min(cpus, -(-n // 8)))
    assert [lo for lo, _ in calls] == [0] + [hi for _, hi in calls[:-1]]
    assert calls[-1][1] == n
    assert all(lo % 8 == 0 and (lo < hi or n == 0) for lo, hi in calls)


def test_blocks_fall_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(native.os, "sched_getaffinity")
    monkeypatch.setattr(native.os, "cpu_count", lambda: 3)
    assert native.in_blocks(lambda lo, hi: None, 1440) == 3
    monkeypatch.setattr(native.os, "cpu_count", lambda: None)
    assert native.in_blocks(lambda lo, hi: None, 1440) == 1


def test_each_block_runs_on_its_own_cpu_and_the_caller_gets_its_cpus_back():
    pins = []
    with mock.patch.multiple(
            native.os, sched_getaffinity=lambda pid: {9, 3, 5},
            sched_setaffinity=lambda pid, cpus: pins.append((threading.get_ident(), set(cpus)))):
        assert native.in_blocks(lambda lo, hi: None, 1440) == 3
    caller = threading.get_ident()
    assert [cpus for thread, cpus in pins if thread == caller] == [{3}, {3, 5, 9}]
    assert sorted(cpus for thread, cpus in pins if thread != caller) == [{5}, {9}]
    pins.clear()
    with _on_cpus(1, pins):
        assert native.in_blocks(lambda lo, hi: None, 1440) == 1
    assert pins == []


@pytest.mark.parametrize("raising", ["worker", "caller"])
def test_a_raising_block_raises_from_the_sweep_and_leaves_no_thread(raising):
    kernel = plane._sweep_kernel() or pytest.skip("no compiled kernel")

    def flaky(n, *args):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (raising == "caller"):
            raise RuntimeError(f"{raising} block failed")
        kernel(n, *args)

    before = threading.active_count()
    with _on_cpus(4), mock.patch.object(plane, "_sweep_kernel", lambda: flaky):
        with pytest.raises(RuntimeError, match=f"{raising} block failed"):
            shooting_sweep(n_angles=720, t_max=0.5)
    assert threading.active_count() == before


def test_the_sweep_asks_for_512_bit_vectors_only_under_gcc_on_x86_64():
    lines = native.lanes_source(RK4.emit(plane._shear_stage)).splitlines()
    wide = [i for i, line in enumerate(lines) if "prefer-vector-width" in line]
    assert len(wide) == 1
    i = wide[0]
    assert lines[i - 1:i + 2] == [
        "#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)",
        '__attribute__((target("prefer-vector-width=512")))',
        "#endif"]
    assert lines[i + 2].startswith("void lanes(")
    # a break or a volatile store in the lane loop would keep it scalar
    assert not any("break" in line for line in lines)
    assert not any("sink_" in line for line in lines)


@given(st.floats(-4.0, 4.0), st.floats(-3.0, 3.0), st.integers(1, 64), st.floats(0.0, 5.0))
@settings(max_examples=50)
def test_every_sweep_launch_stays_in_its_own_strip(x0, y0, n_angles, t_max):
    # c7 measures 2.9e-11 over and 3.9e-12 under the levels; 1e-3 is its bound
    sweep = shooting_sweep(origin=(x0, y0), n_angles=n_angles, t_max=t_max, h=2e-3)
    for a, lo, hi in zip(sweep.angles, sweep.y_min, sweep.y_max):
        own = strip_bounds(y0, math.sin(a), math.cos(a))
        assert own.lower - 1e-3 < lo <= y0 <= hi < own.upper + 1e-3
