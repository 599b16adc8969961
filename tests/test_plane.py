import math

import numpy as np
import pytest

from torsiongeo.geometry import euclidean_plane
from torsiongeo.integrate import GeodesicState, IntegratorSettings, integrate, integrate_two_sided
from torsiongeo.plane import (BRANCH_SPLIT_TOL, arcsin_invariant,
                              constant_field, flat_invariant, plane_curvature,
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
        strip_quadrature(2.0, 2.5, sb.c, sb.sign)
    rep = arcsin_invariant(tr)
    assert rep.std == 0.0
    assert all(seg.std == 0.0 for seg in rep.segments)


def test_arcsin_invariant_diagonal_scenario(shear_trace):
    rep = arcsin_invariant(shear_trace)
    assert rep.passed
    assert rep.std < 1e-6
    # the diagonal launch crosses x' = 0, so several branch segments exist
    assert len(rep.segments) >= 2
    signs = {seg.sign for seg in rep.segments}
    assert signs == {-1, 1}
    # launch value of the invariant
    i0 = shear_trace.index_at(0.0)
    c0 = 0.5 * shear_trace.v[i0] ** 2 - math.asin(shear_trace.dv[i0])
    assert c0 == pytest.approx(C_DIAG, abs=1e-12)


def test_arcsin_invariant_steep_scenario_single_branch():
    tr = run_scenario(CATALOG["plane-shear-steep"])
    rep = arcsin_invariant(tr)
    assert rep.passed
    assert len(rep.segments) == 1
    assert rep.segments[0].sign == -1


def _segments_by_sample_loop(values, dx):
    """The former per-sample scan for branch segments, kept as the oracle."""
    live = np.abs(dx) >= BRANCH_SPLIT_TOL
    signs = np.sign(dx)
    segments = []
    start = None
    for i in range(len(dx) + 1):
        boundary = i == len(dx) or not live[i] or (start is not None and signs[i] != signs[start])
        if start is None:
            if i < len(dx) and live[i]:
                start = i
            continue
        if boundary:
            seg = values[start:i]
            segments.append((start, i, int(signs[start]), float(np.mean(seg)),
                             float(np.std(seg)), float(np.max(np.abs(seg - seg[0])))))
            start = i if (i < len(dx) and live[i]) else None
    return segments


def test_arcsin_segments_equal_the_sample_loop(shear_trace):
    from dataclasses import replace

    from hypothesis import example, given, settings as hsettings, strategies as st

    small = st.floats(-BRANCH_SPLIT_TOL, BRANCH_SPLIT_TOL, exclude_min=True, exclude_max=True)
    dx_value = st.one_of(st.floats(-1.0, 1.0), small, st.just(math.nan),
                         st.just(0.0), st.just(-0.0), st.sampled_from([-1.0, 1.0]))

    @given(st.lists(dx_value, max_size=60), st.integers(0, 2 ** 32 - 1))
    @example([], 0)
    @hsettings(max_examples=300, deadline=None)
    def run(dx_list, seed):
        n = len(dx_list)
        rng = np.random.default_rng(seed)
        dx = np.array(dx_list, dtype=float)
        tr = replace(shear_trace, t=np.arange(n, dtype=float), u=np.zeros(n),
                     v=rng.normal(size=n), du=dx, dv=rng.uniform(-1.0, 1.0, size=n))
        rep = arcsin_invariant(tr)
        live = np.abs(dx) >= BRANCH_SPLIT_TOL
        values = np.full(n, np.nan)
        values[live] = np.sign(dx)[live] * 0.5 * tr.v[live] ** 2 - np.arcsin(tr.dv[live])
        assert rep.values.tobytes() == values.tobytes()
        got = [(s.start, s.stop, s.sign, s.mean, s.std, s.max_dev) for s in rep.segments]
        want = _segments_by_sample_loop(rep.values, dx)
        assert [s[:3] for s in got] == [s[:3] for s in want]
        assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()

    run()


def test_arcsin_invariant_rejects_superluminal_series(shear_trace):
    from dataclasses import replace

    bad = replace(shear_trace, dv=shear_trace.dv * 1.5)
    with pytest.raises(ValueError):
        arcsin_invariant(bad)


def test_arcsin_invariant_requires_unit_speed(shear_trace):
    from dataclasses import replace

    bad = replace(shear_trace, E=2.0)
    with pytest.raises(ValueError):
        arcsin_invariant(bad)


def test_strip_bounds_diagonal_scenario():
    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    assert sb.sign == 1
    assert sb.c == pytest.approx(C_DIAG, abs=1e-15)
    assert sb.upper == pytest.approx(UPPER_DIAG, abs=1e-14)
    assert sb.lower == pytest.approx(-UPPER_DIAG, abs=1e-14)
    # bounds are singular levels of the integrand
    for level in (sb.lower, sb.upper):
        assert abs(math.sin(sb.sign * 0.5 * level ** 2 - sb.c)) < 1e-10


def test_strip_bounds_steep_scenario():
    n = math.hypot(-1.0, 0.5)
    sb = strip_bounds(1.0, 0.5 / n, -1.0 / n)
    assert sb.sign == -1
    expect = math.sqrt(2.0 * (-sb.c))
    assert sb.upper == pytest.approx(expect, abs=1e-12)
    assert sb.lower == pytest.approx(-expect, abs=1e-12)
    assert 1.0 < sb.upper < 1.5


def test_strip_confinement(shear_trace):
    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    assert np.max(np.abs(shear_trace.v)) < sb.upper + 1e-6


def test_strip_quadrature_zero_and_trace_agreement(shear_trace):
    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    assert strip_quadrature(1.0, 1.0, sb.c, sb.sign).t == 0.0
    fwd = shear_trace.sub_interval(0.0, 20.0)
    j = int(np.searchsorted(fwd.v, 2.0))
    t_star = fwd.t[j - 1] + (2.0 - fwd.v[j - 1]) / (fwd.v[j] - fwd.v[j - 1]) * (
        fwd.t[j] - fwd.t[j - 1])
    out = strip_quadrature(1.0, 2.0, sb.c, sb.sign)
    assert not out.diverged
    assert out.t == pytest.approx(t_star, abs=1e-4)


def test_strip_quadrature_backward_time(shear_trace):
    # descending targets give the (negative) time of the backward branch
    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    back = shear_trace.sub_interval(-20.0, 0.0)
    v, t = back.v, back.t
    j = int(np.where((v[:-1] <= 0.5) & (v[1:] > 0.5))[0][-1])
    t_star = t[j] + (0.5 - v[j]) / (v[j + 1] - v[j]) * (t[j + 1] - t[j])
    out = strip_quadrature(1.0, 0.5, sb.c, sb.sign)
    assert not out.diverged
    assert out.t == pytest.approx(t_star, abs=1e-4)
    assert out.t < 0.0


def test_strip_quadrature_diverges_at_bound():
    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    # elapsed time grows without bound as the target approaches the level
    gaps = [10 ** -k for k in range(2, 7)]
    times = [strip_quadrature(1.0, sb.upper - g, sb.c, sb.sign).t for g in gaps]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    at_bound = strip_quadrature(1.0, sb.upper, sb.c, sb.sign)
    assert at_bound.diverged
    assert at_bound.t > 1e3


def test_strip_quadrature_rejects_interior_singularity():
    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    with pytest.raises(ValueError):
        strip_quadrature(1.0, sb.upper + 0.5, sb.c, sb.sign)


def test_strip_bounds_bracket_and_are_levels_for_random_launches():
    from hypothesis import given, settings as hsettings, strategies as st

    @given(st.floats(-3.0, 3.0), st.floats(0.02, math.pi - 0.02))
    @hsettings(max_examples=200, deadline=None)
    def run(y0, angle):
        dy0 = math.sin(angle)
        dx0 = math.cos(angle)
        sb = strip_bounds(y0, dy0, dx0)
        assert sb.lower < y0 < sb.upper
        for level in (sb.lower, sb.upper):
            assert abs(math.sin(sb.sign * 0.5 * level ** 2 - sb.c)) < 1e-9

    run()


@pytest.mark.parametrize("y0, dy0, dx0, lower, upper", [
    # y' = sin(pi) = 1.2e-16: the level sqrt(2|c|) = 1 + 1e-16 rounds onto y0
    (1.0, math.sin(math.pi), math.cos(math.pi), -1.0, 1.0),
    (-1.0, math.sin(math.pi), math.cos(math.pi), -1.0, 1.0),
    (1.0, -math.sin(math.pi), math.cos(math.pi), 1.0 - 2.0 ** -53, 2.698737724785346),
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
    """The sweep's former batched RK4 loop, kept as the bitwise oracle."""
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
    if both_directions:
        y_lo = np.minimum(y_lo[:n_angles], y_lo[n_angles:])
        y_hi = np.maximum(y_hi[:n_angles], y_hi[n_angles:])
    return y_lo, y_hi


@pytest.mark.parametrize("origin, n_angles", [((1.0, 1.0), 64), ((1.0, 1.0), 65),
                                              ((0.3, -2.0), 37)])
@pytest.mark.parametrize("both_directions", [True, False])
def test_sweep_matches_hand_written_rk4_bitwise(origin, n_angles, both_directions):
    sweep = shooting_sweep(origin=origin, n_angles=n_angles, t_max=20.0, h=2e-3,
                           both_directions=both_directions)
    y_lo, y_hi = _hand_written_sweep(origin, n_angles, 20.0, 2e-3, both_directions)
    assert sweep.y_min.tobytes() == y_lo.tobytes()
    assert sweep.y_max.tobytes() == y_hi.tobytes()
