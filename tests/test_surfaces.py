import math

import numpy as np
import pytest
from scipy.integrate import quad

from torsiongeo.errors import ChartDomainError
from torsiongeo.scenarios import CATALOG, build_runtime, run_scenario
from torsiongeo.surfaces import (embed, gauss_map, gauss_map_trace, gaussian_curvature,
                                 loxodrome_check, make_catenoid, make_pseudosphere,
                                 make_sphere, mercator_inverse, mercator_map,
                                 sphere_angle_cosines)


def test_sphere_profile_is_natural():
    surf = make_sphere()
    ss = np.linspace(0.1, math.pi - 0.1, 50)
    assert surf.profile.natural_residual(ss) < 1e-12


def test_pseudosphere_profile_is_natural_and_parallel_field():
    surf = make_pseudosphere()
    ss = np.linspace(0.05, 5.5, 50)
    assert surf.profile.natural_residual(ss) < 1e-12
    # at s = 1 the field is the constant -e1 with unit norm
    Vu, Vv = surf.field.components(1.0, 0.0)
    assert Vu == pytest.approx(-1.0)
    assert Vv == 0.0
    # V is constant in the frame: components do not depend on s
    assert surf.field.components(2.5, 0.0)[0] == pytest.approx(-1.0)


def test_catenoid_reparametrization_against_quadrature_oracle():
    # independent oracle: adaptive quadrature of the speed of (cosh t, t)
    surf = make_catenoid()
    ss = np.linspace(-14.0, 14.0, 100)
    assert surf.profile.natural_residual(ss) < 1e-8
    for s in (-3.7, 0.0, 1.3, 9.2):
        t_inv = math.asinh(s)  # closed form for this profile
        arc, _ = quad(math.cosh, 0.0, t_inv, epsabs=1e-12, epsrel=1e-12)
        assert arc == pytest.approx(s, abs=1e-10)
        assert surf.profile.r(s) == pytest.approx(math.sqrt(1.0 + s * s), abs=1e-9)
        assert surf.profile.h(s) == pytest.approx(t_inv, abs=1e-9)


def test_first_fundamental_form():
    surf = make_catenoid()
    s = 2.0
    g11, g12, g22 = surf.chart.metric(s, 0.7)
    assert g11 == 1.0
    assert g12 == 0.0
    assert g22 == pytest.approx(1.0 + s * s, abs=1e-9)


def test_structure_equation_coefficient():
    # d(sigma^2) = (r'/r) sigma^1 ^ sigma^2 reduces to d(r)/ds = r':
    # difference the coefficient of the coframe and compare.
    for builder in (make_sphere, make_pseudosphere, make_catenoid):
        surf = builder()
        s0, s1 = surf.profile.s_domain
        for s in np.linspace(s0 + 0.2 * (s1 - s0), s1 - 0.2 * (s1 - s0), 20):
            h = 1e-6 * max(1.0, abs(s))
            fd = (surf.profile.r(s + h) - surf.profile.r(s - h)) / (2.0 * h)
            assert abs(fd - surf.profile.dr(s)) < 1e-6


def test_mercator_sphere_closed_form():
    surf = make_sphere()
    assert mercator_map(surf, math.pi / 2) == pytest.approx(0.0, abs=1e-14)
    ss = np.linspace(0.1, math.pi - 0.1, 100)
    ys = mercator_map(surf, ss)
    assert np.max(np.abs(ys - np.log(np.tan(ss / 2.0)))) < 1e-10


def test_mercator_pseudosphere_closed_form():
    surf = make_pseudosphere()
    s0 = 0.5 * sum(surf.profile.s_domain)  # the anchor, where y = 0
    for s in (0.5, 1.0, 2.5, 4.0):
        assert mercator_map(surf, s) == pytest.approx(
            math.exp(s) - math.exp(s0), abs=1e-10)


@pytest.mark.parametrize("builder", [make_sphere, make_pseudosphere, make_catenoid])
def test_mercator_closed_form_against_quadrature_oracle(builder):
    # y(s) - y(mid) is the integral of 1/r over [mid, s]; adaptive
    # quadrature of the profile's own 1/r is the independent oracle
    surf = builder()
    s0, s1 = surf.profile.s_domain
    mid = 0.5 * (s0 + s1)
    ss = np.linspace(s0 + 0.02 * (s1 - s0), s1 - 0.02 * (s1 - s0), 60)
    ys = mercator_map(surf, ss) - mercator_map(surf, mid)
    for s, y in zip(ss, ys):
        oracle, _ = quad(lambda x: 1.0 / surf.profile.r(x), mid, s,
                         epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(y - oracle) <= 1e-11 * max(1.0, abs(oracle))


def test_mercator_derivative_and_monotonicity():
    surf = make_catenoid()
    ss = np.linspace(-10.0, 10.0, 41)
    ys = mercator_map(surf, ss)
    assert np.all(np.diff(ys) > 0)
    for s in (-5.0, 0.5, 7.0):
        h = 1e-5
        d = (mercator_map(surf, s + h) - mercator_map(surf, s - h)) / (2 * h)
        assert d == pytest.approx(1.0 / surf.profile.r(s), abs=1e-8)


def test_mercator_inverse_round_trip():
    surf = make_sphere()
    for s in (0.4, 1.0, 2.3):
        assert mercator_inverse(surf, mercator_map(surf, s)) == pytest.approx(s, abs=1e-10)


@pytest.mark.parametrize("builder", [make_pseudosphere, make_catenoid])
def test_mercator_inverse_round_trip_on_arrays(builder):
    surf = builder()
    s0, s1 = surf.profile.s_domain
    ss = np.linspace(s0 + 0.02 * (s1 - s0), s1 - 0.02 * (s1 - s0), 50)
    back = mercator_inverse(surf, mercator_map(surf, ss))
    assert np.max(np.abs(back - ss)) <= 1e-12 * max(1.0, abs(s0), abs(s1))
    assert mercator_inverse(surf, 0.0) == pytest.approx(mercator_inverse(surf, [0.0])[0])
    with pytest.raises(ChartDomainError):
        mercator_inverse(surf, [0.0, 1e6])


@pytest.mark.parametrize("builder", [make_sphere, make_pseudosphere, make_catenoid])
def test_mercator_pushes_rescaled_metric_to_euclidean(builder):
    # In (x, y) = (phi, mercator) coordinates the rescaled metric
    # diag(1/r^2, 1) becomes the identity: pull it back through the change
    # of variables and compare.
    surf = builder()
    s0, s1 = surf.profile.s_domain
    ss = np.linspace(s0 + 0.1 * (s1 - s0), s1 - 0.1 * (s1 - s0), 100)
    h = 2e-4

    def diff(s, step):
        return (mercator_map(surf, s + step) - mercator_map(surf, s - step)) / (2 * step)

    for s in ss:
        r = surf.profile.r(s)
        # Richardson-extrapolated derivative keeps quadrature noise below
        # the 1e-8 budget without a truncation penalty
        dy_ds = (4.0 * diff(s, h / 2) - diff(s, h)) / 3.0
        ds_dy = 1.0 / dy_ds
        # pulled-back components: (1/r^2) (ds/dy)^2 and 1
        assert (1.0 / r ** 2) * ds_dy ** 2 == pytest.approx(1.0, abs=1e-8)


def test_loxodrome_matches_pulled_back_mercator_line(suite_ctx):
    # third route to the same point set: a straight line in Mercator
    # coordinates, pulled back through the inverse change of variables
    from torsiongeo.conformal import compare_point_sets

    surf = make_sphere()
    tr = suite_ctx.trace("sphere-loxodrome-45").sub_interval(0.0, 2.0)
    xs = tr.v  # phi is the Mercator abscissa
    line = np.column_stack([
        np.array([mercator_inverse(surf, x) for x in xs]),  # slope 1, intercept 0
        xs,
    ])
    assert compare_point_sets(tr, line) < 1e-4


def test_mercator_domain_error():
    surf = make_pseudosphere()
    with pytest.raises(ChartDomainError):
        mercator_map(surf, 100.0)


def test_meridian_loxodrome_report_zero(suite_ctx):
    tr = suite_ctx.trace("sphere-meridian")
    rep = loxodrome_check(tr, build_runtime("sphere").surface)
    assert np.max(np.abs(rep.values)) < 1e-12
    assert rep.passed


def test_sphere_45_loxodrome_constant(suite_ctx):
    tr = suite_ctx.trace("sphere-loxodrome-45")
    rep = loxodrome_check(tr, build_runtime("sphere").surface)
    assert rep.values[0] == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
    assert rep.std < 1e-6


def test_mercator_image_of_loxodrome_is_line(suite_ctx):
    surf = build_runtime("sphere").surface
    tr = suite_ctx.trace("sphere-loxodrome-45")
    idx = np.linspace(0, len(tr) - 1, 201).astype(int)
    xs = tr.v[idx]
    ys = mercator_map(surf, tr.u[idx])
    A = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    assert abs(coef[0]) == pytest.approx(1.0, abs=1e-9)  # 45 degrees: slope +-1
    assert np.max(np.abs(A @ coef - ys)) < 1e-5


def test_gauss_map_unit_normal_and_waist():
    surf = make_catenoid()
    n, (colat, lon) = gauss_map(surf, 0.0, 0.3)
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-10)
    assert colat == pytest.approx(math.pi / 2, abs=1e-12)
    for s in (-4.0, 1.0, 8.0):
        n, _ = gauss_map(surf, s, 1.1)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-10)


def test_gauss_map_unsupported_surface():
    with pytest.raises(ValueError):
        gauss_map(make_sphere(), 1.0, 0.0)


def test_gauss_mapped_loxodrome_keeps_constant_angle(suite_ctx):
    surf = build_runtime("catenoid").surface
    tr = suite_ctx.trace("catenoid-loxodrome-45").sub_interval(-5.0, 5.0)
    _, colat, lon = gauss_map_trace(surf, tr)
    cosines = sphere_angle_cosines(colat, lon, tr.t)
    assert np.std(cosines[3:-3]) < 1e-4


def test_gauss_map_and_embedding_columns_equal_sample_loops(suite_ctx):
    # the per-sample loops the column forms replaced, as the oracle
    surf = build_runtime("catenoid").surface
    tr = suite_ctx.trace("catenoid-loxodrome-45").sub_interval(-2.0, 2.0)
    p = surf.profile
    normals, colat, lon = [], [], []
    for s, phi in zip(tr.u.tolist(), tr.v.tolist()):
        hp = p.dh(s)
        n = (-hp * math.cos(phi), -hp * math.sin(phi), p.dr(s))
        normals.append(n)
        colat.append(math.atan2(math.hypot(n[0], n[1]), n[2]))
        lon.append(math.atan2(n[1], n[0]))
    got = gauss_map_trace(surf, tr)
    for a, b in zip(got, (np.array(normals), np.array(colat), np.unwrap(lon))):
        assert a.tobytes() == b.tobytes()
    want = [(p.r(s) * math.cos(phi), p.r(s) * math.sin(phi), p.h(s))
            for s, phi in zip(tr.u.tolist(), tr.v.tolist())]
    assert embed(surf, tr).tobytes() == np.array(want).tobytes()


def test_embed_equator_and_meridian():
    surf = make_sphere()
    tr = run_scenario(CATALOG["sphere-equator"], span=(0.0, 2.0))
    pts = embed(surf, tr)
    assert np.max(np.abs(pts[:, 2])) < 1e-9
    assert np.max(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)) < 1e-9
    tr = run_scenario(CATALOG["sphere-meridian"], span=(0.0, 1.0))
    pts = embed(surf, tr)
    assert np.max(np.abs(pts[:, 1])) < 1e-12  # phi = 0 meridian: y = 0
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-9


def test_loxodrome_spirals_into_the_pole_cap():
    surf = make_sphere()
    tr = run_scenario(CATALOG["sphere-loxodrome-45"], span=(-8.0, 8.0))
    assert "boundary" in tr.stop_reason
    assert np.max(tr.u) > math.pi - 1e-3 - 1e-4  # reached the cap edge
    assert np.all(np.diff(tr.u) > 0)  # s monotone toward the pole


def test_generalized_clairaut_identity(suite_ctx):
    # exp(sigma) g(v, d_phi) = g(v, e2) as an algebraic identity
    tr = suite_ctx.trace("catenoid-loxodrome-45").sub_interval(-3.0, 3.0)
    surf = build_runtime("catenoid").surface
    lhs = np.array([
        math.exp(surf.field.sigma(u, v)) * (surf.profile.r(u) ** 2 * dv)
        for u, v, dv in zip(tr.u, tr.v, tr.dv)
    ])
    rhs = np.array([surf.profile.r(u) * dv for u, dv in zip(tr.u, tr.dv)])
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_gaussian_curvature_closed_forms():
    sphere = make_sphere()
    assert gaussian_curvature(sphere, np.array([1.1])) == pytest.approx([1.0], abs=1e-12)
    pseudo = make_pseudosphere()
    assert gaussian_curvature(pseudo, np.array([2.0])) == pytest.approx([-1.0], abs=1e-12)
    cat = make_catenoid()
    ss = np.array([-2.0, 0.0, 3.0])
    assert gaussian_curvature(cat, ss) == pytest.approx(-1.0 / (1.0 + ss * ss) ** 2, abs=1e-6)


@pytest.mark.parametrize("name", ["sphere", "pseudosphere", "catenoid"])
def test_gaussian_curvature_of_an_array_is_the_point_loop(name):
    surf = build_runtime(name).surface
    s0, s1 = surf.profile.s_domain
    ss = np.linspace(s0, s1, 203)[1:-1]
    # the per-point loop over the scalar evaluators that c10 ran, as the oracle
    p = surf.profile
    want = np.array([-p.d2r(s) / p.r(s) for s in ss.tolist()])
    assert gaussian_curvature(surf, ss).tobytes() == want.tobytes()


def test_surface_rejects_non_natural_profile():
    from torsiongeo.surfaces import _surface

    # r = 2, h = 2 s: r'^2 + h'^2 = 4
    with pytest.raises(ValueError, match="natural"):
        _surface("cylinder", ("2", "2.0 * x", "2.0", "0.0"), (0.0, 1.0),
                 mercator=lambda s: 0.5 * s, mercator_inv=lambda y: 2.0 * y)
