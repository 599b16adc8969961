import math

import numpy as np
import pytest

from geometry_checks import (check_christoffel_consistency, check_frame_orthonormal,
                             check_gradient_relation, check_killing, check_metric_spd,
                             covariant_derivative, gram_schmidt, interior_grid,
                             sample_interior)
from torsiongeo.errors import ChartDomainError, MetricDegeneracyError
from torsiongeo.geometry import (ZERO_FIELD, ChartSource, FieldSource, christoffel,
                                 compile_runtime, euclidean_plane, grad, half_plane,
                                 half_plane_source, inner, norm)
from torsiongeo.plane import shear_field, winding_field
from torsiongeo.scenarios import Scenario, build_runtime
from torsiongeo.surfaces import CATALOG_BUILDERS, make_catenoid, make_pseudosphere, make_sphere


def fd_christoffel_oracle(metric_matrix_fn, u, v, h=1e-6):
    """Independent central-difference Christoffels from a dense-matrix metric."""
    hu = h * max(1.0, abs(u))
    hv = h * max(1.0, abs(v))
    dg = [
        (metric_matrix_fn(u + hu, v) - metric_matrix_fn(u - hu, v)) / (2 * hu),
        (metric_matrix_fn(u, v + hv) - metric_matrix_fn(u, v - hv)) / (2 * hv),
    ]
    ginv = np.linalg.inv(metric_matrix_fn(u, v))
    gamma = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    gamma[k, i, j] += 0.5 * ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
    return gamma


def test_flat_plane_christoffels_vanish():
    chart = euclidean_plane()
    assert np.allclose(christoffel(chart, (0.3, -1.2)), 0.0)


def test_sphere_christoffels_closed_form_and_fd_oracle():
    surf = make_sphere()
    s = 1.0
    g = christoffel(surf.chart, (s, 0.5))
    assert g[0, 1, 1] == pytest.approx(-math.sin(s) * math.cos(s), abs=1e-12)
    assert g[1, 0, 1] == pytest.approx(math.cos(s) / math.sin(s), abs=1e-12)
    oracle = fd_christoffel_oracle(
        lambda u, v: np.diag([1.0, math.sin(u) ** 2]), s, 0.5)
    assert np.max(np.abs(g - oracle)) < 1e-6


def test_mercator_image_metric_matches_fd_oracle():
    # diag(1/sin^2 s, 1): the image of the sphere metric under the
    # Mercator-type change of variables, a chart with a non-constant g11.
    chart = compile_runtime(ChartSource(
        "mercator-image", ("1/sin(u)**2", "0", "1"),
        bounds=(1e-3, math.pi - 1e-3, -math.inf, math.inf),
        sample_box=(0.3, math.pi - 0.3, -3.0, 3.0)), ZERO_FIELD)[0]
    for s in (0.7, 1.3, 2.2):
        got = christoffel(chart, (s, 0.0))
        oracle = fd_christoffel_oracle(
            lambda u, v: np.diag([1.0 / math.sin(u) ** 2, 1.0]), s, 0.0)
        assert np.max(np.abs(got - oracle)) < 1e-6
        # only nonzero symbol: G^u_uu = -cot(s)
        assert got[0, 0, 0] == pytest.approx(-math.cos(s) / math.sin(s), abs=1e-6)


@pytest.mark.parametrize("builder", [make_sphere, make_pseudosphere, make_catenoid])
def test_catalog_charts_analytic_vs_fd_on_grid(builder):
    surf = builder()
    pts = interior_grid(surf.chart, n=20)
    assert check_metric_spd(surf.chart, pts) > 0.0
    assert check_christoffel_consistency(surf.chart, pts) < 1e-6


def test_metric_compatibility_of_christoffels(rng):
    # d_k g_ij = G^l_ki g_lj + G^l_kj g_il, differenced independently
    for surf in (make_sphere(), make_catenoid()):
        for u, v in sample_interior(surf.chart, 10, rng):
            G = christoffel(surf.chart, (u, v))
            g = surf.chart.metric_matrix(u, v)
            hu = 1e-6 * max(1.0, abs(u))
            hv = 1e-6 * max(1.0, abs(v))
            dg = [
                (surf.chart.metric_matrix(u + hu, v) - surf.chart.metric_matrix(u - hu, v)) / (2 * hu),
                (surf.chart.metric_matrix(u, v + hv) - surf.chart.metric_matrix(u, v - hv)) / (2 * hv),
            ]
            for k in range(2):
                expect = np.einsum("li,lj->ij", G[:, k, :], g) \
                    + np.einsum("lj,il->ij", G[:, k, :], g)
                assert np.max(np.abs(dg[k] - expect)) < 1e-6


def test_domain_box_is_open():
    chart = half_plane(v_min=0.5)
    with pytest.raises(ChartDomainError):
        christoffel(chart, (0.0, 0.5))
    with pytest.raises(ChartDomainError):
        christoffel(chart, (0.0, 0.2))
    assert np.allclose(christoffel(chart, (0.0, 0.6)), 0.0)


def test_singular_metric_raises_degeneracy():
    chart = compile_runtime(ChartSource("degenerate", ("u", "0", "1"),  # singular at u <= 0
                                        bounds=(-1.0, 1.0, -1.0, 1.0)), ZERO_FIELD)[0]
    with pytest.raises(MetricDegeneracyError):
        christoffel(chart, (-0.5, 0.0))


def test_grad_examples():
    chart = euclidean_plane()
    assert np.allclose(grad(chart, lambda x, y: 3.0, (0.4, 0.7)), 0.0, atol=1e-8)
    g = grad(chart, lambda x, y: -0.5 * (x * x + y * y), (1.5, -2.0))
    assert np.allclose(g, [-1.5, 2.0], atol=1e-8)


def test_grad_on_surface_matches_field():
    # sigma = -log r gives V = -grad sigma = (r'/r) e1
    surf = make_sphere()
    s = 1.2
    g = grad(surf.chart, surf.field.sigma, (s, 0.3))
    rp_over_r = math.cos(s) / math.sin(s)
    assert np.allclose(g, [-rp_over_r, 0.0], atol=1e-8)
    assert np.allclose(surf.field.components(s, 0.3), [rp_over_r, 0.0], atol=1e-12)


def test_grad_defining_identity_random(rng):
    surf = make_pseudosphere()

    def scalar(u, v):
        return math.sin(u) + 0.3 * u * v

    for u, v in sample_interior(surf.chart, 100, rng):
        X = rng.normal(size=2)
        g = grad(surf.chart, scalar, (u, v))
        hu = 1e-6 * max(1.0, abs(u))
        hv = 1e-6 * max(1.0, abs(v))
        xf = (X[0] * (scalar(u + hu, v) - scalar(u - hu, v)) / (2 * hu)
              + X[1] * (scalar(u, v + hv) - scalar(u, v - hv)) / (2 * hv))
        assert inner(surf.chart, (u, v), g, X) == pytest.approx(xf, abs=1e-8)


def angle_launch(key: str, a: float):
    """The launch velocity at angle a to the meridians, as (u, v) -> (du, dv)."""
    def e(u, v):
        state = Scenario("frame", key, (u, v), angle=a).launch_state()
        return (state.du, state.dv)
    return e


def test_inner_and_norm():
    surf = make_sphere()
    s = 1.0
    r = math.sin(s)
    p = (s, 0.0)
    e1, e2 = (angle_launch("sphere", a)(*p) for a in (0.0, math.pi / 2))
    assert inner(surf.chart, p, e1, e2) == pytest.approx(0.0, abs=1e-15)
    assert inner(surf.chart, p, (0.0, 1.0), (0.0, 1.0)) == pytest.approx(r * r)
    V = surf.field.components(*p)
    assert norm(surf.chart, p, V) == pytest.approx(abs(math.cos(s) / math.sin(s)))


def test_angle_launches_orthonormal_on_catalog():
    # the launches at a = 0 and a = pi/2 are the frame (d_s, d_phi / r)
    for key in CATALOG_BUILDERS:
        chart = build_runtime(key).chart
        pts = sample_interior(chart, 40)
        frame = (angle_launch(key, 0.0), angle_launch(key, math.pi / 2))
        assert check_frame_orthonormal(chart, frame, pts) < 1e-10, key


def test_gram_schmidt_frame_on_skewed_metric():
    chart = compile_runtime(ChartSource("skewed", ("2.0", "0.5", "1.5"),
                                        bounds=(-2.0, 2.0, -2.0, 2.0)), ZERO_FIELD)[0]
    frame = gram_schmidt(chart)
    pts = sample_interior(chart, 10)
    assert check_frame_orthonormal(chart, frame, pts) < 1e-10


def test_sigma_relation_on_catalog_surfaces():
    for builder in (make_sphere, make_pseudosphere, make_catenoid):
        surf = builder()
        pts = sample_interior(surf.chart, 30)
        assert check_gradient_relation(surf.chart, surf.field, pts) < 1e-8


def test_killing_flags_verified_numerically(rng):
    chart = euclidean_plane()
    pts = sample_interior(chart, 20, rng)
    assert check_killing(chart, winding_field(), pts, rng) < 1e-6
    # the shear field is not Killing; the residual is order one
    assert check_killing(chart, shear_field(), pts, rng) > 1e-2


def test_covariant_derivative_flat_plane():
    chart = euclidean_plane()
    field = winding_field()
    out = covariant_derivative(chart, field, (0.7, -0.1), (1.0, 0.0))
    # d_x(-y, x) = (0, 1)
    assert np.allclose(out, [0.0, 1.0], atol=1e-8)


def test_sigma_field_source_is_minus_grad():
    _, field = compile_runtime(half_plane_source(0.05),
                               FieldSource("log-height", "sigma", ("-log(y)",)))
    assert field.components(0.0, 2.0) == (0.0, 0.5)
    assert field.sigma(0.0, 2.0) == -math.log(2.0)
