"""The built-in runtimes, compiled from expression sources, against the
hand-written closures they replaced.

Each built-in runtime used to be a set of closures for its metric,
Christoffel symbols, field components, potential and gradient, and the RHS
called them one by one.  Those closures, the RHS that called them, and the
conformal Christoffel rule that rescaled charts used are kept here as the
oracle.  Every compiled evaluator and the fused RHS equal them bitwise,
except on the surfaces G^v_uv = r'/r, which the generic rule computes as
(1/g22) * (1/2) d g22, and the acceleration ddv that reads it.  G^v_uv stays
within 4 ulp, and ddv within 4 ulp of its term 2 G^v_uv du dv, about half
of which it cancels.  A zero equals a zero of either sign, since folding an
exact 0 term away can change the sign of a zero result.
"""

import importlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from torsiongeo.conformal import conformal_metric
from torsiongeo.errors import ConfigError
from torsiongeo.geometry import ChartGeometry, VectorFieldSpec, euclidean_plane, half_plane
from torsiongeo.integrate import GeodesicState, IntegratorSettings, _make_rhs, integrate
from torsiongeo.plane import shear_field, winding_field
from torsiongeo.scenarios import CATALOG, ScenarioConfig, build_runtime, run_config, run_scenario
from torsiongeo.suite import criterion_conformal_equivalence

FLAT = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def plane_oracle(components, sigma=None, sigma_grad=None, p=None):
    return {"metric": lambda u, v: (1.0, 0.0, 1.0), "christoffel": lambda u, v: FLAT,
            "components": components, "sigma": sigma, "sigma_grad": sigma_grad, "p": p}


def surface_oracle(r, dr):
    return {"metric": lambda u, v: (1.0, 0.0, r(u) * r(u)),
            "christoffel": lambda u, v: ((0.0, 0.0, -r(u) * dr(u)), (0.0, dr(u) / r(u), 0.0)),
            "components": lambda u, v: (dr(u) / r(u), 0.0),
            "sigma": lambda u, v: -math.log(r(u)),
            "sigma_grad": lambda u, v: (-dr(u) / r(u), 0.0),
            "p": None, "r": r, "dr": dr}


ORACLES = {
    "plane-zero": plane_oracle(lambda x, y: (0.0, 0.0)),
    "plane-winding": plane_oracle(lambda x, y: (-y, x), p=lambda x, y: -0.5 * (x * x + y * y)),
    "plane-shear": plane_oracle(lambda x, y: (y, 0.0 * x), p=lambda x, y: 0.5 * y * y),
    "halfplane-sigma": plane_oracle(lambda u, v: (0.0, 1.0 / v),
                                    sigma=lambda u, v: -math.log(v),
                                    sigma_grad=lambda u, v: (0.0, -1.0 / v)),
    "sphere": surface_oracle(math.sin, math.cos),
    "pseudosphere": surface_oracle(lambda s: math.exp(-s), lambda s: -math.exp(-s)),
    "catenoid": surface_oracle(lambda s: math.sqrt(1.0 + s * s),
                               lambda s: s / math.sqrt(1.0 + s * s)),
}


def oracle_rhs(oracle, E2):
    """The closure RHS over the oracle's evaluators."""
    metric, gamma, comp = oracle["metric"], oracle["christoffel"], oracle["components"]

    def rhs(u, v, du, dv):
        (a0, a1, a2), (b0, b1, b2) = gamma(u, v)
        Vu, Vv = comp(u, v)
        g11, g12, g22 = metric(u, v)
        gV = Vu * (g11 * du + g12 * dv) + Vv * (g12 * du + g22 * dv)
        ddu = -(a0 * du * du + 2.0 * a1 * du * dv + a2 * dv * dv) - E2 * Vu + gV * du
        ddv = -(b0 * du * du + 2.0 * b1 * du * dv + b2 * dv * dv) - E2 * Vv + gV * dv
        return ddu, ddv

    return rhs


def conformal_christoffel_oracle(oracle, u, v):
    """The conformal rule that rescaled charts used, for the metric
    exp(2 sigma) g: G~^k_ij = G^k_ij + d_i sigma delta^k_j + d_j sigma delta^k_i
    - g_ij (grad sigma)^k.  Returns the symbols and, per symbol, the largest
    magnitude among its terms."""
    (a0, a1, a2), (b0, b1, b2) = oracle["christoffel"](u, v)
    su, sv = oracle["sigma_grad"](u, v)
    g11, g12, g22 = oracle["metric"](u, v)
    det = g11 * g22 - g12 * g12
    gu = (g22 * su - g12 * sv) / det   # (grad sigma)^u
    gv = (-g12 * su + g11 * sv) / det
    gamma = ((a0 + 2.0 * su - g11 * gu, a1 + sv - g12 * gu, a2 - g22 * gu),
             (b0 - g11 * gv, b1 + su - g12 * gv, b2 + 2.0 * sv - g22 * gv))
    terms = ((a0, 2.0 * su, g11 * gu), (a1, sv, g12 * gu), (a2, g22 * gu),
             (b0, g11 * gv), (b1, su, g12 * gv), (b2, 2.0 * sv, g22 * gv))
    return gamma, [max(map(abs, t)) for t in terms]


def flat(value):
    return [float(value)] if not isinstance(value, tuple) else [x for v in value for x in flat(v)]


@pytest.mark.parametrize("key", list(ORACLES))
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.floats(0.01, 10.0))
@settings(max_examples=100, deadline=None)
def test_compiled_runtimes_equal_the_hand_written_closures(key, fu, fv, du, dv, E2):
    rt, oracle = build_runtime(key), ORACLES[key]
    u0, u1, v0, v1 = rt.chart.sample_box
    u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
    compiled = {"metric": rt.chart.metric, "christoffel": rt.chart.christoffel_analytic,
                "components": rt.field.components, "sigma": rt.field.sigma,
                "sigma_grad": rt.field.sigma_grad, "p": rt.field.flat_potential}
    assert rt.field.fused[0] is rt.chart.source
    pairs = [(name, compiled[name](u, v), oracle[name](u, v))
             for name in compiled if oracle[name] is not None]
    assert [name for name, _, _ in pairs] == [name for name in compiled if compiled[name]]
    pairs.append(("rhs", _make_rhs(rt.chart, rt.field, E2)(u, v, du, dv),
                  oracle_rhs(oracle, E2)(u, v, du, dv)))
    if rt.surface is not None:
        pairs += [(name, getattr(rt.surface.profile, name)(u), oracle[name](u))
                  for name in ("r", "dr")]
    # the entries that read G^v_uv on a surface, with the scale of their ulps
    near = ({("christoffel", 4): 0.0,
             ("rhs", 1): abs(2.0 * oracle["christoffel"](u, v)[1][1] * du * dv)}
            if rt.surface is not None else {})
    for name, got, want in pairs:
        for i, (a, b) in enumerate(zip(flat(got), flat(want), strict=True)):
            if (name, i) in near:
                scale = max(abs(a), abs(b), near[name, i])
                assert abs(a - b) <= 4.0 * math.ulp(scale), (name, i, a, b)
            else:
                assert a == b, (name, i, a, b)


@pytest.mark.parametrize("key", ["sphere", "pseudosphere", "catenoid", "halfplane-sigma"])
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.floats(0.01, 10.0))
@settings(max_examples=100, deadline=None)
def test_conformal_charts_equal_the_conformal_rule(key, fu, fv, du, dv, E2):
    # a symbol whose terms cancel, such as G~^u_vv = 0 on a surface, is
    # compared in ulps of its largest term
    rt, oracle = build_runtime(key), ORACLES[key]
    u0, u1, v0, v1 = rt.chart.sample_box
    u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
    derived = conformal_metric(rt.chart, rt.field)
    want, scales = conformal_christoffel_oracle(oracle, u, v)
    for a, b, scale in zip(flat(derived.christoffel_analytic(u, v)), flat(want), scales,
                           strict=True):
        assert abs(a - b) <= 4.0 * math.ulp(max(abs(a), abs(b), scale)), (a, b)
    # the Levi-Civita RHS of the rescaled chart is the closure RHS's formula
    lc = {"metric": derived.metric, "christoffel": derived.christoffel_analytic,
          "components": lambda u, v: (0.0, 0.0)}
    assert _make_rhs(derived, VectorFieldSpec.zero(), E2)(u, v, du, dv) == \
        oracle_rhs(lc, E2)(u, v, du, dv)


#: Config-built runtimes that step with their fused RHS, one per field kind,
#: plus an inline metric
CONFIG_RUNTIMES = {
    "config-p": ("plane", {"p": "0.3*(x*x + y*y) - 0.2*x*y"}),
    "config-sigma": ("half-plane", {"sigma": "-0.8*log(y)"}),
    "config-fg": ("plane", {"f": "0.5*sin(y) + 0.1", "g": "-0.3*cos(x)"}),
    "config-metric": ({"metric": {"g11": "2 + sin(x*y)", "g12": "0.3*cos(x - y)",
                                  "g22": "1 + x*x/(1 + y*y)"},
                       "sample_box": [-2.0, 2.0, -2.0, 2.0]}, {"sigma": "0.1*x*y"}),
}


def config_runtime(key):
    chart, field = CONFIG_RUNTIMES[key]
    rt = ScenarioConfig.from_dict({"version": 1, "id": key, "chart": chart, "field": field,
                                   "initial": {"position": [0.3, 1.2],
                                               "velocity": [0.6, 0.8]}}).runtime
    assert rt.field.fused[0] is rt.chart.source
    return rt


def test_built_in_config_selectors_resolve_to_the_cached_runtimes():
    for chart, field, key in [("plane", "zero", "plane-zero"),
                              ("plane", "winding", "plane-winding"),
                              ("plane", "shear", "plane-shear"), ("sphere", "catalog", "sphere"),
                              ({"surface": "catenoid"}, "catalog", "catenoid")]:
        rt = ScenarioConfig.from_dict({"version": 1, "id": "x", "chart": chart, "field": field,
                                       "initial": {"position": [1.0, 0.5],
                                                   "velocity": [1.0, 0.0]}}).runtime
        assert rt is build_runtime(key)


def test_runs_step_with_the_fused_rhs(monkeypatch, suite_ctx):
    # a chart or a field built in code has no sources to compile an RHS from
    launch = GeodesicState(0.0, 0.3, 1.2, 0.6, 0.8)
    span = IntegratorSettings(t0=0.0, t1=0.2, h=1e-3)
    for chart, field in [
            (ChartGeometry("bare", lambda u, v: (1.0, 0.0, 1.0), lambda u, v: FLAT),
             VectorFieldSpec.zero()),
            (euclidean_plane(), VectorFieldSpec("bare", lambda u, v: (0.0, 0.0)))]:
        with pytest.raises(ValueError, match="compile_runtime"):
            integrate(chart, field, launch, span)
    # a gradient field steps only on the chart whose metric it is the gradient for
    with pytest.raises(ValueError, match="-grad sigma for the metric of chart 'half-plane'"):
        integrate(build_runtime("sphere").chart, build_runtime("halfplane-sigma").field,
                  launch, span)

    mod = importlib.import_module("torsiongeo.integrate")
    make_rhs, steps = mod._make_rhs, []

    def spy(chart, field, E2):
        steps.append((chart, make_rhs(chart, field, E2)))
        return steps[-1][1]

    monkeypatch.setattr(mod, "_make_rhs", spy)
    for key in CONFIG_RUNTIMES:
        chart, field = CONFIG_RUNTIMES[key]
        trace, reports = run_config(ScenarioConfig.from_dict({
            "version": 1, "id": key, "chart": chart, "field": field, "span": [-0.2, 0.2],
            "initial": {"position": [0.3, 1.2], "velocity": [0.6, 0.8]}, "reports": ["speed"]}))
        assert len(trace) == 401 and reports[0].passed
    assert run_scenario(CATALOG["sphere-loxodrome-45"], span=(-0.1, 0.1)).stop_reason == "t1/t1"
    # a chart and a field from the factories share the built-in runtimes, and
    # step fused when compiled from the same chart source
    assert euclidean_plane() is build_runtime("plane-zero").chart
    assert winding_field() is build_runtime("plane-winding").field
    for chart, field in [(euclidean_plane(), winding_field()), (euclidean_plane(), shear_field()),
                         (half_plane(0.05), build_runtime("halfplane-sigma").field)]:
        trace = integrate(chart, field, launch, span)
        assert len(trace) == 201
    # criterion 2's Levi-Civita runs, of the zero field on a rescaled chart,
    # step with the module their rescaled chart was compiled in
    steps.clear()
    assert criterion_conformal_equivalence(suite_ctx).passed
    lc_runs = [(chart, rhs) for chart, rhs in steps if chart.name.endswith("~conformal")]
    assert len(lc_runs) == 5
    for chart, rhs in lc_runs:
        assert rhs.__globals__ is chart.metric.__globals__


def test_fused_rhs_failures_name_the_expression_and_the_point():
    config = {"version": 1, "id": "log", "chart": "plane", "field": {"f": "log(x)", "g": "0"},
              "initial": {"position": [0.05, 0.5], "velocity": [-1.0, 0.0]}, "span": [0.0, 1.0]}
    rt = ScenarioConfig.from_dict(config).runtime
    with pytest.raises(ConfigError, match=r"^expression 'log\(x\)' failed at \(x, y\) = "
                                          r"\(-1.0, 0.5\): ValueError"):
        _make_rhs(rt.chart, rt.field, 1.0)(-1.0, 0.5, 1.0, 0.0)
    # launched inside the domain of log, the run fails where it leaves it
    with pytest.raises(ConfigError, match=r"^expression 'log\(x\)' failed at \(x, y\) = \(-"):
        run_config(ScenarioConfig.from_dict(config))
    p = dict(config, field={"p": "x*sqrt(y)"})
    rt = ScenarioConfig.from_dict(p).runtime
    with pytest.raises(ConfigError, match=r"^derivative of expression 'x\*sqrt\(y\)' failed "
                                          r"at \(x, y\) = \(1.0, 0.0\)"):
        _make_rhs(rt.chart, rt.field, 1.0)(1.0, 0.0, 1.0, 0.0)


VALID = {"version": 1, "id": "fuzz", "chart": "half-plane", "y_min": 0.1,
         "field": {"sigma": "-log(y)"}, "initial": {"position": [0.0, 1.0], "velocity": [1.0, 0.0]},
         "integrator": {"method": "rk4", "h": 1e-3}, "span": [-0.5, 0.5], "reports": ["speed"]}
JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
                    | st.sampled_from(["plane", "half-plane", "sphere", "zero", "winding",
                                       "catalog", "sigma", "p", "f", "g", "metric", "surface"]),
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.sampled_from(["g11", "g12", "g22", "sigma", "p", "f", "g",
                                                       "surface", "metric", "bounds", "name",
                                                       "position", "velocity", "angle", "E",
                                                       "method", "h", "sample_box"]), inner,
                                      max_size=4),
                    max_leaves=8)


@given(st.sampled_from(["chart", "field", "initial", "integrator", "span", "reports", "version",
                        "y_min"]), JSON)
@settings(max_examples=300, deadline=None)
def test_config_selectors_parse_or_raise_config_error(key, value):
    raw = json.loads(json.dumps(dict(VALID, **{key: value})))
    try:
        ScenarioConfig.from_dict(raw)
    except ConfigError:
        pass
