import ast
import json
import math
import re
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsiongeo import geometry
from torsiongeo.audit import uniform_step
from torsiongeo.errors import ConfigError, MetricDegeneracyError
from torsiongeo.geometry import ChartGeometry, norm
from torsiongeo.expr import _SAFE_NAMES, _compile
from torsiongeo.scenarios import (CATALOG, CATALOG_IDS, ScenarioConfig, build_runtime,
                                  compile_expr, run_config, run_scenario)


def test_catalog_has_twelve_scenarios():
    assert len(CATALOG_IDS) == 12
    assert len(set(CATALOG_IDS)) == 12


def test_all_catalog_launches_resolve_to_unit_speed():
    for sid in CATALOG_IDS:
        scen = CATALOG[sid]
        rt = build_runtime(scen.runtime)
        state = scen.launch_state()
        speed = norm(rt.chart, (state.u, state.v), (state.du, state.dv))
        assert speed == pytest.approx(1.0, abs=1e-12), sid


def test_angle_launch_matches_frame():
    scen = CATALOG["sphere-loxodrome-45"]
    state = scen.launch_state()
    # at the equator e1 = (1, 0), e2 = (0, 1)
    assert state.du == pytest.approx(math.cos(math.pi / 4))
    assert state.dv == pytest.approx(math.sin(math.pi / 4))


def test_compile_expr_whitelist():
    fn = compile_expr("sin(x) + y**2")
    assert fn(0.5, 2.0) == pytest.approx(math.sin(0.5) + 4.0)
    with pytest.raises(ConfigError):
        compile_expr("__import__('os')")
    with pytest.raises(ConfigError):
        compile_expr("open('x')")


@pytest.mark.parametrize("src", [
    "(lambda: ().__class__.__base__.__subclasses__().__len__())()",
    "x.real",
    "x[0]",
    "lambda: x",
    "[t for t in (x, y)]",
    "abs(*(x,))",
    "hypot(x, y=y)",
    "pi(x)",
    "sin(x)(y)",
    "sin + x",
    "'1'",
    "True",
    "None",
    "1j",
    "x if y else 1",
    "x < y",
    "z",
    "",
    1.0,
])
def test_compile_expr_rejects_outside_the_grammar(src):
    with pytest.raises(ConfigError):
        compile_expr(src)


def test_int_power_tower_fails_at_compile_time():
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="float range"):
        compile_expr("9**9**9")
    assert time.perf_counter() - start < 1.0
    # int arithmetic stays exact below the float range
    assert compile_expr("(10**17+1)-10**17")(0.0, 0.0) == 1.0
    assert compile_expr("2**1023")(0.0, 0.0) == 2.0 ** 1023
    assert compile_expr("1**(9**9)")(0.0, 0.0) == 1.0
    with pytest.raises(ConfigError, match="float range"):
        compile_expr("x + 3**700")


def test_compile_expr_coordinate_aliases():
    assert compile_expr("u*v - x")(2.0, 3.0) == 4.0
    assert compile_expr("hypot(v, 4)")(0.5, 3.0) == 5.0


@pytest.mark.parametrize("src, point, error", [
    ("1/x", (0.0, 1.0), "ZeroDivisionError"),
    ("exp(1000*x)", (1.0, 0.0), "OverflowError"),
    ("(-1-x*x)**0.5", (0.0, 0.0), "TypeError"),
    ("log(y)", (0.0, -1.0), "ValueError"),
])
def test_compiled_expr_failures_name_expression_and_point(src, point, error):
    fn = compile_expr(src)
    with pytest.raises(ConfigError, match=error) as info:
        fn(*point)
    assert repr(src) in str(info.value)
    assert f"({point[0]!r}, {point[1]!r})" in str(info.value)


def _old_eval(src: str, a: float, b: float) -> float:
    """The evaluation compile_expr replaced: eval with a fresh locals dict."""
    return float(eval(src, {"__builtins__": {}},
                      {**_SAFE_NAMES, "x": a, "y": b, "u": a, "v": b}))


_UNARY = ("sin", "cos", "tan", "asin", "acos", "atan", "sinh", "cosh", "tanh",
          "asinh", "acosh", "atanh", "exp", "log", "log2", "log10", "sqrt", "abs")
_LEAVES = st.one_of(
    st.sampled_from(["x", "y", "u", "v", "pi", "e", "tau"]),
    st.integers(0, 9).map(str),
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
)

# a power's exponent is a small leaf, so no integer tower like 9**9**9 occurs
_EXPONENTS = st.one_of(
    st.sampled_from(["x", "y", "u", "v", "pi", "e", "tau"]),
    st.integers(0, 3).map(str),
    st.floats(-4.0, 4.0).map(repr),
)


def _grow(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", "//", "%"]),
                  children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(children, _EXPONENTS).map(lambda t: f"({t[0]})**{t[1]}"),
        st.tuples(st.sampled_from(["+", "-"]), children).map(lambda t: f"({t[0]}{t[1]})"),
        st.tuples(st.sampled_from(_UNARY), children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["atan2", "hypot"]), children,
                  children).map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
    )


@settings(max_examples=300, deadline=None)
@given(src=st.recursive(_LEAVES, _grow, max_leaves=8),
       a=st.floats(allow_nan=False), b=st.floats(-10.0, 10.0))
def test_compiled_expr_matches_eval_bitwise(src, a, b):
    fn = compile_expr(src)
    try:
        want = _old_eval(src, a, b)
    except Exception:
        with pytest.raises(ConfigError):
            fn(a, b)
        return
    assert struct.pack("<d", fn(a, b)) == struct.pack("<d", want)


def _partials(src: str):
    """(value, d/dx, d/dy) of an expression from the exact derivative compiler."""
    return _compile((src,), "return (v0, v0x, v0y)")[0]


def _central(fn, a: float, b: float, axis: int, h: float) -> tuple[float, float]:
    """The central difference of fn along one axis, and the forward minus
    the backward difference, about h f'' where fn is smooth."""
    def at(t):
        return fn(a + t, b) if axis == 0 else fn(a, b + t)
    lo, mid, hi = at(-h), at(0.0), at(h)
    return (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / h


# Central differences see features no wider than their step only as noise,
# so some inputs are left out.  a // b and a % b: near a dense staircase of
# jumps a difference reads the staircase's mean slope at every step size
# (test_exact_partials_match_sympy checks their rules).  Coordinates within
# 1e-3 of 0 but not 0: at x = 1e-247, x**1e-50 has slope 1e196, which no
# difference step of a safe size resolves.  Constants within 1e-3 of 0 but
# not 0: x / 2e-311 overflows to inf inside atan2(x, x / 2e-311), whose
# value stays finite while its partials read inf - inf.
def _away_from_zero(lo: float, hi: float):
    return st.floats(lo, hi).filter(lambda t: t == 0.0 or abs(t) >= 1e-3)


_COORDINATES = _away_from_zero(-10.0, 10.0)
_SMOOTH_LEAVES = st.one_of(
    st.sampled_from(["x", "y", "u", "v", "pi", "e", "tau"]),
    st.integers(0, 9).map(str),
    _away_from_zero(-1e3, 1e3).map(repr),
)


@settings(max_examples=300, deadline=None)
@given(src=st.recursive(_SMOOTH_LEAVES, _grow, max_leaves=8).filter(
           lambda s: " // " not in s and " % " not in s),
       a=_COORDINATES, b=_COORDINATES)
def test_exact_partials_match_central_differences(src, a, b):
    fn, exact = compile_expr(src), _partials(src)
    for axis in (0, 1):
        h = 1e-4 * max(1.0, abs((a, b)[axis]))
        try:
            wide, wide_gap = _central(fn, a, b, axis, h)
            fine, fine_gap = _central(fn, a, b, axis, 0.5 * h)
            size = max(abs(fn(a, b)), abs(fn(a + h, b)), abs(fn(a, b + h)))
        except ConfigError:
            continue
        scale = 1.0 + abs(fine)
        # well conditioned: both steps agree, the one-sided gap halves with
        # the step (no jump or kink within reach), and roundoff is small
        if not (math.isfinite(wide) and math.isfinite(fine) and math.isfinite(size)
                and abs(wide - fine) <= 1e-6 * scale
                and abs(fine_gap - 0.5 * wide_gap) <= 1e-6 * scale
                and 1e-15 * size / h <= 1e-8 * scale):
            continue
        try:
            value, *grad = exact(a, b)
        except ConfigError as exc:
            # the value is defined here, so only a partial may fail, at a
            # point where its rule has no value (such as d sqrt(t) at t = 0)
            assert str(exc).startswith("derivative of expression")
            continue
        assert struct.pack("<d", value) == struct.pack("<d", fn(a, b))
        assert abs(grad[axis] - fine) <= 1e-5 * scale, (src, axis, grad[axis], fine)


class _PiecewiseOps(ast.NodeTransformer):
    """a // b and a % b as calls, so sympy applies the piecewise rules."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        name = {ast.FloorDiv: "floordiv", ast.Mod: "mod"}.get(type(node.op))
        if name is None:
            return node
        return ast.Call(ast.Name(name, ast.Load()), [node.left, node.right], [])


def _sympy_partials(src: str, a: float, b: float) -> tuple[float, float]:
    sympy = pytest.importorskip("sympy")

    class _floor(sympy.Function):
        """floor with the piecewise rule the compiler uses: derivative 0."""

        @classmethod
        def eval(cls, arg):
            if arg.is_Number:
                return sympy.floor(arg)

        def fdiff(self, argindex=1):
            return sympy.S.Zero

    x, y = sympy.symbols("x y", real=True)
    names = {name: getattr(sympy, name) for name in
             ("sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh",
              "tanh", "asinh", "acosh", "atanh", "exp", "log", "sqrt", "pi", "E")}
    names.update(x=x, y=y, u=x, v=y, e=sympy.E, tau=2 * sympy.pi, abs=sympy.Abs,
                 log2=lambda t: sympy.log(t, 2), log10=lambda t: sympy.log(t, 10),
                 hypot=lambda *ts: sympy.sqrt(sum(t * t for t in ts)),
                 floordiv=lambda p, q: _floor(p / q),
                 mod=lambda p, q: p - q * _floor(p / q))
    tree = ast.fix_missing_locations(_PiecewiseOps().visit(ast.parse(src, mode="eval")))
    expr = eval(compile(tree, "<rule>", "eval"), {"__builtins__": {}}, names)
    point = {x: sympy.Float(a, 30), y: sympy.Float(b, 30)}
    return tuple(float(sympy.diff(expr, s).subs(point).evalf(30)) for s in (x, y))


# every rule of the grammar, each on arguments that vary along both axes
_RULE_CASES = [
    "x + y", "x - y", "x * y", "x / y", "x // y", "(x*y) // y", "x % y", "(x*y) % (x + y)",
    "-(x*y)", "+(x*y)", "(x*y)**3", "(x + y)**2.5", "2**(x*y)", "e**(x - y)", "(x*y)**(x + y)",
    "(x - 1.3)**0", "x**y", "sin(x*y)", "cos(x*y)", "tan(x*y)", "asin(x*y/4)", "acos(x*y/4)",
    "atan(x*y)", "atan2(x*y, x + y)", "sinh(x*y)", "cosh(x*y)", "tanh(x*y)", "asinh(x*y)",
    "acosh(1 + x*y)", "atanh(x*y/4)", "exp(x*y)", "log(x*y)", "log(x*y, x + y)", "log(x*y, 3)",
    "log2(x*y)", "log10(x*y)", "sqrt(x*y)", "hypot(x*y)", "hypot(x, y)", "hypot(x, y, x*y, 2)",
    "abs(x - y)", "abs(y - x)", "abs(x*y - 0.91)", "u*v + pi*tau",
]


@pytest.mark.parametrize("src", _RULE_CASES)
def test_exact_partials_match_sympy(src):
    a, b = 1.3, 0.7
    _, *grad = _partials(src)(a, b)
    for got, want in zip(grad, _sympy_partials(src, a, b)):
        assert abs(got - want) <= 1e-13 * (1.0 + abs(want)), (src, got, want)


def test_partials_that_fail_name_the_expression_and_the_point():
    with pytest.raises(ConfigError) as info:
        _partials("sqrt(y)")(2.0, 0.0)
    message = str(info.value)
    assert message.startswith("derivative of expression 'sqrt(y)' failed at (x, y) = (2.0, 0.0)")
    assert "ZeroDivisionError" in message
    with pytest.raises(ConfigError, match=r"expression 'sin\(x, y\)' failed at \(x, y\) = "
                                          r"\(1.0, 2.0\): TypeError"):
        _partials("sin(x, y)")(1.0, 2.0)
    with pytest.raises(ConfigError, match=r"^expression 'x \+ sin\(\)' failed at \(x, y\) = "
                                          r"\(1.0, 2.0\): TypeError"):
        _partials("x + sin()")(1.0, 2.0)
    # one function of several expressions names the one that fails
    metric, = _compile(("1 + x*x", "log(x)", "1 + sqrt(y)"), "return (v0x, v1x, v2y)")
    with pytest.raises(ConfigError, match=r"^expression 'log\(x\)' failed at \(x, y\) = "
                                          r"\(-1.0, 0.0\): ValueError"):
        metric(-1.0, 0.0)
    with pytest.raises(ConfigError, match=r"^derivative of expression '1 \+ sqrt\(y\)' "
                                          r"failed at \(x, y\) = \(1.0, 0.0\)"):
        metric(1.0, 0.0)
    for src in ("-" * 100000 + "x", "1" + "+1" * 200000):
        with pytest.raises(ConfigError):
            _partials(src)


def test_partials_of_calls_without_arguments_and_of_wide_and_deep_trees():
    assert _partials("x + hypot()")(1.0, 2.0) == (1.0, 1.0, 0.0)
    # one statement per operation: no nesting limit of Python's tokenizer
    # and no Python recursion over the terms of a wide hypot
    deep = "(" * 199 + "x*y" + ")" * 199
    assert _partials(deep)(3.0, 2.0) == (6.0, 2.0, 3.0)
    assert compile_expr(deep)(3.0, 2.0) == 6.0
    wide = "hypot(" + "x*y, " * 1000 + "x)"
    value, dx, dy = _partials(wide)(1.0, 2.0)
    assert value == compile_expr(wide)(1.0, 2.0)
    assert math.isclose(dx, 4001.0 / value, rel_tol=1e-12)
    assert math.isclose(dy, 2000.0 / value, rel_tol=1e-12)


def test_one_module_shares_the_values_between_its_functions():
    value, grad = _compile(("x*log(y)",), "return v0", "return (v0x, v0y)")
    assert value(3.0, 1.0) == 0.0 and grad(3.0, 1.0) == (0.0, 3.0)
    # the gradient evaluates the value first, and a failure there is the value's
    with pytest.raises(ConfigError, match=r"^expression 'x\*log\(y\)' failed"):
        grad(3.0, -1.0)


_NON_DIAGONAL = {"metric": {"g11": "2 + sin(x*y)", "g12": "0.3*cos(x - y)",
                            "g22": "1 + x*x/(1 + y*y)"}, "name": "tilted"}


def test_inline_metric_christoffels_match_central_differences():
    chart = ScenarioConfig.from_dict({
        "version": 1, "id": "tilted", "chart": _NON_DIAGONAL,
        "initial": {"position": [0.0, 0.0], "velocity": [1.0, 0.0]}}).runtime.chart
    assert chart.metric(0.4, -1.1) == (2.0 + math.sin(0.4 * -1.1), 0.3 * math.cos(0.4 + 1.1),
                                       1.0 + 0.4 * 0.4 / (1.0 + 1.1 * 1.1))
    for u in np.linspace(-2.0, 2.0, 5):
        for v in np.linspace(-2.0, 2.0, 5):
            exact = np.array(chart.christoffel_analytic(u, v))
            assert np.max(np.abs(exact - np.array(chart.christoffel_fd(u, v)))) < 1e-7
    flat = ScenarioConfig.from_dict({
        "version": 1, "id": "flat", "chart": {"metric": {"g11": "x", "g22": "1"}},
        "initial": {"position": [1.0, 0.0], "velocity": [1.0, 0.0]}}).runtime.chart
    for gamma in (flat.christoffel_analytic, flat.christoffel_fd):
        with pytest.raises(MetricDegeneracyError,
                           match=r"chart 'inline' is not positive definite at \(-1.0, 0.5\)"):
            gamma(-1.0, 0.5)


@pytest.mark.parametrize("chart, field", [
    ("plane", {"p": "0.3*(x*x + y*y) - 0.2*x*y"}),
    ("half-plane", {"sigma": "-0.8*log(y)"}),
    ({"metric": {"g11": "1/(y*y)", "g22": "1/(y*y)"}, "bounds": [-1e3, 1e3, 0.2, 1e3]}, "zero"),
    (_NON_DIAGONAL, {"sigma": "0.1*x*y"}),
], ids=["p", "sigma", "metric", "metric-sigma"])
def test_config_derivatives_take_no_finite_differences(monkeypatch, chart, field):
    def forbidden(*args):
        raise AssertionError("a config derivative took finite differences")

    monkeypatch.setattr(ChartGeometry, "christoffel_fd", forbidden)
    monkeypatch.setattr(geometry, "scalar_partials", forbidden)
    cfg = {"version": 1, "id": "exact", "chart": chart, "field": field,
           "initial": {"position": [0.3, 1.2], "velocity": [0.6, 0.8]},
           "span": [-0.5, 0.5], "reports": ["speed"]}
    trace, reports = run_config(ScenarioConfig.from_dict(cfg))
    assert len(trace) == 1001 and reports[0].passed


def test_config_round_trip(tmp_path):
    cfg = {
        "version": 1,
        "id": "demo",
        "chart": "plane",
        "field": "winding",
        "initial": {"position": [0.0, 2.0], "velocity": [1.0, 0.0]},
        "span": [-0.5, 0.5],
        "integrator": {"h": 1e-3},
        "reports": ["speed", "flat-invariant", "killing-curvature"],
    }
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(cfg))
    config = ScenarioConfig.from_file(path)
    trace, reports = run_config(config)
    assert trace.t[0] == pytest.approx(-0.5)
    assert trace.t[-1] == pytest.approx(0.5)
    assert all(r.passed for r in reports)


def test_config_with_inline_potential(tmp_path):
    cfg = {
        "version": 1,
        "id": "inline-p",
        "chart": "plane",
        "field": {"p": "y**2/2"},
        "initial": {"position": [1.0, 1.0], "velocity": [0.7071067811865476, 0.7071067811865476]},
        "span": [0.0, 1.0],
        "reports": ["flat-invariant", "arcsin"],
    }
    config = ScenarioConfig.from_dict(cfg)
    trace, reports = run_config(config)
    assert all(r.passed for r in reports)


def test_config_with_sigma_field():
    cfg = {
        "version": 1,
        "id": "sigma",
        "chart": "half-plane",
        "field": {"sigma": "-log(y)"},
        "initial": {"position": [0.0, 1.0], "velocity": [1.0, 0.0]},
        "span": [0.0, 0.5],
        "reports": ["speed"],
    }
    trace, reports = run_config(ScenarioConfig.from_dict(cfg))
    assert reports[0].passed


def test_config_with_surface_and_angle():
    cfg = {
        "version": 1,
        "id": "sph",
        "chart": {"surface": "sphere"},
        "field": "catalog",
        "initial": {"position": [1.5707963267948966, 0.0], "angle_deg": 45.0},
        "span": [0.0, 1.0],
        "reports": ["speed", "loxodrome", "conformal-constant"],
    }
    trace, reports = run_config(ScenarioConfig.from_dict(cfg))
    assert all(r.passed for r in reports)


def test_config_with_inline_metric():
    cfg = {
        "version": 1,
        "id": "inline-metric",
        "chart": {"metric": {"g11": "1", "g22": "sin(x)**2"},
                  "bounds": [0.001, 3.14059, -1e9, 1e9],
                  "name": "inline-sphere"},
        "field": "zero",
        "initial": {"position": [1.5707963267948966, 0.0], "velocity": [0.0, 1.0]},
        "span": [0.0, 1.0],
        "reports": ["speed"],
    }
    trace, reports = run_config(ScenarioConfig.from_dict(cfg))
    assert reports[0].passed
    assert np.max(np.abs(trace.u - math.pi / 2)) < 1e-8


def test_config_with_adaptive_integrator():
    cfg = {
        "version": 1,
        "id": "adaptive",
        "chart": "plane",
        "field": "winding",
        "initial": {"position": [0.0, 2.0], "velocity": [1.0, 0.0]},
        "span": [-1.0, 1.0],
        "integrator": {"method": "rk45", "h": 1e-2},
        "reports": ["speed"],
    }
    trace, reports = run_config(ScenarioConfig.from_dict(cfg))
    assert uniform_step(trace.t) is None
    assert reports[0].passed


def test_catalog_shortcut_config():
    cfg = {"version": 1, "id": "short", "scenario": "plane-straight",
           "span": [-0.25, 0.25], "reports": ["speed"]}
    trace, reports = run_config(ScenarioConfig.from_dict(cfg))
    assert len(trace) == 501



@pytest.mark.parametrize("sid", CATALOG_IDS)
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_catalog_shortcut_runs_the_catalog_launch(sid, method):
    cfg = {"version": 1, "id": sid, "scenario": sid, "span": [-0.05, 0.05],
           "integrator": {"method": method}}
    trace, _ = run_config(ScenarioConfig.from_dict(cfg))
    want = run_scenario(CATALOG[sid], span=(-0.05, 0.05), method=method)
    for col in ("t", "u", "v", "du", "dv", "speed", "kappa", "g_v"):
        assert getattr(trace, col).tobytes() == getattr(want, col).tobytes()
    assert (trace.E, trace.stop_reason) == (want.E, want.stop_reason)


@pytest.mark.parametrize("E", [0.0, -1.0])
def test_nonpositive_launch_speed_fails_at_parse_time(E):
    raw = {"version": 1, "id": "x", "chart": "sphere", "field": "catalog",
           "initial": {"position": [1, 0], "angle_deg": 10, "E": E}}
    with pytest.raises(ConfigError, match=re.escape("initial.E must be positive")):
        ScenarioConfig.from_dict(raw)


@pytest.mark.parametrize("raw", [
    {},
    {"version": 2, "id": "x", "chart": "plane",
     "initial": {"position": [0, 0], "velocity": [1, 0]}, "span": [0, 1]},
    {"version": True, "id": "x", "chart": "plane",
     "initial": {"position": [0, 0], "velocity": [1, 0]}, "span": [0, 1]},
    {"version": 1.0, "id": "x", "chart": "plane",
     "initial": {"position": [0, 0], "velocity": [1, 0]}, "span": [0, 1]},
    {"version": 1, "chart": "plane",
     "initial": {"position": [0, 0], "velocity": [1, 0]}, "span": [0, 1]},
    {"version": 1, "id": "x", "chart": "nowhere",
     "initial": {"position": [0, 0], "velocity": [1, 0]}, "span": [0, 1]},
    {"version": 1, "id": "x", "chart": "plane",
     "initial": {"position": [0, 0]}, "span": [0, 1]},
    {"version": 1, "id": "x", "chart": "plane",
     "initial": {"position": [0, 0], "velocity": [1, 0], "angle_deg": 10}, "span": [0, 1]},
    {"version": 1, "id": "x", "chart": "plane",
     "initial": {"position": [0, 0], "velocity": [0, 0]}, "span": [0, 1]},
    {"version": 1, "id": "x", "chart": "plane",
     "initial": {"position": [0, 0], "velocity": [1, 0]}, "span": [1, 2]},
    {"version": 1, "id": "x", "chart": "plane", "field": {"bogus": 1},
     "initial": {"position": [0, 0], "velocity": [1, 0]}, "span": [0, 1]},
    {"version": 1, "id": "x", "chart": "plane",
     "initial": {"position": [0, 0], "velocity": [1, 0]}, "span": [0, 1],
     "reports": ["nope"]},
])
def test_config_validation_errors(raw):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(raw)


@pytest.mark.parametrize("shortcut", [False, True], ids=["inline", "catalog"])
@pytest.mark.parametrize("key, value, message", [
    ("h", 0.0, "integrator.h must be positive"),
    ("h", -1.0, "integrator.h must be positive"),
    ("h", math.nan, "integrator.h must be a finite number"),
    ("h", math.inf, "integrator.h must be a finite number"),
    ("span", [-1.0, math.inf], "span[1] must be a finite number"),
    ("span", [-math.inf, 1.0], "span[0] must be a finite number"),
])
def test_config_numbers_checked_at_parse_time(shortcut, key, value, message):
    raw = ({"version": 1, "id": "x", "scenario": "plane-straight"} if shortcut else
           {"version": 1, "id": "x", "chart": "plane",
            "initial": {"position": [0, 0], "velocity": [1, 0]}})
    if key == "h":
        raw["integrator"] = {"h": value}
    else:
        raw[key] = value
    with pytest.raises(ConfigError, match=re.escape(message)):
        ScenarioConfig.from_dict(raw)


@pytest.mark.parametrize("initial, message", [
    ({"position": [math.nan, 0.0], "velocity": [1, 0]}, "initial.position"),
    ({"position": [1.0, math.inf], "velocity": [1, 0]}, "initial.position"),
    ({"position": [1.0, 0.0], "velocity": [math.inf, 0.0]}, "initial.velocity"),
    ({"position": [1.0, 0.0], "velocity": [1.0, math.nan]}, "initial.velocity"),
    ({"position": [1.0, 0.0], "angle": math.inf}, "initial.angle"),
    ({"position": [1.0, 0.0], "angle_deg": 10, "E": math.nan}, "initial.E"),
])
def test_launch_numbers_must_be_finite(initial, message):
    raw = {"version": 1, "id": "x", "chart": "sphere", "field": "catalog", "initial": initial}
    with pytest.raises(ConfigError, match=f"{message}.* must be a finite number"):
        ScenarioConfig.from_dict(raw)


def test_infinite_chart_bounds_stay_valid():
    raw = {"version": 1, "id": "x", "span": [-0.1, 0.1],
           "chart": {"metric": {"g11": "1", "g22": "1"},
                     "bounds": [-math.inf, math.inf, 0.0, math.inf]},
           "initial": {"position": [0, 1], "velocity": [1, 0]}}
    trace, _ = run_config(ScenarioConfig.from_dict(raw))
    assert trace.stop_reason == "t1/t1"


def test_boundary_scenarios_record_stop():
    tr = run_scenario(CATALOG["plane-gradient-halfplane"])
    assert tr.stop_reason == "boundary/boundary"
    assert np.min(tr.v) > 0.05
