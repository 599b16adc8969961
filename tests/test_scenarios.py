import json
import math
import re
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsiongeo.audit import uniform_step
from torsiongeo.errors import ConfigError
from torsiongeo.geometry import norm
from torsiongeo.scenarios import (_SAFE_NAMES, CATALOG, CATALOG_IDS, ScenarioConfig,
                                  build_runtime, compile_expr, run_config, run_scenario)


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
