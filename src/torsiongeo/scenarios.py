"""Scenario catalog and JSON configuration ingestion.

A scenario bundles a chart, a vector field, a launch state, and a time
span.  The built-in catalog covers the reference situations exercised by
the acceptance suite: plane fields (zero, winding, shear, gradient),
sphere, pseudosphere, and catenoid launches.  Spans are capped at |t| <= 20
and chosen so the fixed-step integrator holds its speed-drift budget;
scenarios that run into chart boundaries stop there with a recorded event.
"""

from __future__ import annotations

import ast
import json
import math
import operator
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from pathlib import Path
from typing import Callable

from .audit import InvariantReport, conformal_constant, killing_curvature_check, make_report
from .errors import ConfigError
from .geometry import (ChartGeometry, VectorFieldSpec, euclidean_plane, half_plane,
                       scalar_partials)
from .integrate import GeodesicState, Trace, integrate_two_sided
from .plane import arcsin_invariant, flat_invariant, shear_field, winding_field
from .surfaces import CATALOG_BUILDERS, CatalogSurface, loxodrome_check


@dataclass
class Runtime:
    """Resolved chart/field pair, plus the surface when one is involved."""

    chart: ChartGeometry
    field: VectorFieldSpec
    surface: CatalogSurface | None = None


def _halfplane_sigma_runtime() -> Runtime:
    chart = half_plane(0.05)

    def components(u: float, v: float):
        return (0.0, 1.0 / v)

    fld = VectorFieldSpec(
        name="grad-log-height",
        components=components,
        sigma=lambda u, v: -math.log(v),
        sigma_grad=lambda u, v: (0.0, -1.0 / v),
    )
    return Runtime(chart=chart, field=fld)


@lru_cache(maxsize=None)
def build_runtime(key: str) -> Runtime:
    """Construct (and cache) one of the named chart/field pairings."""
    if key == "plane-zero":
        return Runtime(chart=euclidean_plane(), field=VectorFieldSpec.zero())
    if key == "plane-winding":
        return Runtime(chart=euclidean_plane(), field=winding_field())
    if key == "plane-shear":
        return Runtime(chart=euclidean_plane(), field=shear_field())
    if key == "halfplane-sigma":
        return _halfplane_sigma_runtime()
    if key in CATALOG_BUILDERS:
        surf = CATALOG_BUILDERS[key]()
        return Runtime(chart=surf.chart, field=surf.field, surface=surf)
    raise ConfigError(f"unknown runtime {key!r}")


@dataclass
class Scenario:
    """A launch specification against one of the named runtimes.

    Exactly one of ``velocity`` (chart components) or ``angle`` (radians to
    the meridian direction e1, velocity E (cos a e1 + sin a e2)) is given.
    """

    id: str
    runtime: str
    start: tuple[float, float]
    velocity: tuple[float, float] | None = None
    angle: float | None = None
    span: tuple[float, float] = (-20.0, 20.0)
    h: float = 1e-3
    E: float = 1.0
    description: str = ""

    def launch_state(self) -> GeodesicState:
        return _launch(self, build_runtime(self.runtime).surface)


def _launch(scen: Scenario, surface: CatalogSurface | None) -> GeodesicState:
    """Launch state at t = 0; an angle launch is taken in the surface frame."""
    u, v = scen.start
    if (scen.velocity is None) == (scen.angle is None):
        raise ConfigError(f"scenario {scen.id!r}: give either velocity or angle")
    if scen.velocity is not None:
        du, dv = scen.velocity
    else:
        if surface is None:
            raise ConfigError(f"scenario {scen.id!r}: angle launch needs a surface")
        e1 = surface.frame.e1(u, v)
        e2 = surface.frame.e2(u, v)
        ca, sa = math.cos(scen.angle), math.sin(scen.angle)
        du = scen.E * (ca * e1[0] + sa * e2[0])
        dv = scen.E * (ca * e1[1] + sa * e2[1])
    return GeodesicState(0.0, u, v, du, dv)


def _unit(x: float, y: float) -> tuple[float, float]:
    n = math.hypot(x, y)
    return (x / n, y / n)


#: The twelve reference scenarios, in reporting order.
CATALOG: dict[str, Scenario] = {
    s.id: s for s in [
        Scenario("plane-straight", "plane-zero", (0.0, 0.0), velocity=(1.0, 0.0),
                 description="no field; straight line"),
        Scenario("plane-winding-center", "plane-winding", (0.0, 0.0),
                 velocity=_unit(1.0, 1.0),
                 description="winding field through the origin, diagonal launch"),
        Scenario("plane-winding-offset", "plane-winding", (0.0, 2.0),
                 velocity=(1.0, 0.0),
                 description="winding field, offset start, horizontal launch"),
        Scenario("plane-shear-diagonal", "plane-shear", (1.0, 1.0),
                 velocity=_unit(1.0, 1.0),
                 description="shear field, diagonal launch; strip-confined"),
        Scenario("plane-shear-steep", "plane-shear", (1.0, 1.0),
                 velocity=_unit(-1.0, 0.5),
                 description="shear field, leftward launch; single branch"),
        Scenario("plane-gradient-halfplane", "halfplane-sigma", (0.0, 1.0),
                 velocity=(1.0, 0.0),
                 description="gradient field of -log(y) on the upper half-plane"),
        Scenario("sphere-meridian", "sphere", (math.pi / 2, 0.0), angle=0.0,
                 description="meridian launch; classical geodesic, stops at the pole cap"),
        Scenario("sphere-equator", "sphere", (math.pi / 2, 0.0), angle=math.pi / 2,
                 description="equatorial launch; stays on the equator"),
        Scenario("sphere-loxodrome-45", "sphere", (math.pi / 2, 0.0), angle=math.pi / 4,
                 span=(-2.0, 2.0),
                 description="45 degree loxodrome; span short of the pole spiral"),
        Scenario("pseudosphere-loxodrome", "pseudosphere", (2.0, 0.0),
                 angle=math.radians(85.0), span=(-10.0, 10.0),
                 description="generic pseudosphere loxodrome"),
        Scenario("pseudosphere-meridian", "pseudosphere", (1.0, 0.0), angle=0.0,
                 description="pseudosphere meridian; stops at the cusp edge"),
        Scenario("catenoid-loxodrome-45", "catenoid", (0.0, 0.0), angle=math.pi / 4,
                 description="45 degree catenoid loxodrome from the waist"),
    ]
}

CATALOG_IDS = list(CATALOG)


def run_scenario(scenario: Scenario, h: float | None = None,
                 span: tuple[float, float] | None = None,
                 method: str = "rk4") -> Trace:
    """Integrate a scenario two-sided over its span (launch at t = 0)."""
    rt = build_runtime(scenario.runtime)
    t_min, t_max = span or scenario.span
    trace = integrate_two_sided(rt.chart, rt.field, scenario.launch_state(),
                                t_min, t_max, h=h or scenario.h, method=method,
                                scenario_id=scenario.id)
    return trace


# ---------------------------------------------------------------------------
# Safe expression evaluation for inline config fields
# ---------------------------------------------------------------------------

_SAFE_NAMES: dict[str, object] = {
    name: getattr(math, name)
    for name in ("sin", "cos", "tan", "asin", "acos", "atan", "atan2",
                 "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
                 "exp", "log", "log2", "log10", "sqrt", "hypot",
                 "pi", "e", "tau")
}
_SAFE_NAMES["abs"] = abs
_CALLABLE_NAMES = frozenset(n for n, obj in _SAFE_NAMES.items() if callable(obj))
_CONSTANT_NAMES = frozenset(_SAFE_NAMES) - _CALLABLE_NAMES
_COORDS = {"x": "x", "y": "y", "u": "x", "v": "y"}
_BINARY_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)
_UNARY_OPS = (ast.UAdd, ast.USub)
_INT_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
            ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod,
            ast.UAdd: operator.pos, ast.USub: operator.neg}

# the checked body replaces BODY; every other name here is bound only in
# the function's globals, which no checked expression can name
_TEMPLATE = """
def expr(x, y):
    try:
        return _float(BODY)
    except _ERRORS as exc:
        raise _fail(x, y, exc) from exc
"""


def _quote(src: str) -> str:
    return repr(src if len(src) <= 60 else src[:57] + "...")


def _check_expr(src: str) -> ast.expr:
    """Parse ``src``, admit only the config expression grammar, return its body.

    The tree holds int and float constants, the coordinates, pi, e and tau,
    the binary operators + - * / // % **, unary + and -, and calls of the
    safe functions with positional arguments.  u and v become x and y.
    """
    tree = ast.parse(src, mode="eval")
    stack = [tree.body]
    order = []
    while stack:
        node = stack.pop()
        order.append(node)
        kind = type(node)
        if kind is ast.BinOp and isinstance(node.op, _BINARY_OPS):
            stack += (node.left, node.right)
        elif kind is ast.UnaryOp and isinstance(node.op, _UNARY_OPS):
            stack.append(node.operand)
        elif kind is ast.Constant:
            if type(node.value) not in (int, float):
                raise ConfigError(f"expression {_quote(src)}: "
                                  f"{type(node.value).__name__} constants are not allowed")
        elif kind is ast.Name:
            if node.id in _COORDS:
                node.id = _COORDS[node.id]
            elif node.id not in _CONSTANT_NAMES:
                raise ConfigError(f"expression {_quote(src)} uses forbidden name {node.id!r}")
        elif kind is ast.Call:
            if (type(node.func) is not ast.Name or node.func.id not in _CALLABLE_NAMES
                    or node.keywords):
                raise ConfigError(f"expression {_quote(src)}: only positional calls of "
                                  f"{', '.join(sorted(_CALLABLE_NAMES))} are allowed")
            stack += node.args
        else:
            what = type(getattr(node, "op", node)).__name__
            raise ConfigError(f"expression {_quote(src)}: {what} is not allowed")
    _check_int_powers(src, order)
    return tree.body


def _check_int_powers(src: str, order: list[ast.expr]) -> None:
    """Reject an int-only ``**`` whose value exceeds the float range, such as
    9**9**9, before Python computes it exactly.  Int-only subtrees are
    evaluated children first (``order`` is a pre-order walk); a power is
    bounded by its exponent times its base's bit length before it is computed.
    """
    ints: dict[ast.expr, int] = {}
    for node in reversed(order):
        kind = type(node)
        if kind is ast.Constant and type(node.value) is int:
            ints[node] = node.value
        elif kind is ast.UnaryOp and node.operand in ints:
            ints[node] = _INT_OPS[type(node.op)](ints[node.operand])
        elif kind is ast.BinOp and node.left in ints and node.right in ints:
            a, b, op = ints[node.left], ints[node.right], type(node.op)
            if op is ast.Pow and b >= 0:
                try:
                    if (abs(a).bit_length() - 1) * b >= 1024:
                        raise OverflowError
                    ints[node] = a ** b
                    float(ints[node])
                except OverflowError:
                    raise ConfigError(f"expression {_quote(src)}: an integer power "
                                      f"exceeds the float range") from None
            elif op in _INT_OPS and (b != 0 or op not in (ast.FloorDiv, ast.Mod)):
                ints[node] = _INT_OPS[op](a, b)


def compile_expr(src: str) -> Callable[[float, float], float]:
    """Compile a config expression of the chart coordinates.

    Both (x, y) and (u, v) name the two coordinates.  Only arithmetic and
    the whitelisted math functions are allowed (see ``_check_expr``); any
    other input raises ``ConfigError``.  The result is one plain function
    of (x, y) returning a float; an arithmetic, type or domain failure
    while evaluating it raises ``ConfigError`` naming the expression and
    the point.
    """
    if not isinstance(src, str):
        raise ConfigError(f"expression must be a string, got {src!r}")
    try:
        body = _check_expr(src)
        module = ast.parse(_TEMPLATE)
        call = module.body[0].body[0].body[0].value
        call.args[0] = body
        code = compile(module, "<scenario-config>", "exec")
    except ConfigError:
        raise
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        raise ConfigError(f"bad expression {_quote(src)}: {type(exc).__name__}: {exc}") from exc

    def fail(x: float, y: float, exc: Exception) -> ConfigError:
        return ConfigError(f"expression {_quote(src)} failed at (x, y) = ({x!r}, {y!r}): "
                           f"{type(exc).__name__}: {exc}")

    namespace = {"__builtins__": {}, **_SAFE_NAMES, "_float": float, "_fail": fail,
                 "_ERRORS": (ArithmeticError, TypeError, ValueError)}
    exec(code, namespace)
    return namespace["expr"]


# ---------------------------------------------------------------------------
# JSON scenario configs
# ---------------------------------------------------------------------------

KNOWN_REPORTS = ("speed", "loxodrome", "flat-invariant", "arcsin",
                 "conformal-constant", "killing-curvature")


@dataclass
class ScenarioConfig:
    """A single JSON-configured run: selectors, launch, reports, outputs."""

    id: str
    runtime: Runtime
    scenario: Scenario
    reports: list[str] = dc_field(default_factory=list)
    method: str = "rk4"

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if raw.get("version") != 1:
            raise ConfigError("config version must be 1")
        sid = raw.get("id")
        if not isinstance(sid, str) or not sid:
            raise ConfigError("config needs a nonempty string 'id'")

        reports = raw.get("reports", [])
        if not isinstance(reports, list) or any(r not in KNOWN_REPORTS for r in reports):
            raise ConfigError(f"reports must be a list drawn from {KNOWN_REPORTS}")
        integ = raw.get("integrator", {})
        if not isinstance(integ, dict):
            raise ConfigError("integrator must be a JSON object")
        method = integ.get("method", "rk4")
        if method not in ("rk4", "rk45"):
            raise ConfigError(f"unknown integrator method {method!r}")
        h = _number(integ.get("h", 1e-3), "integrator.h")
        if not h > 0.0:
            raise ConfigError(f"integrator.h must be positive, got {h!r}")

        if "scenario" in raw:
            base = CATALOG.get(raw["scenario"]) if isinstance(raw["scenario"], str) else None
            if base is None:
                raise ConfigError(f"unknown catalog scenario {raw['scenario']!r}")
            rt = build_runtime(base.runtime)
            scen = Scenario(id=sid, runtime=base.runtime, start=base.start,
                            velocity=base.velocity, angle=base.angle,
                            span=_span(raw.get("span", base.span)),
                            h=h)
            return cls(id=sid, runtime=rt, scenario=scen, reports=reports, method=method)

        rt = _resolve_runtime(raw)
        scen = _resolve_launch(sid, raw, rt, h)
        return cls(id=sid, runtime=rt, scenario=scen, reports=reports, method=method)

    def run(self) -> tuple[Trace, list[InvariantReport]]:
        return run_config(self)


def _resolve_runtime(raw: dict) -> Runtime:
    chart_sel = raw.get("chart")
    field_sel = raw.get("field", "zero")

    surface = None
    if isinstance(chart_sel, str):
        if chart_sel == "plane":
            chart = euclidean_plane()
        elif chart_sel == "half-plane":
            chart = half_plane(_number(raw.get("y_min", 0.05), "y_min"))
        elif chart_sel in CATALOG_BUILDERS:
            surface = CATALOG_BUILDERS[chart_sel]()
            chart = surface.chart
        else:
            raise ConfigError(f"unknown chart {chart_sel!r}")
    elif isinstance(chart_sel, dict) and "surface" in chart_sel:
        name = chart_sel["surface"]
        if not isinstance(name, str) or name not in CATALOG_BUILDERS:
            raise ConfigError(f"unknown surface {name!r}")
        surface = CATALOG_BUILDERS[name]()
        chart = surface.chart
    elif isinstance(chart_sel, dict) and "metric" in chart_sel:
        comp = chart_sel["metric"]
        try:
            g11 = compile_expr(comp["g11"])
            g12 = compile_expr(comp.get("g12", "0"))
            g22 = compile_expr(comp["g22"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"inline metric needs g11 and g22: {exc}") from exc
        bounds = _numbers(chart_sel.get("bounds", (-math.inf, math.inf, -math.inf, math.inf)),
                          4, "bounds", finite=False)
        chart = ChartGeometry(
            name=chart_sel.get("name", "inline"),
            metric=lambda u, v: (g11(u, v), g12(u, v), g22(u, v)),
            bounds=bounds,
            sample_box=(_numbers(chart_sel["sample_box"], 4, "sample_box")
                        if "sample_box" in chart_sel else None),
        )
    else:
        raise ConfigError("config needs a 'chart' selector")

    field = _resolve_field(field_sel, chart, surface)
    return Runtime(chart=chart, field=field, surface=surface)


def _resolve_field(sel, chart: ChartGeometry, surface: CatalogSurface | None) -> VectorFieldSpec:
    if sel == "zero":
        return VectorFieldSpec.zero()
    if sel == "winding":
        return winding_field()
    if sel == "shear":
        return shear_field()
    if sel == "catalog":
        if surface is None:
            raise ConfigError("field 'catalog' needs a surface chart")
        return surface.field
    if isinstance(sel, dict) and "sigma" in sel:
        sigma = compile_expr(sel["sigma"])
        return VectorFieldSpec.minus_grad("config-sigma", sigma, chart)
    if isinstance(sel, dict) and "p" in sel:
        p = compile_expr(sel["p"])

        def components(x: float, y: float) -> tuple[float, float]:
            px, py = scalar_partials(p, x, y)
            return py, -px

        return VectorFieldSpec(name="config-p", components=components, flat_potential=p)
    if isinstance(sel, dict) and "f" in sel and "g" in sel:
        f = compile_expr(sel["f"])
        g = compile_expr(sel["g"])
        return VectorFieldSpec(name="config-inline",
                               components=lambda x, y: (f(x, y), g(x, y)))
    raise ConfigError(f"cannot resolve field selector {sel!r}")


def _resolve_launch(sid: str, raw: dict, rt: Runtime, h: float) -> Scenario:
    init = raw.get("initial")
    if not isinstance(init, dict) or "position" not in init:
        raise ConfigError("config needs initial.position")
    pos = _numbers(init["position"], 2, "initial.position")
    has_vel = "velocity" in init
    has_ang = "angle_deg" in init or "angle" in init
    if has_vel == has_ang:
        raise ConfigError("give exactly one of initial.velocity or initial.angle")
    velocity = None
    angle = None
    if has_vel:
        velocity = _numbers(init["velocity"], 2, "initial.velocity")
        if velocity == (0.0, 0.0):
            raise ConfigError("initial.velocity must be a nonzero pair")
    elif "angle_deg" in init:
        angle = math.radians(_number(init["angle_deg"], "initial.angle_deg"))
    else:
        angle = _number(init["angle"], "initial.angle")
    E = _number(init.get("E", 1.0), "initial.E")
    if not E > 0.0:
        raise ConfigError(f"initial.E must be positive, got {E!r}")
    return Scenario(id=sid, runtime="__inline__", start=pos, velocity=velocity,
                    angle=angle, span=_span(raw.get("span", (-1.0, 1.0))),
                    h=h, E=E)


def _number(value, what: str, finite: bool = True) -> float:
    """A JSON number as a float, or ConfigError naming ``what``; unless ``finite``
    is off, Infinity and NaN, which Python's JSON admits, fail too."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc
    if finite and not math.isfinite(x):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return x


def _numbers(value, n: int, what: str, finite: bool = True) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ConfigError(f"{what} must be a list of {n} numbers, got {value!r}")
    return tuple(_number(x, f"{what}[{i}]", finite) for i, x in enumerate(value))


def _span(value) -> tuple[float, float]:
    span = _numbers(value, 2, "span")
    if not span[0] <= 0.0 <= span[1]:
        raise ConfigError(f"span must be [t_min, t_max] containing 0, got {value!r}")
    return span


def run_config(config: ScenarioConfig) -> tuple[Trace, list[InvariantReport]]:
    """Integrate a resolved config and compute its requested reports."""
    scen = config.scenario
    rt = config.runtime
    trace = integrate_two_sided(rt.chart, rt.field, _launch(scen, rt.surface),
                                scen.span[0], scen.span[1],
                                h=scen.h, method=config.method, scenario_id=scen.id)
    reports = [execute_report(name, trace, rt) for name in config.reports]
    return trace, reports


def execute_report(name: str, trace: Trace, rt: Runtime) -> InvariantReport:
    """Run one named invariant report against a trace."""
    if name == "speed":
        rep = make_report("speed", trace.t, trace.speed)
        rep.max_dev = trace.max_speed_drift()
        rep.threshold = 1e-6
        rep.passed = rep.max_dev < 1e-6
        return rep
    if name == "loxodrome":
        if rt.surface is None:
            raise ConfigError("loxodrome report needs a surface scenario")
        return loxodrome_check(trace, rt.surface)
    if name == "flat-invariant":
        return flat_invariant(trace)
    if name == "arcsin":
        return arcsin_invariant(trace)
    if name == "conformal-constant":
        return conformal_constant(trace)
    if name == "killing-curvature":
        return killing_curvature_check(trace)
    raise ConfigError(f"unknown report {name!r}")
