"""Scenario catalog and JSON configuration ingestion.

A scenario bundles a chart, a vector field, a launch state, and a time
span.  The built-in catalog covers the reference situations exercised by
the acceptance suite: plane fields (zero, winding, shear, gradient),
sphere, pseudosphere, and catenoid launches.  Spans are capped at |t| <= 20
and chosen so the fixed-step integrator holds its speed-drift budget;
scenarios that run into chart boundaries stop there with a recorded event.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from pathlib import Path

from .audit import InvariantReport, conformal_constant, killing_curvature_check, make_report
from .errors import ConfigError
from .expr import compile_expr  # noqa: F401  the name perfbench's tracer binds
from .geometry import (PLANE, ZERO_FIELD, ChartGeometry, ChartSource, FieldSource,
                       VectorFieldSpec, built_in_runtime, compile_runtime, half_plane_source)
from .integrate import GeodesicState, Trace, integrate_two_sided
from .plane import SHEAR, WINDING, arcsin_invariant, flat_invariant
from .surfaces import CATALOG_BUILDERS, CatalogSurface, loxodrome_check


@dataclass
class Runtime:
    """Resolved chart/field pair, plus the surface when one is involved."""

    chart: ChartGeometry
    field: VectorFieldSpec
    surface: CatalogSurface | None = None


#: The plane and half-plane runtimes by their sources; each surface
#: runtime is its CATALOG_BUILDERS surface's chart and field.
_SOURCE_RUNTIMES = {
    "plane-zero": (PLANE, ZERO_FIELD),
    "plane-winding": (PLANE, WINDING),
    "plane-shear": (PLANE, SHEAR),
    "halfplane-sigma": (half_plane_source(0.05),
                        FieldSource("grad-log-height", "sigma", ("-log(y)",))),
}


@lru_cache(maxsize=None)
def build_runtime(key: str) -> Runtime:
    """Construct (and cache) one of the named chart/field pairings."""
    if key in _SOURCE_RUNTIMES:
        chart, field = built_in_runtime(*_SOURCE_RUNTIMES[key])
        return Runtime(chart=chart, field=field)
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
        if type(raw.get("version")) is not int or raw["version"] != 1:
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


#: Config field selectors by name, and the built-in runtime of each
#: (chart, field) selector pair that has one.
_FIELD_SOURCES = {"zero": ZERO_FIELD, "winding": WINDING, "shear": SHEAR}
_BUILT_IN_PAIRS = {("plane", "zero"): "plane-zero", ("plane", "winding"): "plane-winding",
                   ("plane", "shear"): "plane-shear",
                   **{(name, "catalog"): name for name in CATALOG_BUILDERS}}


def _resolve_runtime(raw: dict) -> Runtime:
    """The runtime of a config's chart and field selectors: a built-in
    pair is ``build_runtime``'s, and any other pair is compiled from the
    chart's and the field's sources together."""
    chart_sel = raw.get("chart")
    field_sel = raw.get("field", "zero")
    if isinstance(chart_sel, dict) and "surface" in chart_sel:
        chart_sel = chart_sel["surface"]
        if not isinstance(chart_sel, str) or chart_sel not in CATALOG_BUILDERS:
            raise ConfigError(f"unknown surface {chart_sel!r}")
    if isinstance(chart_sel, str) and isinstance(field_sel, str):
        key = _BUILT_IN_PAIRS.get((chart_sel, field_sel))
        if key is not None:
            return build_runtime(key)

    surface = None
    if chart_sel == "plane":
        chart = PLANE
    elif chart_sel == "half-plane":
        chart = half_plane_source(_number(raw.get("y_min", 0.05), "y_min"))
    elif isinstance(chart_sel, str) and chart_sel in CATALOG_BUILDERS:
        surface = build_runtime(chart_sel).surface
        chart = surface.chart.source
    elif isinstance(chart_sel, dict) and "metric" in chart_sel:
        comp = chart_sel["metric"]
        try:
            srcs = (comp["g11"], comp.get("g12", "0"), comp["g22"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"inline metric needs g11 and g22: {exc}") from exc
        chart = ChartSource(
            name=chart_sel.get("name", "inline"), metric=srcs,
            bounds=_numbers(chart_sel.get("bounds", (-math.inf, math.inf, -math.inf, math.inf)),
                            4, "bounds", finite=False),
            sample_box=(_numbers(chart_sel["sample_box"], 4, "sample_box")
                        if "sample_box" in chart_sel else None))
    elif isinstance(chart_sel, str):
        raise ConfigError(f"unknown chart {chart_sel!r}")
    else:
        raise ConfigError("config needs a 'chart' selector")

    chart, field = compile_runtime(chart, _field_source(field_sel))
    return Runtime(chart=chart, field=field, surface=surface)


def _field_source(sel) -> FieldSource:
    if isinstance(sel, str) and sel in _FIELD_SOURCES:
        return _FIELD_SOURCES[sel]
    if sel == "catalog":
        raise ConfigError("field 'catalog' needs a surface chart")
    if isinstance(sel, dict):
        for name, kind, keys in (("config-sigma", "sigma", ("sigma",)),
                                 ("config-p", "p", ("p",)), ("config-inline", "fg", ("f", "g"))):
            if all(key in sel for key in keys):
                return FieldSource(name, kind, tuple(sel[key] for key in keys))
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
    """A JSON number as a float, or ConfigError naming ``what``: booleans and
    strings fail, and unless ``finite`` is off, Infinity and NaN, which
    Python's JSON admits, fail too."""
    if type(value) not in (int, float):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError as exc:
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
