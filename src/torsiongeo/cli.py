"""Command line interface.

Subcommands: integrate, compare-conformal, mercator, decompose, strip-bounds,
plot, suite.  Exit codes: 0 all requested checks passed, 1 a report or
criterion failed or the integration underflowed, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import algebra, suite
from .errors import ConfigError
from .integrate import GeodesicState, Trace, integrate_two_sided
from .plane import strip_bounds
from .scenarios import CATALOG, CATALOG_IDS, ScenarioConfig, build_runtime, run_config, run_scenario
from .surfaces import CATALOG_BUILDERS, embed, mercator_map
from .svgplot import plot_traces, project_orthographic, render_svg, trace_curves
from .traceio import all_passed, read_trace_csv, write_reports_json, write_trace_csv

USAGE_ERROR = 2
REPORT_FAILURE = 1


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_integrate(args) -> int:
    if bool(args.config) == bool(args.scenario):
        raise ConfigError("give exactly one of --config or --scenario")
    if args.config:
        config = ScenarioConfig.from_file(args.config)
    else:
        base = CATALOG.get(args.scenario)
        if base is None:
            raise ConfigError(
                f"unknown scenario {args.scenario!r}; known: {', '.join(CATALOG_IDS)}")
        config = ScenarioConfig(id=base.id, runtime=build_runtime(base.runtime),
                                scenario=base, reports=list(args.report or []))
    trace, reports = run_config(config)
    out = _out_dir(args)
    formats = set((args.format or "csv,json").split(","))
    written = []
    if "csv" in formats:
        written.append(write_trace_csv(trace, out / f"{config.id}.csv"))
    if "json" in formats:
        written.append(write_reports_json(reports, out / f"{config.id}.report.json",
                                          scenario_id=config.id, trace=trace))
    if "svg" in formats:
        path = out / f"{config.id}.svg"
        path.write_text(plot_traces([trace]))
        written.append(path)
    for path in written:
        print(path)
    print(f"stop: {trace.stop_reason}")
    for rep in reports:
        print(f"{rep.name}: {rep.verdict} (max_dev={rep.max_dev:.3e}, std={rep.std:.3e})")
    return 0 if all_passed(reports, trace) else REPORT_FAILURE


def _cmd_compare_conformal(args) -> int:
    from .suite import SuiteContext, criterion_conformal_equivalence

    ctx = SuiteContext(seed=args.seed)
    result = criterion_conformal_equivalence(ctx)
    wanted = [c for c in result.checks
              if args.case in c.label] if args.case else result.checks
    if not wanted:
        raise ConfigError(f"no conformal case matches {args.case!r}")
    ok = all(c.ok for c in wanted)
    for c in wanted:
        print(c)
    return 0 if ok else REPORT_FAILURE


def _cmd_mercator(args) -> int:
    builder = CATALOG_BUILDERS.get(args.surface)
    if builder is None:
        raise ConfigError(f"unknown surface {args.surface!r}")
    surf = builder()
    s0, s1 = surf.profile.s_domain
    lo = args.s_min if args.s_min is not None else s0 + 0.02 * (s1 - s0)
    hi = args.s_max if args.s_max is not None else s1 - 0.02 * (s1 - s0)
    ss = np.linspace(lo, hi, args.n)
    ys = mercator_map(surf, ss)
    lines = ["s,y"] + [f"{s:.17g},{y:.17g}" for s, y in zip(ss, ys)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_decompose(args) -> int:
    try:
        raw = json.loads(Path(args.tensor).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read tensor file: {exc}") from exc
    if isinstance(raw, dict) and "values" in raw:
        values = np.array(raw["values"], dtype=float)
    elif isinstance(raw, dict) and "vector" in raw:
        values = algebra.vectorial_tensor(np.array(raw["vector"], dtype=float)).values
    else:
        raise ConfigError("tensor JSON needs a 'values' array or a 'vector'")
    try:
        tensor = algebra.DifferenceTensor(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    dec = algebra.decompose(tensor)
    print(f"n = {tensor.n}")
    print(f"vector part      : {np.array2string(dec.vector, precision=12)}")
    print(f"skew components  : {np.array2string(dec.skew_components, precision=12)} "
          f"(triples {dec.triples})")
    print(f"|vector tensor|_F: {np.linalg.norm(dec.vector_tensor()):.12e}")
    print(f"|skew tensor|_F  : {np.linalg.norm(dec.skew_tensor()):.12e}")
    print(f"|remainder|_F    : {np.linalg.norm(dec.remainder):.12e}")
    return 0


def _cmd_strip_bounds(args) -> int:
    speed = math.hypot(args.vx, args.vy)
    if speed == 0.0:
        raise ConfigError("velocity must be nonzero")
    sb = strip_bounds(args.y0, args.vy / speed, args.vx / speed)
    print(f"c = {sb.c:.12g}  branch sign = {sb.sign:+d}")
    print(f"strip = ({sb.lower:.12g}, {sb.upper:.12g})"
          + ("  [degenerate line]" if sb.degenerate else ""))
    if args.verify:
        launch = GeodesicState(0.0, args.x0, args.y0, args.vx / speed, args.vy / speed)
        rt = build_runtime("plane-shear")
        tr = integrate_two_sided(rt.chart, rt.field, launch, -args.t_max, args.t_max, h=2e-3)
        lo, hi = float(tr.v.min()), float(tr.v.max())
        ok = lo >= sb.lower - 1e-3 and hi <= sb.upper + 1e-3
        print(f"integrated height range over |t| <= {args.t_max:g}: ({lo:.6g}, {hi:.6g})")
        print(f"confinement: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else REPORT_FAILURE
    return 0


def _cmd_plot(args) -> int:
    traces: list[Trace] = []
    for path in args.csv or []:
        traces.append(read_trace_csv(path))
    for sid in args.scenario or []:
        base = CATALOG.get(sid)
        if base is None:
            raise ConfigError(f"unknown scenario {sid!r}")
        traces.append(run_scenario(base))
    if not traces:
        raise ConfigError("nothing to plot: give --csv and/or --scenario")
    if args.embed_surface:
        builder = CATALOG_BUILDERS.get(args.embed_surface)
        if builder is None:
            raise ConfigError(f"unknown surface {args.embed_surface!r}")
        surf = builder()
        curves = []
        for tr in traces:
            pts = project_orthographic(embed(surf, tr))
            curves.extend(trace_curves(tr, points=pts))
        svg = render_svg(curves)
    else:
        svg = plot_traces(traces)
    Path(args.out).write_text(svg)
    print(args.out)
    return 0


def _cmd_suite(args) -> int:
    indices = args.criteria or None
    results = suite.run_all(seed=args.seed, indices=indices)
    failed = 0
    for res in results:
        print(res.summary())
        if args.verbose or not res.passed:
            for line in res.detail_lines():
                print(line)
        if not res.passed:
            failed += 1
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        payload = [
            {"index": r.index, "title": r.title, "passed": r.passed,
             "checks": [{"label": c.label, "value": c.value, "bound": c.bound,
                         "op": c.op, "ok": c.ok} for c in r.checks]}
            for r in results
        ]
        (out / "suite-summary.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(out / "suite-summary.json")
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else REPORT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsiongeo",
        description="Geodesics of metric connections with vectorial torsion: "
                    "integration, invariants, and scenario tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="run a scenario and write trace/report artifacts")
    p.add_argument("--config", help="scenario config JSON path")
    p.add_argument("--scenario", help="catalog scenario id")
    p.add_argument("--report", action="append", help="extra report for --scenario runs")
    p.add_argument("--out-dir", default=".", help="artifact directory")
    p.add_argument("--format", help="comma list of csv,json,svg (default csv,json)")
    p.set_defaults(fn=_cmd_integrate)

    p = sub.add_parser("compare-conformal",
                       help="Hausdorff distance between twisted and conformal classical geodesics")
    p.add_argument("--case", help="substring filter: sphere, pseudosphere, catenoid, half-plane")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_compare_conformal)

    p = sub.add_parser("mercator", help="tabulate the Mercator-type coordinate y(s)")
    p.add_argument("--surface", required=True, choices=sorted(CATALOG_BUILDERS))
    p.add_argument("--s-min", type=float)
    p.add_argument("--s-max", type=float)
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_mercator)

    p = sub.add_parser("decompose", help="decompose a metric difference tensor from JSON")
    p.add_argument("tensor", help="JSON file with 'values' (n^3 nested list) or 'vector'")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("strip-bounds", help="strip bounds of a shear-field launch")
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--vx", type=float, required=True)
    p.add_argument("--vy", type=float, required=True)
    p.add_argument("--verify", action="store_true", help="integrate and check confinement")
    p.add_argument("--t-max", type=float, default=50.0)
    p.set_defaults(fn=_cmd_strip_bounds)

    p = sub.add_parser("plot", help="render traces to SVG")
    p.add_argument("--csv", action="append", help="trace CSV path (repeatable)")
    p.add_argument("--scenario", action="append", help="catalog scenario id (repeatable)")
    p.add_argument("--embed-surface", choices=sorted(CATALOG_BUILDERS),
                   help="plot the 3D embedding, orthographically projected")
    p.add_argument("--out", default="plot.svg")
    p.set_defaults(fn=_cmd_plot)

    p = sub.add_parser("suite", help="run the acceptance suite")
    p.add_argument("--criteria", type=int, action="append",
                   help="criterion index (repeatable; default all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", help="write suite-summary.json here")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        # ConfigError and the chart/metric errors are ValueErrors: every
        # failure rooted in user input is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
