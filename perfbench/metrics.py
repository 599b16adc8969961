"""Metric names, units and their computation from worker results.

End-to-end metrics come from the untraced run; per-layer metrics from the
traced run.  Counts are taken over the first round only, which is the
same job list in every fresh process, so a count repeats exactly for a
given seed.  Times are per round, averaged over the rounds of the run.
"""

from __future__ import annotations

import re
import statistics

END_TO_END = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "import.torsiongeo_s": "s",
    "import.scipy_s": "s",
    "scenarios.build_runtime_s": "s",
    "scenarios.config_parse_s": "s",
    "scenarios.expr_calls": "count",
    "scenarios.expr_s": "s",
    "geometry.metric_calls": "count",
    "geometry.christoffel_calls": "count",
    "geometry.field_calls": "count",
    "geometry.calls_per_sample": "count",
    "geometry.s": "s",
    "integrate.calls": "count",
    "integrate.samples": "count",
    "integrate.self_s": "s",
    "integrate.us_per_sample": "us",
    "integrate.boundary_stops": "count",
    "integrate.rk45_accept_ratio": "ratio",
    "surfaces.profile_calls": "count",
    "surfaces.mercator_s": "s",
    "surfaces.s": "s",
    "audit.calls": "count",
    "audit.s": "s",
    "audit.us_per_sample": "us",
    "traceio.s": "s",
    "traceio.bytes": "B",
    "traceio.us_per_sample": "us",
    "plane.sweep_s": "s",
    "plane.ns_per_angle_step": "ns",
    "plane.invariant_s": "s",
    "conformal.s": "s",
    "conformal.compare_calls": "count",
    "algebra.s": "s",
    **{f"suite.c{i:02d}_s": "s" for i in range(1, 11)},
    "trace.overhead_s": "s",
    # failed / attempted jobs: 0 on a clean run, so it cannot be a gated
    # end-to-end metric, whose bound is a share of the parent's median
    "failed_ratio": "ratio",
}

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, by the same interpolation as
    ``statistics.quantiles(..., n=100, method='inclusive')``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def wall_seconds(result: dict) -> float:
    """Time of the run's job list, each job at its time over the rounds:
    the sum over its parts (a suite job's criteria) of each part's low
    median round (``statistics.median_low``).

    The median sheds the host's short spells, fast and slow alike.  The
    fastest round would hinge on whether a run happens to catch one of the
    host's rare fast spells, and it spreads more from run to run.  The low
    median of the two rounds that fit on ``suite`` is the faster one, which
    sheds a slow spell in either."""
    return sum(result["job_seconds"])


def end_to_end(result: dict, setup_times: list[float]) -> dict[str, float]:
    """Job times are each job's time over the rounds (see
    ``wall_seconds``); ``setup_s`` is the median of the set-up probes."""
    job_ms = [s * 1e3 for s in result["job_seconds"]]
    return {
        "wall_s": wall_seconds(result),
        "job_p50_ms": percentile(job_ms, 50),
        "job_p90_ms": percentile(job_ms, 90),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def _sum(table: dict, prefix: str) -> float:
    return sum(v for k, v in table.items() if k.startswith(prefix))


def per_layer(first: dict, final: dict, rounds: int) -> dict[str, float]:
    """Layer metrics from two tracer snapshots: after the first round
    (counts) and at the end of the run (times, divided by the rounds).

    Setup work (building runtimes) is included in both snapshots, so
    ``scenarios.build_runtime_s`` is the whole process's time.
    """
    c0, n0 = first["calls"], first["counts"]
    tot, own, n = final["total"], final["self"], final["counts"]
    per = 1.0 / rounds
    samples0 = n0.get("integrate.samples", 0)
    samples = n.get("integrate.samples", 0)

    def per_sample(seconds: float, units: float, scale: float) -> float:
        return seconds / units * scale if units else 0.0

    geometry_calls0 = sum(c0.get(f"geometry.{k}", 0) for k in ("metric", "christoffel", "field"))
    stepper_total = tot.get("integrate.integrate", 0.0) + tot.get("integrate.integrate_adaptive", 0.0)
    rk45_attempts = n0.get("integrate.rk45_rhs", 0) / 6.0
    out = {
        "scenarios.build_runtime_s": tot.get("scenarios.build_runtime", 0.0),
        "scenarios.config_parse_s": tot.get("scenarios.config_parse", 0.0) * per,
        "scenarios.expr_calls": c0.get("scenarios.expr", 0),
        "scenarios.expr_s": own.get("scenarios.expr", 0.0) * per,
        "geometry.metric_calls": c0.get("geometry.metric", 0),
        "geometry.christoffel_calls": c0.get("geometry.christoffel", 0),
        "geometry.field_calls": c0.get("geometry.field", 0),
        "geometry.calls_per_sample": geometry_calls0 / samples0 if samples0 else 0.0,
        "geometry.s": _sum(own, "geometry.") * per,
        "integrate.calls": c0.get("integrate.integrate", 0) + c0.get("integrate.integrate_adaptive", 0),
        "integrate.samples": samples0,
        "integrate.self_s": _sum(own, "integrate.") * per,
        "integrate.us_per_sample": per_sample(stepper_total, samples, 1e6),
        "integrate.boundary_stops": n0.get("integrate.boundary_stops", 0),
        "integrate.rk45_accept_ratio": (n0.get("integrate.rk45_accepted", 0) / rk45_attempts
                                        if rk45_attempts else 0.0),
        "surfaces.profile_calls": c0.get("surfaces.profile", 0),
        "surfaces.mercator_s": tot.get("surfaces.mercator_map", 0.0) * per,
        "surfaces.s": _sum(own, "surfaces.") * per,
        "audit.calls": sum(v for k, v in c0.items() if k.startswith("audit.")),
        "audit.s": _sum(own, "audit.") * per,
        "audit.us_per_sample": per_sample(_sum(own, "audit."), samples, 1e6),
        "traceio.s": _sum(own, "traceio.") * per,
        "traceio.bytes": n0.get("traceio.bytes", 0),
        "traceio.us_per_sample": per_sample(_sum(own, "traceio."), n.get("traceio.rows", 0), 1e6),
        "plane.sweep_s": tot.get("plane.shooting_sweep", 0.0) * per,
        "plane.ns_per_angle_step": per_sample(tot.get("plane.shooting_sweep", 0.0),
                                              n.get("plane.angle_steps", 0), 1e9),
        "plane.invariant_s": (tot.get("plane.flat_invariant", 0.0)
                              + tot.get("plane.arcsin_invariant", 0.0)) * per,
        "conformal.s": _sum(own, "conformal.") * per,
        "conformal.compare_calls": c0.get("conformal.compare_point_sets", 0),
        "algebra.s": _sum(own, "algebra.") * per,
    }
    for i in range(1, 11):
        out[f"suite.c{i:02d}_s"] = tot.get(f"suite.c{i:02d}", 0.0) * per
    return out


def import_breakdown(stderr: str) -> dict:
    """Parse ``python -X importtime`` output.

    Returns the cumulative seconds of every ``torsiongeo`` module and every
    scipy module imported from outside its own package, and those scipy
    seconds grouped by the nearest non-scipy importer.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum_us, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - 1 - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(cum_us) * 1e-6))
    # importtime prints children before their parent; walking backwards
    # visits each parent before its children
    stack: list[tuple[int, str]] = []
    torsiongeo_s = 0.0
    scipy_s = 0.0
    by_importer: dict[str, float] = {}
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ancestors = [n for _, n in stack]
        top = name.split(".")[0]
        if top == "torsiongeo" and not any(a.split(".")[0] == top for a in ancestors):
            torsiongeo_s += cum
        if top == "scipy" and not any(a.split(".")[0] == top for a in ancestors):
            scipy_s += cum
            importer = ancestors[-1] if ancestors else "<main>"
            by_importer[importer] = by_importer.get(importer, 0.0) + cum
        stack.append((depth, name))
    top = sorted(by_importer.items(), key=lambda kv: -kv[1])
    return {"torsiongeo_s": torsiongeo_s, "scipy_s": scipy_s, "scipy_importers": top}
