"""Seeded job lists, job execution and output checks for each workload.

A workload's jobs come in chunks.  Chunk ``k`` of a run is generated from
``(workload, seed, k)`` alone, so the same seed always gives the same jobs
in the same order.  Jobs are plain JSON-able dicts; only the generated
inputs reach the library.

Every job is checked against the bound the paper's acceptance suite uses
for the same quantity.  A job whose check is over its bound counts as
failed.  Failures of the documented kinds in ``KNOWN_FAILURES`` are
reported and counted but leave the run correct; any other failure makes
the run incorrect.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import math
import shutil
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Library modules the benchmark calls into, in dependency order.
MODULES = ("geometry", "algebra", "integrate", "audit", "conformal", "surfaces",
           "plane", "scenarios", "traceio", "suite")

WORKLOADS = ("catalog", "configs", "sweep", "suite")

#: A run repeats one job list, chunks 0 .. n - 1, in rounds and keeps each
#: job's median time.  The rounds shed the host's short spells; the chunks
#: average out how much one seed's inputs cost.
CHUNKS_PER_ROUND = {"catalog": 1, "configs": 6, "sweep": 1, "suite": 1}

#: The seven built-in runtimes, in the fixed job order of a catalog chunk.
RUNTIMES = ("plane-zero", "plane-winding", "plane-shear", "halfplane-sigma",
            "sphere", "pseudosphere", "catenoid")

#: Catalog launches are integrated two-sided over [-SPAN, SPAN] at H.
SPAN = 2.0
H = 1e-3

#: Paper bounds, as the acceptance suite applies them.  Report-based checks
#: (speed 1e-6, invariants 1e-6, Killing residual 1e-4) take the bound the
#: report itself carries.
MERCATOR_FIT_BOUND = 1e-5   # criterion 3
CURVATURE_BOUND = 1e-5      # criterion 5, RK4 grids
CONFINEMENT_SLACK = 1e-3    # criterion 7
#: Criterion 5's comparison on adaptive (rk45) grids, where the kinematic
#: oracle differentiates a cubic spline through tens of samples.  No paper
#: bound covers it; measured values reach 1e-5, so the bound sits a decade up.
SPLINE_CURVATURE_BOUND = 1e-4

#: Reports that apply to each catalog runtime, through ``execute_report``.
CATALOG_REPORTS = {
    "plane-zero": ("speed", "killing-curvature"),
    "plane-winding": ("speed", "flat-invariant", "killing-curvature"),
    "plane-shear": ("speed", "flat-invariant", "arcsin"),
    "halfplane-sigma": ("speed",),
    "sphere": ("speed", "loxodrome", "conformal-constant"),
    "pseudosphere": ("speed", "loxodrome", "conformal-constant"),
    "catenoid": ("speed", "loxodrome", "conformal-constant"),
}

KNOWN_FAILURES = (
    "sphere launches that reach the pole cap, where RK4 at h = 1e-3 misses "
    "the speed, loxodrome and Mercator-fit bounds",
    "rk45 configs that miss an accuracy bound (drift, invariant or curvature "
    "oracle) by at most 10x with a finite value: the controller bounds the local "
    "error at rtol = 1e-9, not the accumulated error",
)

#: An rk45 accuracy miss is ``KNOWN_FAILURES[1]`` only while its value is
#: finite and at most this factor over its bound; a larger miss, a NaN or
#: an infinity makes the run wrong.
RK45_MISS_FACTOR = 10.0

#: Batch widths of one sweep chunk, from tens to thousands of angles.
SWEEP_WIDTHS = (32, 128, 512, 2048)
SWEEP_T_MAX = 5.0
SWEEP_H = 2e-3

#: Kinds of generated JSON configs; each appears once with rk4 and three
#: times with rk45 in every configs chunk.  An rk45 job takes milliseconds
#: and an rk4 job tens to hundreds, and the catenoid and inline-metric rk4
#: jobs are the slowest.  With half of each method, job_p50_ms would sit in
#: the gap between the slowest rk45 and the fastest rk4 job; with one rk4
#: job in three, job_p90_ms would sit at the edge of the slowest group.
#: Both would swing with the seed.  With one in four, job_p50_ms falls
#: inside the rk45 group and job_p90_ms inside the next-slowest rk4 group.
#:
#: The sphere is not among the surface kinds.  Its launches that reach the
#: pole cap miss the speed bound with RK4 at h = 1e-3 and now and then with
#: rk45 (``KNOWN_FAILURES[0]``).  ``catalog`` keeps those launches and
#: counts them as failed; ``configs`` is a gated workload, and no job of a
#: gated workload may fail.
CONFIG_KINDS = ("p", "fg", "sigma", "metric", "pseudosphere", "catenoid", "scenario")
CONFIG_METHODS = ("rk4", "rk45", "rk45", "rk45")
#: Configs are integrated two-sided over [-CONFIG_SPAN, CONFIG_SPAN].  An
#: rk4 config then takes 20-170 ms and a round of six chunks about 5 s, so
#: a run takes each job's median over about ten rounds.
CONFIG_SPAN = 0.5


@dataclass
class Check:
    label: str
    value: float
    bound: float
    op: str = "<"

    @property
    def ok(self) -> bool:
        if not math.isfinite(self.value):
            return False
        return self.value < self.bound if self.op == "<" else self.value > self.bound


@dataclass
class JobResult:
    """Outcome of one job: its checks, its latency and its output digest."""

    id: str
    seconds: float = 0.0
    #: times of the job's parts, which a run minimizes one by one: a suite
    #: job's criteria; any other job is one part, its whole time
    parts: list[float] = field(default_factory=list)
    samples: int = 0
    checks: list[Check] = field(default_factory=list)
    error: str | None = None
    known: bool = False       # a failure here is of the documented kind
    digest: str = ""
    # kept until the chunk's negative control has run
    runtime: object = field(default=None, repr=False)
    trace: object = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None and all(c.ok for c in self.checks)

    def failures(self) -> list[str]:
        out = [f"{self.id}: raised {self.error}"] if self.error else []
        out += [f"{self.id}: {c.label} = {c.value:.3e} not {c.op} {c.bound:.1e}"
                for c in self.checks if not c.ok]
        return out


def load_library():
    """Import ``torsiongeo`` and the modules the workloads call into."""
    return types.SimpleNamespace(**{m: importlib.import_module(f"torsiongeo.{m}")
                                    for m in MODULES})


def _rng(workload: str, seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, chunk])


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Job generation
# ---------------------------------------------------------------------------


def _launch_in_box(point, box) -> tuple[list[float], float]:
    u0, u1, v0, v1 = box
    start = [float(u0 + point[0] * (u1 - u0)), float(v0 + point[1] * (v1 - v0))]
    return start, float(2.0 * math.pi * point[2])


def make_jobs(lib, workload: str, seed: int, chunk: int) -> list[dict]:
    """The job list of one chunk; depends only on its arguments."""
    rng = _rng(workload, seed, chunk)
    if workload == "catalog":
        # one launch per runtime, and a second catenoid launch at the point
        # shifted by half the box in every coordinate.  Catenoid cost grows
        # with |s| and its sample box is symmetric, so the pair's |s| values
        # add up to the box half-width: the pair's total varies far less
        # than one launch's, and with two of eight jobs on the catenoid,
        # job_p90_ms falls inside the catenoid group.
        jobs = []
        for key in RUNTIMES:
            point = rng.random(3)
            jobs.append(_catalog_job(lib, point, chunk, len(jobs), key))
            if key == "catenoid":
                jobs.append(_catalog_job(lib, (point + 0.5) % 1.0, chunk, len(jobs), key))
        return jobs
    if workload == "configs":
        # the catalog scenario of each chunk: the seed's permutation of the
        # catalog, so a run's chunks draw scenarios without replacement
        ids = lib.scenarios.CATALOG_IDS
        order = np.random.default_rng([WORKLOADS.index(workload), seed]).permutation(len(ids))
        scenario = ids[int(order[chunk % len(ids)])]
        return [_config_job(lib, rng, chunk, i, kind, method, scenario)
                for i, (kind, method) in enumerate(
                    (k, m) for k in CONFIG_KINDS for m in CONFIG_METHODS)]
    if workload == "sweep":
        return [{"id": f"sweep-{chunk}-{w}", "n_angles": w,
                 "origin": [float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-2.5, 2.5))]}
                for w in SWEEP_WIDTHS]
    if workload == "suite":
        return [{"id": f"suite-{chunk}", "seed": seed}]
    raise ValueError(f"unknown workload {workload!r}")


def _catalog_job(lib, point, chunk: int, i: int, key: str) -> dict:
    rt = lib.scenarios.build_runtime(key)
    start, theta = _launch_in_box(point, rt.chart.sample_box)
    job = {"id": f"catalog-{chunk}-{i}-{key}", "runtime": key, "start": start}
    if rt.surface is not None:
        job["angle"] = theta
    else:
        job["velocity"] = [math.cos(theta), math.sin(theta)]
    return job


def _fmt(x: float) -> str:
    return repr(round(float(x), 6))


def _config_job(lib, rng, chunk: int, i: int, kind: str, method: str, scenario: str) -> dict:
    cfg = {"version": 1, "id": f"config-{chunk}-{i}-{kind}-{method}",
           "integrator": {"method": method, "h": H},
           "span": [-CONFIG_SPAN, CONFIG_SPAN], "reports": ["speed"]}
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    unit = [math.cos(theta), math.sin(theta)]
    if kind == "p":
        a, b = rng.uniform(-0.5, 0.5, size=2)
        cfg.update(chart="plane", field={"p": f"{_fmt(a)}*(x*x + y*y) + {_fmt(b)}*x*y"},
                   initial={"position": rng.uniform(-2.0, 2.0, size=2).tolist(),
                            "velocity": unit})
        cfg["reports"] = ["speed", "flat-invariant"]
    elif kind == "fg":
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        cfg.update(chart="plane",
                   field={"f": f"{_fmt(a)}*sin(y) + {_fmt(b)}", "g": f"{_fmt(c)}*cos(x)"},
                   initial={"position": rng.uniform(-2.0, 2.0, size=2).tolist(),
                            "velocity": unit})
    elif kind == "sigma":
        a = rng.uniform(0.5, 1.5)
        cfg.update(chart="half-plane", field={"sigma": f"-{_fmt(a)}*log(y)"},
                   initial={"position": [float(rng.uniform(-1.0, 1.0)),
                                         float(rng.uniform(0.5, 3.0))],
                            "velocity": unit})
    elif kind == "metric":
        # hyperbolic upper half-plane; Christoffels by central differences
        y0 = float(rng.uniform(0.5, 2.0))
        cfg.update(chart={"metric": {"g11": "1/(y*y)", "g22": "1/(y*y)"},
                          "bounds": [-1e3, 1e3, 0.2, 1e3], "name": "hyperbolic"},
                   field="zero",
                   initial={"position": [float(rng.uniform(-1.0, 1.0)), y0],
                            "velocity": [y0 * unit[0], y0 * unit[1]]})
    elif kind in ("sphere", "pseudosphere", "catenoid"):
        box = lib.scenarios.build_runtime(kind).chart.sample_box
        start, _ = _launch_in_box(rng.random(3), box)
        cfg.update(chart={"surface": kind}, field="catalog",
                   initial={"position": start, "angle_deg": math.degrees(theta)})
        cfg["reports"] = ["speed", "loxodrome", "conformal-constant"]
    elif kind == "scenario":
        cfg["scenario"] = scenario
    else:
        raise ValueError(kind)
    return cfg


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------


def report_checks(reports) -> list[Check]:
    """One check per invariant report, on the statistic its verdict uses."""
    out = []
    for r in reports:
        if r.threshold is None:
            continue
        value = r.max_dev
        if r.name in ("loxodrome-angle", "conformal-constant", "arcsin-invariant"):
            value = r.std
        if r.name == "killing-curvature" and not r.monotone:
            value = math.inf
        out.append(Check(r.name, value, r.threshold))
    return out


def mercator_fit_residual(lib, trace, surface) -> float:
    """Criterion 3's straight-line fit of the Mercator image, 801 points."""
    idx = np.linspace(0, len(trace) - 1, 801).astype(int)
    xs = trace.v[idx]
    ys = lib.surfaces.mercator_map(surface, trace.u[idx])
    A = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(np.max(np.abs(A @ coef - ys)))


def curvature_check(lib, trace, method: str) -> Check:
    """Criterion 5: closed-form curvature against the kinematic oracle."""
    core = lib.audit.interior_slice(len(trace))
    general = lib.audit.curvature_general(trace)
    kinematic = lib.audit.kinematic_curvature(trace)
    worst = float(np.max(np.abs(general[core] - kinematic[core])))
    bound = CURVATURE_BOUND if method == "rk4" else SPLINE_CURVATURE_BOUND
    return Check(f"|general - kinematic| curvature ({method})", worst, bound)


def is_known_failure(runtime_key: str, trace) -> bool:
    """A sphere trace that stopped at the pole cap (``KNOWN_FAILURES[0]``)."""
    return runtime_key == "sphere" and "boundary" in trace.stop_reason


def is_rk45_near_miss(check: Check) -> bool:
    """A failed accuracy check close enough to its bound for ``KNOWN_FAILURES[1]``."""
    return (check.op == "<" and math.isfinite(check.value)
            and check.value <= RK45_MISS_FACTOR * check.bound)


def speed_negative_control(lib, trace, rt) -> Check:
    """Scale the velocity by 1 + 1e-4 and recompute the speed column: the
    speed report must now fail.  Reported as a check that the report's
    value exceeds the bound."""
    vel = (1.0 + 1e-4)
    du, dv = trace.du * vel, trace.dv * vel
    speed = np.array([lib.geometry.norm(trace.chart, (u, v), (a, b))
                      for u, v, a, b in zip(trace.u, trace.v, du, dv)])
    bad = dataclasses.replace(trace, du=du, dv=dv, speed=speed)
    rep = lib.scenarios.execute_report("speed", bad, rt)
    return Check("negative control: perturbed trace fails the speed check",
                 rep.max_dev, rep.threshold, op=">")


# ---------------------------------------------------------------------------
# Job execution
# ---------------------------------------------------------------------------


def run_catalog_job(lib, job: dict) -> JobResult:
    sc_mod = lib.scenarios
    key = job["runtime"]
    rt = sc_mod.build_runtime(key)
    scen = sc_mod.Scenario(job["id"], key, tuple(job["start"]),
                           velocity=tuple(job["velocity"]) if "velocity" in job else None,
                           angle=job.get("angle"), span=(-SPAN, SPAN), h=H)
    res = JobResult(job["id"])
    trace = sc_mod.run_scenario(scen)
    reports = [sc_mod.execute_report(name, trace, rt) for name in CATALOG_REPORTS[key]]
    if key == "halfplane-sigma":
        # X = d_x is Killing for exp(-2 log y) |dx|^2; the report's
        # built-in X = d_phi is only right on surfaces of revolution
        reports.append(lib.audit.conformal_constant(trace, X=(1.0, 0.0)))
    res.checks = report_checks(reports)
    extra = b""
    if rt.surface is not None:
        fit = mercator_fit_residual(lib, trace, rt.surface)
        res.checks.append(Check("mercator straight-line fit residual", fit, MERCATOR_FIT_BOUND))
        extra = repr(fit).encode()
    csv = lib.traceio.trace_to_csv(trace)
    js = lib.traceio.reports_to_json(reports, scenario_id=job["id"])
    res.samples = len(trace)
    res.known = is_known_failure(key, trace)
    res.digest = _sha(csv.encode(), js.encode(), extra)
    res.runtime = rt
    res.trace = trace
    return res


def run_config_job(lib, job: dict, tmp: Path) -> JobResult:
    sc_mod = lib.scenarios
    res = JobResult(job["id"])
    config = sc_mod.ScenarioConfig.from_dict(job)
    trace, reports = sc_mod.run_config(config)
    if isinstance(job.get("field"), dict) and "sigma" in job["field"]:
        reports.append(lib.audit.conformal_constant(trace, X=(1.0, 0.0)))
    res.checks = report_checks(reports)
    if trace.chart.name in ("plane", "half-plane"):
        res.checks.append(curvature_check(lib, trace, config.method))

    # every check so far is an accuracy check; an rk45 near miss is KNOWN_FAILURES[1]
    accuracy_miss = (config.method == "rk45" and not all(c.ok for c in res.checks)
                     and all(c.ok or is_rk45_near_miss(c) for c in res.checks))

    path = lib.traceio.write_trace_csv(trace, tmp / f"{job['id']}.csv")
    back = lib.traceio.read_trace_csv(path)
    cols = ("t", "u", "v", "du", "dv", "speed", "kappa", "g_v")
    same = all(getattr(back, c).tobytes() == getattr(trace, c).tobytes() for c in cols)
    res.checks.append(Check("CSV round trip is bit-exact", 1.0 if same else 0.0, 0.5, op=">"))
    data = path.read_bytes()
    js = lib.traceio.reports_to_json(reports, scenario_id=job["id"])
    res.samples = len(trace)
    surface = config.runtime.surface
    res.known = same and (accuracy_miss or is_known_failure(surface.name if surface else "", trace))
    res.digest = _sha(data, js.encode())
    if config.method == "rk4":
        res.runtime = config.runtime
        res.trace = trace
    return res


def run_sweep_job(lib, job: dict) -> JobResult:
    plane = lib.plane
    res = JobResult(job["id"])
    x0, y0 = job["origin"]
    sweep = plane.shooting_sweep(origin=(x0, y0), n_angles=job["n_angles"],
                                 t_max=SWEEP_T_MAX, h=SWEEP_H)
    worst = -math.inf
    for theta, lo, hi in zip(sweep.angles, sweep.y_min, sweep.y_max):
        sb = plane.strip_bounds(y0, math.sin(theta), math.cos(theta))
        if sb.degenerate:
            continue
        worst = max(worst, hi - sb.upper, sb.lower - lo)
    res.checks.append(Check("max excess over the strip bounds", worst, CONFINEMENT_SLACK))
    res.samples = job["n_angles"] * 2 * int(round(SWEEP_T_MAX / SWEEP_H))
    res.digest = _sha(sweep.y_min.tobytes(), sweep.y_max.tobytes())
    return res


def run_suite_job(lib, job: dict) -> JobResult:
    """``suite.run_all``, as ``torsiongeo suite`` runs it; every check of
    every criterion must hold.  The job's parts are its criteria, each
    timed by a wrapper around its entry in ``suite.ALL_CRITERIA`` for the
    duration of the call."""
    seconds: dict[int, float] = {}

    def timed(index: int, criterion):
        def call(ctx):
            t0 = time.perf_counter()
            try:
                return criterion(ctx)
            finally:
                seconds[index] = time.perf_counter() - t0
        return call

    criteria = lib.suite.ALL_CRITERIA
    lib.suite.ALL_CRITERIA = tuple(timed(i, fn) for i, fn in enumerate(criteria, start=1))
    try:
        results = lib.suite.run_all(job["seed"])
    finally:
        lib.suite.ALL_CRITERIA = criteria
    res = JobResult(job["id"], parts=[seconds[i] for i in sorted(seconds)])
    for crit in results:
        res.checks += [Check(f"c{crit.index:02d} {c.label}", c.value, c.bound, c.op)
                       for c in crit.checks]
    res.digest = _sha(*(f"{c.label}={c.value!r}".encode() for c in res.checks))
    return res


def chunk_digest(results: list[JobResult]) -> str:
    """Digest of a chunk's verified outputs, in job order."""
    return _sha(*(f"{r.id}:{r.digest}\n".encode() for r in results))


class Runner:
    """Runs chunks of one workload and owns its temporary directory."""

    def __init__(self, lib, workload: str, tmp: Path):
        self.lib = lib
        self.workload = workload
        self.tmp = tmp
        self.controls: list[Check] = []
        self.job_hook = None   # called with each job id before the job runs

    def run_chunk(self, jobs: list[dict]) -> list[JobResult]:
        fn = {"catalog": lambda j: run_catalog_job(self.lib, j),
              "configs": lambda j: run_config_job(self.lib, j, self.tmp),
              "sweep": lambda j: run_sweep_job(self.lib, j),
              "suite": lambda j: run_suite_job(self.lib, j)}[self.workload]
        out = []
        for job in jobs:
            t0 = time.perf_counter()
            res = self._guard(job, fn)
            res.seconds = time.perf_counter() - t0
            res.parts = res.parts or [res.seconds]
            out.append(res)
        self._negative_control(out)
        return out

    def _guard(self, job: dict, fn) -> JobResult:
        if self.job_hook is not None:
            self.job_hook(job["id"])
        try:
            return fn(job)
        except Exception as exc:  # a raising job is a failed job, not a crash
            return JobResult(job["id"], error=f"{type(exc).__name__}: {exc}")

    def _negative_control(self, results: list[JobResult]) -> None:
        """Once per chunk, on the first RK4 trace (catalog and configs)."""
        res = next((r for r in results if r.trace is not None), None)
        if res is None:
            return
        self.controls.append(speed_negative_control(self.lib, res.trace, res.runtime))
        for r in results:
            r.trace = r.runtime = None

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
