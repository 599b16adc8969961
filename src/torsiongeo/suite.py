"""The acceptance suite: every headline property, one criterion per function.

Each criterion returns a :class:`CriterionResult` holding labelled checks
with their measured values and bounds.  ``SuiteContext`` caches integrated
traces so criteria sharing a scenario do not re-integrate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .audit import (conformal_constant, curvature_general, interior_slice,
                    killing_curvature_check, killing_flow_symmetry,
                    kinematic_curvature, naive_momentum, Isometry)
from .conformal import compare_point_sets, conformal_metric
from .geometry import along, norm as metric_norm
from .integrate import GeodesicState, IntegratorSettings, Trace, levi_civita_integrate
from .plane import (arcsin_invariant, flat_invariant, shooting_sweep, strip_bounds,
                    strip_quadrature)
from .scenarios import CATALOG, CATALOG_IDS, Runtime, Scenario, build_runtime, run_scenario
from .surfaces import (gauss_map_trace, gaussian_curvature, loxodrome_check,
                       mercator_map, sphere_angle_cosines)


@dataclass
class Check:
    label: str
    value: float
    bound: float
    op: str = "<"  # "<" or ">"

    @property
    def ok(self) -> bool:
        if not math.isfinite(self.value):
            return False
        return self.value < self.bound if self.op == "<" else self.value > self.bound

    def __str__(self) -> str:
        word = "ok" if self.ok else "VIOLATED"
        return f"{self.label}: {self.value:.3e} {self.op} {self.bound:.1e} [{word}]"


@dataclass
class CriterionResult:
    index: int
    title: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)

    def add(self, label: str, value: float, bound: float, op: str = "<") -> None:
        self.checks.append(Check(label, float(value), bound, op))

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:02d} {self.title}: {verdict}"

    def detail_lines(self) -> list[str]:
        return [f"    {c}" for c in self.checks]


class SuiteContext:
    """Shared trace cache plus the random seed for sampled checks."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._traces: dict[tuple, Trace] = {}

    def trace(self, scenario_id: str, span: tuple[float, float] | None = None,
              h: float | None = None) -> Trace:
        key = (scenario_id, span, h)
        if key not in self._traces:
            self._traces[key] = run_scenario(CATALOG[scenario_id], h=h, span=span)
        return self._traces[key]

    def custom_trace(self, key: str, scenario: Scenario) -> Trace:
        k = ("custom", key)
        if k not in self._traces:
            self._traces[k] = run_scenario(scenario)
        return self._traces[k]


# ---------------------------------------------------------------------------
# 1. Speed conservation
# ---------------------------------------------------------------------------


def criterion_speed_conservation(ctx: SuiteContext) -> CriterionResult:
    res = CriterionResult(1, "speed conservation across the catalog")
    for sid in CATALOG_IDS:
        tr = ctx.trace(sid)
        res.add(f"{sid} relative speed drift", tr.max_speed_drift(), 1e-6)
    return res


# ---------------------------------------------------------------------------
# 2. Conformal equivalence for gradient fields
# ---------------------------------------------------------------------------


def _conformal_pair_distance(rt: Runtime, base_trace: Trace, lc_span: float,
                             perturb_angle: float = 0.0) -> float:
    derived = conformal_metric(rt.chart, rt.field)
    i0 = base_trace.index_at(0.0)
    p0 = (float(base_trace.u[i0]), float(base_trace.v[i0]))
    w = np.array([base_trace.du[i0], base_trace.dv[i0]])
    if perturb_angle:
        c, s = math.cos(perturb_angle), math.sin(perturb_angle)
        w = np.array([c * w[0] - s * w[1], s * w[0] + c * w[1]])
    w = w / metric_norm(derived, p0, w)
    lc = levi_civita_integrate(
        derived, GeodesicState(0.0, p0[0], p0[1], float(w[0]), float(w[1])),
        IntegratorSettings(h=1e-3, t0=0.0, t1=lc_span),
    )
    return compare_point_sets(base_trace, lc)


def criterion_conformal_equivalence(ctx: SuiteContext) -> CriterionResult:
    res = CriterionResult(2, "gradient-field geodesics match conformal classical geodesics")
    cases = [
        ("sphere", "sphere",
         ctx.trace("sphere-loxodrome-45").sub_interval(0.0, 2.0), 5.0),
        ("pseudosphere", "pseudosphere",
         ctx.custom_trace("pseudosphere-lox-45-short",
                          Scenario("pseudosphere-lox-45-short", "pseudosphere",
                                   (1.0, 0.0), angle=math.pi / 4, span=(0.0, 1.5))),
         9.0),
        ("catenoid", "catenoid",
         ctx.trace("catenoid-loxodrome-45").sub_interval(0.0, 3.0), 5.0),
        ("half-plane", "halfplane-sigma",
         ctx.trace("plane-gradient-halfplane").sub_interval(0.0, 2.0), 6.0),
    ]
    for name, runtime_key, tr, span in cases:
        dist = _conformal_pair_distance(build_runtime(runtime_key), tr, span)
        res.add(f"{name} point-set Hausdorff distance", dist, 1e-4)
    control = _conformal_pair_distance(
        build_runtime("sphere"),
        ctx.trace("sphere-loxodrome-45").sub_interval(0.0, 2.0), 5.0,
        perturb_angle=0.1)
    res.add("sphere negative control (0.1 rad perturbation)", control, 1e-2, op=">")
    return res


# ---------------------------------------------------------------------------
# 3. Loxodrome constancy and the Mercator image
# ---------------------------------------------------------------------------


def criterion_loxodrome_mercator(ctx: SuiteContext) -> CriterionResult:
    res = CriterionResult(3, "sphere loxodrome and Mercator straightening")
    tr = ctx.trace("sphere-loxodrome-45")
    rt = build_runtime("sphere")
    rep = loxodrome_check(tr, rt.surface)
    res.add("std of the parallel-angle cosine", rep.std, 1e-6)

    idx = np.linspace(0, len(tr) - 1, 801).astype(int)
    xs = tr.v[idx]
    ys = mercator_map(rt.surface, tr.u[idx])
    A = np.column_stack([xs, np.ones_like(xs)])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    residual = float(np.max(np.abs(A @ coef - ys)))
    res.add("max residual of the straight-line fit", residual, 1e-5)

    # adaptive quadrature of 1/r from the equator: the independent oracle
    # for the closed-form map
    from scipy.integrate import quad

    r = rt.surface.profile.r
    ss = np.linspace(0.1, math.pi - 0.1, 100)
    quad_y = np.array([quad(lambda x: 1.0 / r(x), math.pi / 2, float(s),
                            epsabs=1e-13, epsrel=1e-13, limit=200)[0] for s in ss])
    closed = mercator_map(rt.surface, ss)
    res.add("quadrature vs log tan(s/2)", float(np.max(np.abs(quad_y - closed))), 1e-10)
    return res


# ---------------------------------------------------------------------------
# 4. Conformal constant of motion vs the naive momentum
# ---------------------------------------------------------------------------


def criterion_conformal_constant(ctx: SuiteContext) -> CriterionResult:
    res = CriterionResult(4, "rescaled angular momentum is conserved, plain one is not")
    tr = ctx.trace("pseudosphere-loxodrome")
    rep = conformal_constant(tr, X=(0.0, 1.0))
    res.add("std of exp(sigma) g(v, d_phi)", rep.std, 1e-6)
    plain = naive_momentum(tr, X=(0.0, 1.0))
    res.add("std of plain g(v, d_phi)", float(np.std(plain)), 1e-3, op=">")
    return res


# ---------------------------------------------------------------------------
# 5. Curvature formulas and the Killing monotonicity
# ---------------------------------------------------------------------------

_PLANE_SCENARIOS = ("plane-straight", "plane-winding-center", "plane-winding-offset",
                    "plane-shear-diagonal", "plane-shear-steep", "plane-gradient-halfplane")


def criterion_curvature_formulas(ctx: SuiteContext) -> CriterionResult:
    res = CriterionResult(5, "curvature closed forms against the kinematic oracle")
    for sid in _PLANE_SCENARIOS:
        tr = ctx.trace(sid)
        core = interior_slice(len(tr))
        general = curvature_general(tr)
        kinematic = kinematic_curvature(tr)
        f, g = along(tr.field.components, tr.u, tr.v, (2,))
        signed = f * tr.dv - g * tr.du
        res.add(f"{sid} |general - kinematic|",
                float(np.max(np.abs(general[core] - kinematic[core]))), 1e-5)
        res.add(f"{sid} ||signed| - kinematic|",
                float(np.max(np.abs(np.abs(signed[core]) - kinematic[core]))), 1e-5)
    for sid in ("plane-winding-center", "plane-winding-offset"):
        rep = killing_curvature_check(ctx.trace(sid))
        res.add(f"{sid} Killing curvature residual", rep.max_dev, 1e-4)
        res.add(f"{sid} monotone non-increasing g(V, v)",
                1.0 if rep.monotone else 0.0, 0.5, op=">")
    return res


# ---------------------------------------------------------------------------
# 6. Flat-plane complex invariant
# ---------------------------------------------------------------------------


def criterion_flat_invariant(ctx: SuiteContext) -> CriterionResult:
    res = CriterionResult(6, "flat-connection complex invariant z' exp(-i p)")
    for sid in ("plane-winding-center", "plane-winding-offset",
                "plane-shear-diagonal", "plane-shear-steep"):
        tr = ctx.trace(sid).sub_interval(-10.0, 10.0)
        rep = flat_invariant(tr)
        res.add(f"{sid} max |invariant - z0|", rep.max_dev, 1e-6)
        res.add(f"{sid} max ||z'| - 1|", float(np.max(np.abs(tr.speed - 1.0))), 1e-6)
    return res


# ---------------------------------------------------------------------------
# 7. Arcsin invariant, strips, quadrature, Hopf-Rinow failure
# ---------------------------------------------------------------------------


def criterion_strips(ctx: SuiteContext) -> CriterionResult:
    res = CriterionResult(7, "shear-field strips: invariant, confinement, quadrature, sweep")
    diag = ctx.trace("plane-shear-diagonal")
    steep = ctx.trace("plane-shear-steep")
    for name, tr in (("diagonal", diag), ("steep", steep)):
        rep = arcsin_invariant(tr)
        res.add(f"{name} worst per-branch std", rep.std, 1e-6)

    c_expected = 0.5 - math.pi / 4.0
    i0 = diag.index_at(0.0)
    c_measured = 0.5 * diag.v[i0] ** 2 - math.asin(diag.dv[i0])
    res.add("launch invariant c vs 1/2 - pi/4", abs(c_measured - c_expected), 1e-9)

    sb = strip_bounds(1.0, math.sqrt(0.5), math.sqrt(0.5))
    bound_expected = math.sqrt(2.0 * (c_expected + math.pi))
    res.add("upper strip bound vs sqrt(2(c + pi))", abs(sb.upper - bound_expected), 1e-12)
    res.add("lower strip bound symmetry", abs(sb.lower + bound_expected), 1e-12)
    res.add("bounds are singular levels",
            max(abs(math.sin(sb.sign * 0.5 * sb.upper ** 2 - sb.c)),
                abs(math.sin(sb.sign * 0.5 * sb.lower ** 2 - sb.c))), 1e-10)

    long = ctx.trace("plane-shear-diagonal", span=(-50.0, 50.0))
    excess = float(np.max(np.abs(long.v)) - sb.upper)
    res.add("confinement excess over |t| <= 50", excess, 1e-3)

    # time to height 2.0 read off the trace vs the quadrature
    fwd = diag.sub_interval(0.0, diag.t[-1])
    j = int(np.searchsorted(fwd.v, 2.0))
    t_trace = fwd.t[j - 1] + (2.0 - fwd.v[j - 1]) / (fwd.v[j] - fwd.v[j - 1]) * (fwd.t[j] - fwd.t[j - 1])
    t_quad = strip_quadrature(1.0, 2.0, sb.c, sb.sign).t
    res.add("quadrature vs trace time at y = 2", abs(t_quad - t_trace), 1e-4)

    div = strip_quadrature(1.0, sb.upper, sb.c, sb.sign)
    res.add("divergence at the strip bound (capped value)", div.t, 1e3, op=">")
    res.add("divergence flag set", 1.0 if div.diverged else 0.0, 0.5, op=">")

    sweep = shooting_sweep(origin=(1.0, 1.0), n_angles=720, t_max=50.0, h=2e-3)
    target = strip_bounds(3.5, math.sqrt(0.5), math.sqrt(0.5))
    res.add("target strip is disjoint from the launch strip",
            target.lower, sb.upper, op=">")
    res.add("sweep max height stays below the disjoint strip",
            float(np.max(sweep.y_max)), target.lower, op="<")
    return res


# ---------------------------------------------------------------------------
# 8. Isometry flow symmetry
# ---------------------------------------------------------------------------


def criterion_symmetry(ctx: SuiteContext) -> CriterionResult:
    res = CriterionResult(8, "commuting isometries map geodesics to geodesics")
    wind = ctx.trace("plane-winding-center").sub_interval(-10.0, 10.0)
    mism = killing_flow_symmetry(wind, Isometry.rotation(math.pi / 3.0))
    res.add("winding field, rotation by pi/3", mism, 1e-6)
    shear = ctx.trace("plane-shear-diagonal").sub_interval(-10.0, 10.0)
    mism = killing_flow_symmetry(shear, Isometry.translation(2.0, 0.0))
    res.add("shear field, horizontal translation by 2", mism, 1e-6)
    return res


# ---------------------------------------------------------------------------
# 9. Difference-tensor decomposition
# ---------------------------------------------------------------------------


def criterion_decomposition(ctx: SuiteContext) -> CriterionResult:
    res = CriterionResult(9, "three-part decomposition of metric difference tensors")
    rng = np.random.default_rng(ctx.seed)
    worst_rt = 0.0
    for n in range(2, 6):
        for _ in range(25):
            V = rng.normal(size=n) * 3.0
            dec = algebra.decompose(algebra.vectorial_tensor(V))
            worst_rt = max(worst_rt, float(np.max(np.abs(dec.vector - V))),
                           float(np.max(np.abs(dec.skew_tensor()))),
                           float(np.max(np.abs(dec.remainder))))
    res.add("round trip V -> tensor -> (V, 0, 0), n in 2..5", worst_rt, 1e-12)

    eps = algebra.alternating_tensor(3)
    fix = algebra.DifferenceTensor(0.5 * eps)
    dec = algebra.decompose(fix)
    res.add("3-form fixture: vector part", float(np.max(np.abs(dec.vector))), 1e-12)
    res.add("3-form fixture: skew equals the tensor",
            float(np.max(np.abs(dec.skew_tensor() - fix.values))), 1e-12)
    res.add("3-form fixture: remainder", float(np.max(np.abs(dec.remainder))), 1e-12)
    res.add("3-form fixture: torsion equals twice the tensor",
            float(np.max(np.abs(algebra.torsion_from(fix) - eps))), 1e-12)

    dim_ok = True
    ortho_worst = 0.0
    for n in range(2, 6):
        a = algebra.random_metric_class_tensor(n, rng)
        dec = algebra.decompose(a)
        parts = (dec.vector_tensor(), dec.skew_tensor(), dec.remainder)
        for i in range(3):
            for j in range(i + 1, 3):
                ortho_worst = max(ortho_worst, abs(algebra.frobenius_inner(parts[i], parts[j])))
        recon = float(np.max(np.abs(dec.reconstruct() - a.values)))
        ortho_worst = max(ortho_worst, recon)
        dims = _component_dimensions(n)
        if dims != (n, algebra.skew_dim(n),
                    algebra.metric_class_dim(n) - n - algebra.skew_dim(n)):
            dim_ok = False
    res.add("parts orthogonal and reconstruction exact", ortho_worst, 1e-12)
    res.add("component dimensions n + C(n,3) + rest = n^2(n-1)/2",
            1.0 if dim_ok else 0.0, 0.5, op=">")
    return res


def _component_dimensions(n: int) -> tuple[int, int, int]:
    """Numeric ranks of the three projector images over a basis of the
    antisymmetry class."""
    basis = []
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                b = np.zeros((n, n, n))
                b[i, j, k] = 1.0
                b[i, k, j] = -1.0
                basis.append(b)
    vec_img, skew_img, rem_img = [], [], []
    for b in basis:
        dec = algebra.decompose(algebra.DifferenceTensor(b))
        vec_img.append(dec.vector_tensor().ravel())
        skew_img.append(dec.skew_tensor().ravel())
        rem_img.append(dec.remainder.ravel())
    ranks = tuple(int(np.linalg.matrix_rank(np.array(m), tol=1e-9)) for m in (vec_img, skew_img, rem_img))
    return ranks


# ---------------------------------------------------------------------------
# 10. Gauss-map counterexample to curvature rigidity
# ---------------------------------------------------------------------------


def criterion_gauss_map(ctx: SuiteContext) -> CriterionResult:
    res = CriterionResult(10, "catenoid Gauss map sends loxodromes to loxodromes")
    tr = ctx.trace("catenoid-loxodrome-45")
    rt = build_runtime("catenoid")
    _, colat, lon = gauss_map_trace(rt.surface, tr)
    cosines = sphere_angle_cosines(colat, lon, tr.t)
    core = interior_slice(len(tr), margin=3)
    res.add("std of the mapped constant-angle cosine", float(np.std(cosines[core])), 1e-4)
    ks = np.array([gaussian_curvature(rt.surface, s) for s in
                   np.linspace(tr.u.min(), tr.u.max(), 200)])
    res.add("curvature variation across the sampled strip",
            float(ks.max() - ks.min()), 0.1, op=">")
    return res


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

ALL_CRITERIA = (
    criterion_speed_conservation,
    criterion_conformal_equivalence,
    criterion_loxodrome_mercator,
    criterion_conformal_constant,
    criterion_curvature_formulas,
    criterion_flat_invariant,
    criterion_strips,
    criterion_symmetry,
    criterion_decomposition,
    criterion_gauss_map,
)


def run_all(seed: int = 0, indices: list[int] | None = None) -> list[CriterionResult]:
    ctx = SuiteContext(seed=seed)
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if indices and i not in indices:
            continue
        results.append(fn(ctx))
    return results
