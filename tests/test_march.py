"""The RK4 row march, Python and compiled, against the five-list march it
replaced.

``reference_rk4_march`` is the march as it was before it collected one
(u, v, du, dv) row per sample: five parallel lists, and each time computed
as ``t0 + min(k * h, span)`` inside the loop.  The march must give the
same bits in every column and the same stop reason, both where it runs
the Python step and where it runs the compiled C loop of that step's
text (``native.rk4_kernel``), and fail exactly as the Python step does.
"""

import ast
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torsiongeo import native, plane
from torsiongeo.conformal import conformal_metric
from torsiongeo.errors import ConfigError, MetricDegeneracyError
from torsiongeo.geometry import VectorFieldSpec
from torsiongeo.integrate import (COLUMNS, NATIVE_MIN_STEPS, RK4, STOP_BOUNDARY, STOP_MAX_STEPS,
                                  STOP_TIME, GeodesicState, IntegratorSettings, _BoundaryHit,
                                  _bisect_exit, _make_step, _rk4_march, integrate)
from torsiongeo.scenarios import (CATALOG, CATALOG_IDS, ScenarioConfig, build_runtime, run_config,
                                  run_scenario)
from torsiongeo.traceio import trace_to_csv

HAVE_CC = shutil.which("cc") is not None
BUILT_IN = ("plane-zero", "plane-winding", "plane-shear", "halfplane-sigma", "sphere",
            "pseudosphere", "catenoid")


def reference_rk4_march(make_step, t0, t1, y, settings):
    step = make_step(RK4)
    u, v, du, dv = y
    ts = [t0]
    us = [u]
    vs = [v]
    dus = [du]
    dvs = [dv]

    span = t1 - t0
    n_full = int(math.floor(span / settings.h + 1e-9))
    rem = span - n_full * settings.h
    if rem <= 1e-9 * settings.h:
        rem = 0.0
    total = n_full + (1 if rem > 0.0 else 0)
    stop = STOP_TIME
    k = 0

    while k < total:
        if k >= settings.max_steps:
            stop = STOP_MAX_STEPS
            break
        h = settings.h if k < n_full else rem
        try:
            u, v, du, dv = step(u, v, du, dv, h)
        except _BoundaryHit:
            partial = _bisect_exit(step, u, v, du, dv, h)
            if partial is not None:
                h_part, (u, v, du, dv) = partial
                ts.append(ts[-1] + h_part)
                us.append(u)
                vs.append(v)
                dus.append(du)
                dvs.append(dv)
            stop = STOP_BOUNDARY
            break
        k += 1
        t_rel = k * settings.h if k <= n_full else span
        ts.append(t0 + min(t_rel, span))
        us.append(u)
        vs.append(v)
        dus.append(du)
        dvs.append(dv)

    return np.array(ts), np.array(us), np.array(vs), np.array(dus), np.array(dvs), stop


def march_args(rt, state, settings, t0=0.0, t1=None):
    """(make_step, t0, t1, y, settings) of the forward march from ``state``
    on runtime ``rt``, at the launch speed ``integrate._run`` computes."""
    u, v, du, dv = state
    g11, g12, g22 = rt.chart.metric(u, v)
    E2 = g11 * du * du + 2.0 * g12 * du * dv + g22 * dv * dv

    def make_step(tableau):
        return _make_step(rt.chart, rt.field, E2, tableau)

    return make_step, t0, settings.t1 if t1 is None else t1, state, settings


def halves(sid, max_steps=5_000_000):
    """The forward and backward march of catalog scenario ``sid``, each as
    (make_step, t0, t1, y, settings): the backward half steps forward from
    t0 = -0.0 with the launch velocity negated, as ``integrate._run`` does."""
    scen = CATALOG[sid]
    rt = build_runtime(scen.runtime)
    s = scen.launch_state()
    settings = IntegratorSettings(h=scen.h, max_steps=max_steps)
    t_min, t_max = scen.span
    return [march_args(rt, (s.u, s.v, s.du, s.dv), settings, 0.0, t_max),
            march_args(rt, (s.u, s.v, -s.du, -s.dv), settings, -0.0, -t_min)]


def python_only():
    """Within it, no march finds a compiled kernel."""
    return mock.patch.object(native, "rk4_kernel", lambda step, n, min_steps: None)


def loaded(step):
    """The kernel of the text of ``step`` that this process has loaded,
    without building one (a march of no steps counts nothing)."""
    return native.rk4_kernel(step, 0, math.inf)


def python_march(*args):
    with python_only():
        return _rk4_march(*args)


def compiled_march(make_step, *args):
    """The march with its text's kernel loaded, so that it takes the
    compiled loop whatever its length, where the text translates and cc
    builds."""
    native.rk4_kernel(make_step(RK4), 0, 0)
    return _rk4_march(make_step, *args)


def march_bits(march, args):
    """The columns (t, u, v, du, dv) of a march as bytes, and its stop reason."""
    out = march(*args)
    if len(out) == 3:
        t, cols, stop = out
        cols = (t, *cols)
    else:
        *cols, stop = out
    return [np.ascontiguousarray(c).tobytes() for c in cols], stop


def assert_marches_agree(args):
    want, want_stop = march_bits(reference_rk4_march, args)
    for march in (python_march, compiled_march):
        got, stop = march_bits(march, args)
        assert stop == want_stop
        assert got == want
    return stop


@pytest.mark.parametrize("sid", CATALOG_IDS)
def test_row_march_equals_the_five_list_march_on_the_catalog(sid):
    stops = [assert_marches_agree(args) for args in halves(sid)]
    make_step = halves(sid)[0][0]
    assert (loaded(make_step(RK4)) is not None) == HAVE_CC
    if sid in ("sphere-meridian", "pseudosphere-meridian"):
        assert stops == [STOP_BOUNDARY, STOP_BOUNDARY]


@pytest.mark.parametrize("sid", ["plane-winding-offset", "sphere-loxodrome-45",
                                 "sphere-meridian"])
def test_row_march_equals_the_five_list_march_at_max_steps(sid):
    for args in halves(sid, max_steps=257):
        assert assert_marches_agree(args) == STOP_MAX_STEPS


@pytest.mark.parametrize("max_steps, stop", [(94, STOP_MAX_STEPS), (95, STOP_TIME)])
def test_a_step_limit_equal_to_the_step_count_reaches_t1(max_steps, stop):
    # [0, 1.2345] at h = 0.013 is 94 full steps and a short one
    make_step, _, _, y, _ = halves("plane-winding-offset")[0]
    args = (make_step, 0.0, 1.2345, y, IntegratorSettings(h=0.013, max_steps=max_steps))
    assert assert_marches_agree(args) == stop


def test_row_march_ends_a_short_final_step_at_t1():
    # a span that is not a multiple of h ends in a short step at t1 itself
    make_step, _, _, y, _ = halves("plane-winding-offset")[0]
    for t0, t1 in ((0.0, 1.2345), (-0.0, 0.0105), (1.7, 4.3), (0.0, 0.0)):
        assert assert_marches_agree(
            (make_step, t0, t1, y, IntegratorSettings(h=0.013))) == STOP_TIME


def test_two_sided_launch_sample_is_positive_zero():
    # the backward half starts at t0 = -0.0; its reflection, which supplies
    # the merged t = 0 sample, must be +0.0 and write as "0"
    tr = run_scenario(CATALOG["plane-winding-offset"], span=(-1.0, 1.0))
    i = int(np.flatnonzero(tr.t == 0.0)[0])
    assert math.copysign(1.0, tr.t[i]) == 1.0
    assert trace_to_csv(tr).splitlines()[1 + i].startswith("0,")


class LeviCivita:
    """The Levi-Civita runtime of a chart, as ``levi_civita_integrate`` steps it."""

    def __init__(self, chart):
        self.chart, self.field = chart, VectorFieldSpec.zero()


@pytest.mark.parametrize("key, start", [("sphere", (1.0, 0.0)), ("pseudosphere", (1.0, 0.0)),
                                        ("catenoid", (0.0, 0.0)), ("halfplane-sigma", (0.0, 1.0))])
def test_levi_civita_marches_of_the_conformal_charts_agree(key, start):
    # criterion 2 steps these charts' classical geodesics for 5 000-9 000 steps
    rt = build_runtime(key)
    lc = LeviCivita(conformal_metric(rt.chart, rt.field))
    assert lc.chart.name.endswith("~conformal")
    assert assert_marches_agree(march_args(lc, (*start, 0.6, 0.8),
                                           IntegratorSettings(h=1e-3, t1=5.0))) == STOP_TIME


@given(st.sampled_from(BUILT_IN), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(-math.pi, math.pi), st.floats(0.25, 2.0), st.floats(1e-3, 5e-2),
       st.integers(1, 400))
# out through the sphere's box along a meridian, and down through the half-plane's
@example("sphere", 0.5, 0.5, 0.0, 1.0, 5e-2, 400)
@example("halfplane-sigma", 0.5, 0.1, -1.5, 1.0, 5e-2, 400)
@settings(max_examples=40)
def test_random_launches_march_alike_on_the_built_in_runtimes(key, fu, fv, angle, E, h, steps):
    rt = build_runtime(key)
    a, b, c, d = rt.chart.sample_box
    state = (a + fu * (b - a), c + fv * (d - c), E * math.cos(angle), E * math.sin(angle))
    assert_marches_agree(march_args(rt, state, IntegratorSettings(h=h, t1=steps * h)))


def test_the_sample_launches_leave_the_box():
    for key, fu, fv, angle in (("sphere", 0.5, 0.5, 0.0), ("halfplane-sigma", 0.5, 0.1, -1.5)):
        rt = build_runtime(key)
        a, b, c, d = rt.chart.sample_box
        state = (a + fu * (b - a), c + fv * (d - c), math.cos(angle), math.sin(angle))
        args = march_args(rt, state, IntegratorSettings(h=5e-2, t1=20.0))
        assert march_bits(compiled_march, args)[1] == STOP_BOUNDARY


@pytest.mark.parametrize("p, translates", [
    ("sin(x) * cos(y) + exp(-y) * log(2 + x*x) + sqrt(1 + y*y)", True),
    # int literals keep Python's arithmetic: 1/2 is 0.5, and the int product
    # is exact before it meets a float, where doubles would round it twice
    ("x * (1/2) + x * y * (3*5) + 100000001 * 100000003 * 100000005 * x * 1e-24", True),
    # the int partial 3 enters as a float literal, so its C march must give
    # the Python march's bits
    ("x + y * 3", True), ("x**3", False), ("x // 2 + y", False), ("x % 2 + y", False),
    ("hypot(x, y)", False), ("atan2(y, x)", False), ("abs(x) * y", False),
    ("log(x*x + 1, 2)", False), ("tanh(x) * y", False)])
def test_only_texts_that_call_libm_as_math_does_compile(p, translates):
    rt = config("plane", {"p": p}, (0.3, 0.4, 0.6, 0.8), [0.0, 1.0]).runtime
    args = march_args(rt, (0.3, 0.4, 0.6, 0.8), IntegratorSettings(h=1e-2, t1=2.0))
    text = args[0](RK4).__globals__["_source_rk4"]
    assert (native.march_source(text) is not None) == translates
    assert assert_marches_agree(args) == STOP_TIME
    assert (loaded(args[0](RK4)) is not None) == (translates and HAVE_CC)


@pytest.mark.parametrize("key", BUILT_IN)
def test_the_unguarded_step_raises_nowhere_and_steps_in_box_launches_alike(key):
    rt = build_runtime(key)
    a, b, c, d = rt.chart.sample_box
    for fu, fv, angle in ((0.5, 0.5, 0.3), (0.2, 0.7, -2.0), (0.8, 0.3, 1.7)):
        state = (a + fu * (b - a), c + fv * (d - c), math.cos(angle), math.sin(angle))
        step = march_args(rt, state, IntegratorSettings(h=1e-2))[0](RK4)
        text = native.unguarded(step.__globals__["_source_rk4"])
        assert not any(isinstance(node, ast.Raise) for node in ast.walk(ast.parse(text)))
        namespace = dict(step.__globals__)
        exec(text, namespace)
        got = namespace["step"](*state, 1e-2, *step.__defaults__)
        assert np.array(got).tobytes() == np.array(step(*state, 1e-2)).tobytes()


@pytest.mark.parametrize("key", ["plane-shear", "sphere"])
def test_a_text_that_reads_a_global_or_the_launch_speed_has_no_lane_loop(key):
    # plane-shear reads its field's constant c0, and the sphere E2
    step = march_args(build_runtime(key), (1.0, 0.5, 0.6, 0.8), IntegratorSettings(h=1e-2))[0](RK4)
    assert native.lanes_source(step.__globals__["_source_rk4"]) is None


def test_load_gives_none_without_a_source_or_a_function_of_that_name():
    assert native.load(None, "lanes") is None
    source = native.lanes_source(RK4.emit(plane._shear_stage))
    assert native.load(source, "no_such_function") is None


# ---------------------------------------------------------------------------
# Failures through the compiled loop: each span plans at least
# NATIVE_MIN_STEPS steps, so the march builds its kernel, which steps until
# the failing step and hands it to the Python step
# ---------------------------------------------------------------------------


def outcome(run):
    """What ``run()`` gives: a trace's column bytes and stop reason, or the
    exception's type and text."""
    try:
        tr = run()
    except Exception as exc:  # whatever it raises, the other path must raise too
        return type(exc), str(exc)
    return [getattr(tr, c).tobytes() for c in COLUMNS], tr.stop_reason


def assert_runs_agree(run):
    """``run()`` with the compiled loop gives what it gives without; returns
    the outcome and the steps each compiled march took before it stopped."""
    with python_only():
        want = outcome(run)
    taken = []
    real = native.Kernel.march

    def spy(self, *args):
        out = real(self, *args)
        taken.append(out[1])
        return out

    with mock.patch.object(native.Kernel, "march", spy):
        got = outcome(run)
    assert got == want
    assert bool(taken) == HAVE_CC
    return got, taken


def config(chart, field, state, span, h=1e-3):
    return ScenarioConfig.from_dict({
        "version": 1, "id": "long", "chart": chart, "field": field, "span": span,
        "initial": {"position": list(state[:2]), "velocity": list(state[2:])},
        "integrator": {"method": "rk4", "h": h}})


DOMAIN = "ValueError: math domain error"


@pytest.mark.parametrize("field, state, h, what, error", [
    ({"f": "log(x)", "g": "0"}, (0.2, 0.5, -1.0, 0.0), 1e-3, "expression 'log(x)'", DOMAIN),
    ({"p": "x*sqrt(y)"}, (0.5, 0.2, 0.0, -1.0), 1e-3, "expression 'x*sqrt(y)'", DOMAIN),
    # only the unread value sigma = log(x) fails past x = 0: its partials
    # 1/x and 0 do not, so the C loop must compute it too
    ({"sigma": "log(x)"}, (0.5, 0.0, -1.0, 0.0), 1e-3, "expression 'log(x)'", DOMAIN),
    # 0 times the quotient folds, so no statement reads 1/(x - c) or its
    # partial, and only the volatile sink keeps C dividing.  The field is
    # zero, so at h = 2^-10 the march from x = 0.5 steps x exactly, and the
    # midpoint stage of step 256 lands on c, where no sample lies
    ({"sigma": "0*(1/(x - 0.74951171875))"}, (0.5, 0.0, 1.0, 0.0), 2.0 ** -10,
     "expression '0*(1/(x - 0.74951171875))'",
     "0.74951171875, 0.0): ZeroDivisionError: float division by zero")])
def test_a_compiled_march_leaving_an_expression_s_domain_raises_its_config_error(field, state, h,
                                                                                 what, error):
    cfg = config("plane", field, state, [0.0, 10.0], h)
    (kind, text), taken = assert_runs_agree(lambda: run_config(cfg)[0])
    assert kind is ConfigError
    assert text.startswith(f"{what} failed at (x, y) = (") and text.endswith(error)
    assert all(0 < k < NATIVE_MIN_STEPS for k in taken)


def test_a_compiled_march_into_a_degenerate_metric_raises_the_python_error():
    # g = diag(x, 1) degenerates at x = 0, where the launch heads
    cfg = config({"metric": {"g11": "x", "g22": "1"}}, "zero", (1.0, 0.0, -1.0, 0.0), [0.0, 10.0])
    (kind, text), taken = assert_runs_agree(lambda: run_config(cfg)[0])
    assert kind is MetricDegeneracyError
    assert all(0 < k < NATIVE_MIN_STEPS for k in taken)


def test_a_runaway_speed_overflows_in_python_and_stops_at_the_boundary():
    # E^2 stays at its launch value, so the speed error of this shear launch
    # grows until the state overflows to inf and leaves the unbounded plane
    rt = build_runtime("plane-shear")
    a = 1e-8
    launch = GeodesicState(0.0, 0.0, -2.5, math.cos(a), math.sin(a))
    with np.errstate(all="ignore"):  # the diagnostics of the non-finite samples
        (cols, stop), taken = assert_runs_agree(lambda: integrate(
            rt.chart, rt.field, launch, IntegratorSettings(t0=0.0, t1=-100.0, h=1e-2)))
    assert stop == STOP_BOUNDARY
    assert all(0 < k < NATIVE_MIN_STEPS for k in taken)


def test_a_step_count_beyond_int64_steps_h():
    # 10^19 full steps do not fit the kernel's int64 count; only the first
    # 20 000 are taken, each of them with h
    make_step, _, _, y, _ = halves("plane-winding-offset")[0]
    args = (make_step, 0.0, 1e16, y, IntegratorSettings(t1=1e16, h=1e-3, max_steps=20_000))
    assert assert_marches_agree(args) == STOP_MAX_STEPS


def test_a_huge_planned_march_that_exits_early_keeps_only_its_rows():
    # 10^12 planned steps: the compiled march writes its rows a block at a time
    scen = CATALOG["plane-gradient-halfplane"]
    s = scen.launch_state()
    settings = IntegratorSettings(t1=1e9, h=1e-3, max_steps=10 ** 12)
    args = march_args(build_runtime(scen.runtime), (s.u, s.v, s.du, s.dv), settings)
    assert assert_marches_agree(args) == STOP_BOUNDARY


# ---------------------------------------------------------------------------
# Which march runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("broken", ["no cc on the path", "source that does not compile"])
def test_march_falls_back_to_python_without_a_kernel(monkeypatch, broken):
    args = halves("sphere-equator")[0]
    want = march_bits(python_march, args)
    # a fresh loader and build cache, so the process's kernels stay loaded
    monkeypatch.setattr(native, "_KERNELS", {})
    monkeypatch.setattr(native, "_STEPPED", {})
    monkeypatch.setattr(native, "build", native.build.__wrapped__)
    if broken == "no cc on the path":
        monkeypatch.setenv("PATH", "")
    else:
        monkeypatch.setattr(native, "march_source", lambda text: ("not C\n", ()))
    assert native.rk4_kernel(args[0](RK4), 0, 0) is None
    assert march_bits(_rk4_march, args) == want


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on the path")
def test_a_long_march_runs_the_compiled_loop_where_cc_exists():
    # a broken build would fall back silently and lose the compiled loop's speed
    _, taken = assert_runs_agree(lambda: run_scenario(CATALOG["sphere-equator"]))
    assert taken == [20_000, 20_000]


def test_short_marches_and_set_up_start_no_compiler():
    # the spy counts the cc runs of a fresh process: none for the import,
    # the runtimes and a march below NATIVE_MIN_STEPS, one for a long march
    code = "\n".join([
        "import subprocess",
        "calls = []",
        "real = subprocess.run",
        "subprocess.run = lambda *a, **k: calls.append(a[0][0]) or real(*a, **k)",
        "import torsiongeo",
        "from torsiongeo.scenarios import CATALOG, build_runtime, run_scenario",
        f"for key in {BUILT_IN!r}:",
        "    build_runtime(key)",
        "run_scenario(CATALOG['sphere-loxodrome-45'])",
        "print(calls)",
        "run_scenario(CATALOG['sphere-equator'])",
        "print(calls)"])
    env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "PATH": os.environ.get("PATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "['cc']"]


def fresh_process(*lines):
    """The lines of standard output of ``lines`` run in a fresh process,
    where ``calls`` lists the programs that ``subprocess.run`` started."""
    code = "\n".join([
        "import subprocess",
        "calls = []",
        "real = subprocess.run",
        "subprocess.run = lambda *a, **k: calls.append(a[0][0]) or real(*a, **k)",
        *lines])
    env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "PATH": os.environ.get("PATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=300)
    return out.stdout.splitlines()


def test_a_repeated_short_march_builds_once_its_python_steps_reach_the_threshold():
    # sphere-loxodrome-45 plans 2 000 steps a side, so three runs are 12 000
    # Python steps of one text; the third run's backward half is the first
    # march whose earlier steps reach NATIVE_MIN_STEPS.  Once it tries the
    # build, the text leaves the tally, whether or not cc exists
    assert NATIVE_MIN_STEPS == 10_000
    out = fresh_process(
        "import hashlib",
        "from torsiongeo import native",
        "from torsiongeo.integrate import COLUMNS",
        "from torsiongeo.scenarios import CATALOG, run_scenario",
        "for _ in range(3):",
        "    tr = run_scenario(CATALOG['sphere-loxodrome-45'])",
        "    digest = hashlib.sha256(b''.join(getattr(tr, c).tobytes() for c in COLUMNS))",
        "    print(len(calls), sorted(native._STEPPED.values()), digest.hexdigest())")
    assert [line.rsplit(" ", 1)[0] for line in out] == [
        "0 [4000]", "0 [8000]", f"{int(HAVE_CC)} []"]
    assert len({line.rsplit(" ", 1)[1] for line in out}) == 1


def test_a_warm_run_starts_no_compiler_and_runs_its_diagnostics_columns_in_c():
    # the third run of sphere-loxodrome-45 builds its march, and with it the
    # column loops of the sphere's module; the fourth builds nothing and its
    # diagnostics (the metric and the field components, on each half) run
    # in C, with the bits of the runs whose columns ran in numpy
    out = fresh_process(
        "import hashlib",
        "from torsiongeo import native",
        "from torsiongeo.integrate import COLUMNS",
        "from torsiongeo.scenarios import CATALOG, run_scenario",
        "ran, bind = [], native.ColumnLoop.bind",
        "def spy(self, namespace):",
        "    loop = bind(self, namespace)",
        "    def counted(x, y):",
        "        out = loop(x, y)",
        "        ran.append(out is not None)",
        "        return out",
        "    return loop and counted",
        "native.ColumnLoop.bind = spy",
        "for _ in range(4):",
        "    ran.clear()",
        "    tr = run_scenario(CATALOG['sphere-loxodrome-45'])",
        "    digest = hashlib.sha256(b''.join(getattr(tr, c).tobytes() for c in COLUMNS))",
        "    print(len(calls), ran, digest.hexdigest())")
    runs = [line.rsplit(" ", 1)[0] for line in out]
    if HAVE_CC:
        assert runs == ["0 []", "0 []", "1 [True, True]", "1 [True, True, True, True]"]
    else:
        assert runs == ["0 []"] * 4
    assert len({line.rsplit(" ", 1)[1] for line in out}) == 1


def test_criterion_2_builds_its_conformal_kernels_in_later_rounds():
    # c2's Levi-Civita marches plan 5 000-9 000 steps each, on four
    # ~conformal charts; the base traces c2 reads are computed first, so
    # only those marches run in the rounds
    out = fresh_process(
        "import math",
        "from torsiongeo import native",
        "from torsiongeo.conformal import conformal_metric",
        "from torsiongeo.geometry import VectorFieldSpec",
        "from torsiongeo.integrate import RK4, _make_step",
        "from torsiongeo.scenarios import build_runtime",
        "from torsiongeo.suite import SuiteContext, criterion_conformal_equivalence",
        "ctx = SuiteContext()",
        "for sid in ('sphere-loxodrome-45', 'catenoid-loxodrome-45', 'plane-gradient-halfplane'):",
        "    ctx.trace(sid)",
        "calls.clear()",
        "def loaded(key):",
        "    rt = build_runtime(key)",
        "    chart = conformal_metric(rt.chart, rt.field)",
        "    step = _make_step(chart, VectorFieldSpec.zero(), 1.0, RK4)",
        "    return native.rk4_kernel(step, 0, math.inf) is not None",
        "for _ in range(3):",
        "    res = criterion_conformal_equivalence(ctx)",
        "    print(len(calls), [loaded(k) for k in",
        "                       ('sphere', 'pseudosphere', 'catenoid', 'halfplane-sigma')])",
        "    print(res.detail_lines())")
    rounds = [(out[i], out[i + 1]) for i in range(0, len(out), 2)]
    assert len(rounds) == 3
    assert rounds[0][0] == "0 [False, False, False, False]"
    assert rounds[2][0].endswith(f"[{', '.join([str(HAVE_CC)] * 4)}]")
    assert len({lines for _, lines in rounds}) == 1
