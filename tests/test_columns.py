"""Column forms of the compiled evaluators against their scalar functions.

Every compiled module gives each evaluator that is not a fused RHS a column
form, which audits and trace diagnostics call on whole arrays.  It must
return the scalar function's bits at every sample, send its failures
through the scalar function, and read its own module's constants.  Where a
module's RK4 march is built, its column forms run C loops built with it;
each test runs both that path and the numpy one.
"""

import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torsiongeo import native
from torsiongeo.errors import ConfigError, MetricDegeneracyError
from torsiongeo.geometry import PLANE, ChartSource, FieldSource, compile_runtime
from torsiongeo.integrate import RK4, _make_step
from torsiongeo.scenarios import build_runtime

HAVE_CC = shutil.which("cc") is not None
RUNTIMES = ["plane-zero", "plane-winding", "plane-shear", "halfplane-sigma", "sphere",
            "pseudosphere", "catenoid"]
#: A config runtime whose evaluators run **, %, //, atan2 and hypot per sample
CONFIG = (ChartSource("ops", ("1 + x**2 % 3", "0", "hypot(x, y, 1) + abs(x)"),
                      sample_box=(-2.0, 2.0, -2.0, 2.0)),
          FieldSource("ops", "fg", ("atan2(y, x) * x // 0.5", "y**3 % 2 - hypot(x, 1.5)")))
#: Coordinates outside any box: signed zeros, subnormals, NaN and infinities
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf]


def compiled_march(chart, field):
    """The kernel of the RK4 march of the module of ``chart`` and ``field``,
    loaded now as ``test_march.compiled_march`` loads it, so the module's
    column forms find their C loops; None where the march does not
    translate or build."""
    return native.rk4_kernel(_make_step(chart, field, 1.0, RK4), 0, 0)


def evaluators(key):
    """(scalar, column) pairs of every evaluator of a runtime with one, the
    runtime's sample box, and how many of the pairs, first in the list,
    belong to the module of the runtime's march."""
    if key == "config":
        chart, field = compile_runtime(*CONFIG)
        surface = None
    else:
        rt = build_runtime(key)
        chart, field, surface = rt.chart, rt.field, rt.surface
    pairs = [(chart.metric, chart.metric_column),
             (chart.christoffel_analytic, chart.christoffel_column),
             (field.components, field.components_column),
             (field.sigma, field.sigma_column),
             (field.flat_potential, field.flat_potential_column)]
    pairs = [(f, c) for f, c in pairs if f is not None]
    marched = len(pairs)
    assert (compiled_march(chart, field) is not None) == (HAVE_CC and key != "config")
    if surface is not None:
        profile = surface.profile
        pairs += [(getattr(profile, name), profile.columns[name]) for name in profile.columns]
    return pairs, chart.sample_box, marched


def sample_loop(fn, u, v):
    """The scalar evaluator at every sample, output axes first."""
    rows = [fn(a, b) for a, b in zip(u.tolist(), v.tolist())]
    return np.moveaxis(np.array(rows, dtype=float), 0, -1)


def outcome(run):
    """The bytes of what ``run()`` returns, or the type and text of what it raises."""
    try:
        return np.asarray(run()).tobytes()
    except Exception as exc:  # whatever the scalar loop raises, the column must raise
        return type(exc), str(exc)


@pytest.mark.parametrize("key", RUNTIMES + ["config"])
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=40),
       st.lists(st.tuples(st.sampled_from(SPECIAL), st.sampled_from(SPECIAL)), max_size=3))
@example([(0.5, 0.5)], [(0.0, -0.0), (-0.0, 0.0)])
@example([(0.5, 0.5)], [(5e-324, -5e-324)])
@example([(0.5, 0.5)], [(0.5, math.nan)])
@example([(0.5, 0.5)], [(math.nan, math.nan)])
@example([(0.5, 0.5)], [(math.inf, 0.5)])
@example([(0.5, 0.5)], [(0.5, -math.inf)])
@settings(max_examples=60)
def test_column_forms_equal_the_scalar_evaluators_bitwise(key, fractions, specials):
    pairs, (u0, u1, v0, v1), marched = evaluators(key)
    fu, fv = np.array(fractions).T
    u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
    for k, (scalar, column) in enumerate(pairs):
        want = sample_loop(scalar, u, v)
        assert np.asarray(column(u, v)).tobytes() == want.tobytes()
        # the column form itself, not the scalar loop it falls back to
        with np.errstate(all="raise", under="ignore"):
            assert np.asarray(column.fn(u, v)).tobytes() == want.tobytes()
        # the C loop, built with the march of the runtime's own module only;
        # the config runtime's ** and % keep its march and its columns in Python
        assert bool(column.loop) == (HAVE_CC and key != "config" and k < marched)
        if column.loop:
            assert column.loop(u, v).tobytes() == want.tobytes()

        # outside the box, each path gives the scalar loop's bits or raises its error
        if specials:
            x, y = (np.concatenate([a, b]) for a, b in zip((u, v), np.array(specials).T))
            want = outcome(lambda: sample_loop(scalar, x, y))
            assert outcome(lambda: column(x, y)) == want
            looped = column.loop(x, y) if column.loop else None
            assert looped is None or looped.tobytes() == want


@pytest.fixture(params=["numpy", "c"])
def path(request):
    """Which path the column forms of the runtimes a test compiles take:
    "c" loads each march kernel first (see :func:`runtime`)."""
    if request.param == "c" and not HAVE_CC:
        pytest.skip("no C compiler on the path")
    return request.param


def runtime(path, chart, field, *names):
    """``compile_runtime(chart, field)``, with the march of its module
    loaded on the "c" path; each column of ``names`` then has a C loop
    there, and none on the "numpy" path, whose module marches nothing."""
    chart, field = compile_runtime(chart, field)
    if path == "c":
        assert compiled_march(chart, field) is not None
    for name in names:
        column = getattr(chart, name, None) or getattr(field, name)
        assert bool(native.column_loop(column.namespace, column.text)) == (path == "c")
    return chart, field


@pytest.mark.parametrize("k", [0, 3, 6])
def test_a_failing_sample_raises_the_scalar_error_for_that_sample(k, path):
    # sample 7 fails in sqrt, the first statement, and sample k in log: the
    # column form's sqrt sees sample 7 first, but the scalar loop reaches
    # sample k first, and its error is the one raised
    _, field = runtime(path, PLANE, FieldSource("dom", "sigma", ("sqrt(x) + log(y)",)),
                       "sigma_column")
    u, v = np.linspace(0.5, 2.0, 8), np.linspace(1.0, 3.0, 8)
    u[7], v[k] = -1.0, -0.5
    x, y = float(u[k]), float(v[k])
    with pytest.raises(ConfigError) as want:
        field.sigma(x, y)
    with pytest.raises(ConfigError) as got:
        field.sigma_column(u, v)
    assert str(got.value) == str(want.value)
    assert f"(x, y) = ({x!r}, {y!r})" in str(got.value)

    # a metric check fails as the scalar check does, at its first sample
    chart, _ = runtime(path, ChartSource("dom", ("1", "0", "y")),
                       FieldSource("z", "fg", ("0", "0")), "christoffel_column")
    with pytest.raises(MetricDegeneracyError, match=re.escape(f"at ({x}, {y})")):
        chart.christoffel_column(u, v)


def test_overflow_returns_the_scalar_infinity(path):
    # Python's * overflows to inf without raising; numpy's raises, as does
    # the C loop's overflow flag, and the column falls back to the scalar values
    _, field = runtime(path, PLANE, FieldSource("big", "fg", ("x * 1e300", "y")),
                       "components_column")
    u = np.array([1.0, 1e10])
    Vu, Vv = field.components_column(u, u)
    assert Vu.tolist() == [1e300, math.inf] and Vv.tolist() == u.tolist()


def test_modules_that_differ_only_in_constants_keep_their_own(path):
    # sigma = -c log y compiles to one text for every c; each column form
    # must read its own module's c
    v = np.linspace(0.5, 3.0, 7)
    u = np.zeros_like(v)
    fields = [runtime(path, PLANE, FieldSource("s", "sigma", (f"-{c}*log(y)",)),
                      "sigma_column", "components_column")[1] for c in (2.5, 3.5)]
    for c, field in zip((2.5, 3.5), fields):
        assert field.sigma_column(u, v).tobytes() == sample_loop(field.sigma, u, v).tobytes()
        assert field.sigma_column(u, v).tolist() == [-c * math.log(y) for y in v.tolist()]
        Vu, Vv = field.components_column(u, v)
        assert Vv.tobytes() == sample_loop(field.components, u, v)[1].tobytes()
    a, b = (field.sigma_column.fn for field in fields)
    assert a.__code__ is b.__code__ and a.__globals__ is not b.__globals__
    if path == "c":  # one step text and one column text: one build serves both modules
        assert len({field.sigma_column.namespace["_source_rk4"] for field in fields}) == 1
        assert len({field.sigma_column.text for field in fields}) == 1


def test_unread_values_that_cannot_raise_are_not_computed():
    # the winding field steps with the partials of p = -(x^2 + y^2)/2 only
    rt = build_runtime("plane-winding")
    body = [line for line, _ in rt.field.fused[1].body]
    assert not any("x * x" in line or "y * y" in line for line in body)
    assert rt.field.flat_potential(1.0, 2.0) == -2.5
    # a call guards its expression's domain, so sigma = -log r stays on a surface
    body = [line for line, _ in build_runtime("sphere").field.fused[1].body]
    assert any("log(" in line for line in body)
