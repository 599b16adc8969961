"""Column forms of the compiled evaluators against their scalar functions.

Every compiled module gives each evaluator that is not a fused RHS a column
form, which audits and trace diagnostics call on whole arrays.  It must
return the scalar function's bits at every sample, send its failures
through the scalar function, and read its own module's constants.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsiongeo.errors import ConfigError, MetricDegeneracyError
from torsiongeo.geometry import PLANE, ChartSource, FieldSource, compile_runtime
from torsiongeo.scenarios import build_runtime

RUNTIMES = ["plane-zero", "plane-winding", "plane-shear", "halfplane-sigma", "sphere",
            "pseudosphere", "catenoid"]
#: A config runtime whose evaluators run **, %, //, atan2 and hypot per sample
CONFIG = (ChartSource("ops", ("1 + x**2 % 3", "0", "hypot(x, y, 1) + abs(x)"),
                      sample_box=(-2.0, 2.0, -2.0, 2.0)),
          FieldSource("ops", "fg", ("atan2(y, x) * x // 0.5", "y**3 % 2 - hypot(x, 1.5)")))


def evaluators(key):
    """(scalar, column) pairs of every evaluator of a runtime with one, and
    the runtime's sample box."""
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
    if surface is not None:
        profile = surface.profile
        pairs += [(lambda s, phi, f=getattr(profile, name): f(s), profile.columns[name])
                  for name in profile.columns]
    return [(f, c) for f, c in pairs if f is not None], chart.sample_box


def sample_loop(fn, u, v):
    """The scalar evaluator at every sample, output axes first."""
    rows = [fn(a, b) for a, b in zip(u.tolist(), v.tolist())]
    return np.moveaxis(np.array(rows, dtype=float), 0, -1)


@pytest.mark.parametrize("key", RUNTIMES + ["config"])
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=40))
@settings(max_examples=60)
def test_column_forms_equal_the_scalar_evaluators_bitwise(key, fractions):
    pairs, (u0, u1, v0, v1) = evaluators(key)
    fu, fv = np.array(fractions).T
    u, v = u0 + fu * (u1 - u0), v0 + fv * (v1 - v0)
    for scalar, column in pairs:
        want = sample_loop(scalar, u, v)
        assert np.asarray(column(u, v)).tobytes() == want.tobytes()
        # the column form itself, not the scalar loop it falls back to
        with np.errstate(all="raise", under="ignore"):
            assert np.asarray(column.fn(u, v)).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [0, 3, 6])
def test_a_failing_sample_raises_the_scalar_error_for_that_sample(k):
    # sample 7 fails in sqrt, the first statement, and sample k in log: the
    # column form's sqrt sees sample 7 first, but the scalar loop reaches
    # sample k first, and its error is the one raised
    _, field = compile_runtime(PLANE, FieldSource("dom", "sigma", ("sqrt(x) + log(y)",)))
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
    chart, _ = compile_runtime(ChartSource("dom", ("1", "0", "y")), FieldSource("z", "fg",
                                                                             ("0", "0")))
    with pytest.raises(MetricDegeneracyError, match=re.escape(f"at ({x}, {y})")):
        chart.christoffel_column(u, v)


def test_overflow_returns_the_scalar_infinity():
    # Python's * overflows to inf without raising; numpy's raises, and the
    # column falls back to the scalar values
    _, field = compile_runtime(PLANE, FieldSource("big", "fg", ("x * 1e300", "y")))
    u = np.array([1.0, 1e10])
    Vu, Vv = field.components_column(u, u)
    assert Vu.tolist() == [1e300, math.inf] and Vv.tolist() == u.tolist()


def test_modules_that_differ_only_in_constants_keep_their_own():
    # sigma = -c log y compiles to one text for every c; each column form
    # must read its own module's c
    v = np.linspace(0.5, 3.0, 7)
    u = np.zeros_like(v)
    fields = [compile_runtime(PLANE, FieldSource("s", "sigma", (f"-{c}*log(y)",)))[1]
              for c in (2.5, 3.5)]
    for c, field in zip((2.5, 3.5), fields):
        assert field.sigma_column(u, v).tobytes() == sample_loop(field.sigma, u, v).tobytes()
        assert field.sigma_column(u, v).tolist() == [-c * math.log(y) for y in v.tolist()]
        Vu, Vv = field.components_column(u, v)
        assert Vv.tobytes() == sample_loop(field.components, u, v)[1].tobytes()
    a, b = (field.sigma_column.fn for field in fields)
    assert a.__code__ is b.__code__ and a.__globals__ is not b.__globals__


def test_unread_values_that_cannot_raise_are_not_computed():
    # the winding field steps with the partials of p = -(x^2 + y^2)/2 only
    rt = build_runtime("plane-winding")
    body = [line for line, _ in rt.field.fused[1].body]
    assert not any("x * x" in line or "y * y" in line for line in body)
    assert rt.field.flat_potential(1.0, 2.0) == -2.5
    # a call guards its expression's domain, so sigma = -log r stays on a surface
    body = [line for line, _ in build_runtime("sphere").field.fused[1].body]
    assert any("log(" in line for line in body)
