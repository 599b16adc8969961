"""The RK4 row march against the five-list march it replaced.

``reference_rk4_march`` is the march as it was before it collected one
(u, v, du, dv) row per sample: five parallel lists, and each time computed
as ``t0 + min(k * h, span)`` inside the loop.  The row march must give the
same bits in every column and the same stop reason.
"""

import math

import numpy as np
import pytest

from torsiongeo.integrate import (RK4, STOP_BOUNDARY, STOP_MAX_STEPS, STOP_TIME,
                                  IntegratorSettings, _BoundaryHit, _bisect_exit, _make_step,
                                  _rk4_march)
from torsiongeo.scenarios import CATALOG, CATALOG_IDS, build_runtime, run_scenario
from torsiongeo.traceio import trace_to_csv


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


def halves(sid, max_steps=5_000_000):
    """The forward and backward march of catalog scenario ``sid``, each as
    (make_step, t0, t1, y, settings): the backward half steps forward from
    t0 = -0.0 with the launch velocity negated, as ``integrate._run`` does."""
    scen = CATALOG[sid]
    rt = build_runtime(scen.runtime)
    s = scen.launch_state()
    g11, g12, g22 = rt.chart.metric(s.u, s.v)
    E2 = g11 * s.du * s.du + 2.0 * g12 * s.du * s.dv + g22 * s.dv * s.dv
    settings = IntegratorSettings(h=scen.h, max_steps=max_steps)

    def make_step(tableau):
        return _make_step(rt.chart, rt.field, E2, tableau)

    t_min, t_max = scen.span
    return [(make_step, 0.0, t_max, (s.u, s.v, s.du, s.dv), settings),
            (make_step, -0.0, -t_min, (s.u, s.v, -s.du, -s.dv), settings)]


def march_bits(march, args):
    """The columns (t, u, v, du, dv) of a march as bytes, and its stop reason."""
    out = march(*args)
    if march is _rk4_march:
        t, rows, stop = out
        cols = (t, *np.array(rows).T)
    else:
        *cols, stop = out
    return [np.ascontiguousarray(c).tobytes() for c in cols], stop


def assert_marches_agree(args):
    got, stop = march_bits(_rk4_march, args)
    want, want_stop = march_bits(reference_rk4_march, args)
    assert stop == want_stop
    assert got == want
    return stop


@pytest.mark.parametrize("sid", CATALOG_IDS)
def test_row_march_equals_the_five_list_march_on_the_catalog(sid):
    stops = [assert_marches_agree(args) for args in halves(sid)]
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
