import functools
import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import torsiongeo
from torsiongeo.cli import main
from torsiongeo.traceio import read_trace_csv

CONFIG = {
    "version": 1,
    "id": "cli-demo",
    "chart": "plane",
    "field": "winding",
    "initial": {"position": [0.0, 2.0], "velocity": [1.0, 0.0]},
    "span": [-0.5, 0.5],
    "reports": ["speed", "flat-invariant"],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(CONFIG))
    return path


def test_integrate_writes_artifacts(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["integrate", "--config", str(config_path), "--out-dir", str(out),
                 "--format", "csv,json,svg"])
    assert code == 0
    capsys.readouterr()
    csv_path = out / "cli-demo.csv"
    assert csv_path.exists()
    trace = read_trace_csv(csv_path)
    assert len(trace) == 1001
    report = json.loads((out / "cli-demo.report.json").read_text())
    assert report["all_passed"] is True
    assert (out / "cli-demo.svg").read_text().startswith("<svg")


def test_integrate_deterministic(config_path, tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["integrate", "--config", str(config_path), "--out-dir", str(out1)]) == 0
    assert main(["integrate", "--config", str(config_path), "--out-dir", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "cli-demo.csv").read_bytes() == (out2 / "cli-demo.csv").read_bytes()


def test_integrate_catalog_scenario(tmp_path, capsys):
    code = main(["integrate", "--scenario", "sphere-loxodrome-45",
                 "--report", "speed", "--report", "loxodrome",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "sphere-loxodrome-45.csv").exists()


def test_failing_report_exits_1(tmp_path, capsys):
    # a coarse step makes the speed drift exceed its 1e-6 bound
    cfg = dict(CONFIG, id="coarse", integrator={"h": 0.4}, span=[0.0, 12.0],
               reports=["speed"])
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(cfg))
    code = main(["integrate", "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_coarse_shear_run_with_y_prime_beyond_1_passes_arcsin(tmp_path, capsys):
    # at h = 0.01 this launch's |y'| exceeds 1 by more than 1e-9 somewhere,
    # with a speed drift of 2.6e-8; the angle form of the report reads it
    cfg = {"version": 1, "id": "coarse-shear", "chart": "plane", "field": "shear",
           "integrator": {"method": "rk4", "h": 0.01}, "span": [-10, 10],
           "initial": {"position": [0.0, 2.2447183746888264],
                       "velocity": [-0.968653655259993, 0.24841516892382925]},
           "reports": ["speed", "arcsin"]}
    path = tmp_path / "coarse-shear.json"
    path.write_text(json.dumps(cfg))
    code = main(["integrate", "--config", str(path), "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert "arcsin-invariant: PASS" in out
    assert code == 0
    trace = read_trace_csv(tmp_path / "coarse-shear.csv")
    assert trace.dv.max() > 1.0 + 1e-9 or trace.dv.min() < -1.0 - 1e-9


def test_usage_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["integrate", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert main(["integrate", "--out-dir", str(tmp_path)]) == 2
    assert main(["integrate", "--scenario", "no-such", "--out-dir", str(tmp_path)]) == 2
    assert main(["no-such-command"]) == 2
    # a launch height whose shear invariant overflows, and a non-finite one
    assert main(["strip-bounds", "--y0", "1e200", "--vx", "1", "--vy", "1"]) == 2
    assert main(["strip-bounds", "--y0", "nan", "--vx", "1", "--vy", "1"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # nested JSON values of the wrong shape
    for i, cfg in enumerate([
        dict(CONFIG, integrator="rk4"),
        dict(CONFIG, initial={"position": [0.0, 2.0], "velocity": 5}),
        dict(CONFIG, initial={"position": 5, "velocity": [1.0, 0.0]}),
        dict(CONFIG, span=[-1, "x"]),
        dict(CONFIG, chart={"metric": {"g11": "1", "g22": "1"}, "sample_box": 5}),
        dict(CONFIG, chart={"metric": "1"}),
        dict(CONFIG, chart={"surface": ["sphere"]}),
        # non-finite or non-positive numbers, which Python's json parses
        dict(CONFIG, integrator={"h": 0.0}),
        dict(CONFIG, integrator={"h": -1.0}),
        dict(CONFIG, integrator={"h": float("nan")}),
        {"version": 1, "id": "short", "scenario": "plane-straight", "integrator": {"h": 0}},
        {"version": 1, "id": "short", "scenario": "plane-straight",
         "integrator": {"h": float("nan")}},
        dict(CONFIG, span=[-1.0, float("inf")]),
        dict(CONFIG, span=[float("-inf"), 1.0], integrator={"method": "rk45"}),
        dict(CONFIG, initial={"position": [float("nan"), 2.0], "velocity": [1.0, 0.0]}),
        dict(CONFIG, initial={"position": [0.0, 2.0], "velocity": [float("inf"), 0.0]}),
        # a span whose step count, or a launch whose speed, overflows
        dict(CONFIG, span=[-1e308, 1e308]),
        dict(CONFIG, initial={"position": [0.0, 2.0], "velocity": [1e200, 1e200]}),
        # booleans and strings are not numbers, though float() takes them
        dict(CONFIG, initial={"position": ["0.5", True], "velocity": [1.0, 0.0]}),
        dict(CONFIG, initial={"position": [0.0, 2.0], "velocity": [True, "0"]}),
        dict(CONFIG, integrator={"h": "1e-2"}),
        dict(CONFIG, integrator={"h": True}),
        dict(CONFIG, span=[False, "1"]),
        dict(CONFIG, span=[False, 1.0]),
        {"version": 1, "id": "short", "scenario": "plane-straight", "span": [False, True]},
        dict(CONFIG, initial={"position": ["0.5", True], "velocity": [True, "0"]},
             integrator={"h": "1e-2"}, span=[False, "1"]),
        dict(CONFIG, chart="sphere", field="catalog", reports=["speed"],
             initial={"position": [1.0, 0.0], "angle": True}),
        dict(CONFIG, initial={"position": [0.0, 2.0], "velocity": [1.0, 0.0], "E": "2"}),
        dict(CONFIG, chart="half-plane", y_min=False),
        dict(CONFIG, chart={"metric": {"g11": "1", "g22": "1"}, "bounds": [-1, 1, True, 3]}),
    ]):
        path = tmp_path / f"shape-{i}.json"
        path.write_text(json.dumps(cfg))
        assert main(["integrate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("surface, s", [("sphere", 0.0), ("pseudosphere", -800.0)])
def test_angle_launch_outside_the_surface_chart_exits_2(surface, s, tmp_path, capsys):
    # the launch fails before the profile radius is evaluated there, where
    # the sphere's is 0 and the pseudosphere's overflows
    cfg = {"version": 1, "id": "outside", "chart": {"surface": surface}, "field": "catalog",
           "initial": {"position": [s, 0.0], "angle": 0.5}}
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(path), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: point ({s!r}, 0.0) is outside the open domain of chart "
                            f"{surface!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("f, position", [
    ("1/x", [0.0, 0.0]),
    ("exp(1000*x)", [1.0, 0.0]),
    ("(-1-x*x)**0.5", [0.0, 0.0]),
    ("-" * 100000 + "x", [0.0, 0.0]),
    ("1" + "+1" * 200000, [0.0, 0.0]),
    ("().__class__", [0.0, 0.0]),
], ids=["zero-division", "overflow", "complex", "deep-unary", "long-sum", "attribute"])
def test_expression_failures_exit_2(f, position, tmp_path, capsys):
    cfg = dict(CONFIG, id="bad-expr", field={"f": f, "g": "0"},
               initial={"position": position, "velocity": [1.0, 0.0]})
    path = tmp_path / "bad-expr.json"
    path.write_text(json.dumps(cfg))
    assert main(["integrate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("src, position", [
    ("-" * 100000 + "x", [0.0, 0.0]),
    ("1" + "+1" * 200000, [0.0, 0.0]),
    ("1 + sqrt(y)", [0.5, 0.0]),
    ("1 + sin(x, y)", [0.5, 0.0]),
    ("x + sin()", [0.5, 0.0]),
], ids=["deep-unary", "long-sum", "derivative-fails", "arity", "no-arguments"])
@pytest.mark.parametrize("chart, field", [
    ("plane", {"p": "SRC"}),
    ("plane", {"sigma": "SRC"}),
    ({"metric": {"g11": "SRC", "g22": "1"}}, "zero"),
], ids=["p", "sigma", "metric"])
def test_differentiated_expression_failures_exit_2(src, position, chart, field, tmp_path,
                                                   capsys):
    cfg = json.loads(json.dumps(dict(CONFIG, id="bad-derivative", chart=chart, field=field,
                                     initial={"position": position, "velocity": [1.0, 0.0]}))
                     .replace('"SRC"', json.dumps(src)))
    path = tmp_path / "bad-derivative.json"
    path.write_text(json.dumps(cfg))
    assert main(["integrate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if len(src) < 60:  # failed during the run: the message names the expression and the point
        assert repr(src) in err and f"({position[0]!r}, {position[1]!r})" in err


def test_import_leaves_scipy_unloaded():
    src = str(Path(torsiongeo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # reparametrize is a quadrature on the trace's samples: no splines
    code = ("import sys, torsiongeo, torsiongeo.cli; "
            "from torsiongeo.scenarios import CATALOG, run_scenario; "
            "torsiongeo.reparametrize("
            "run_scenario(CATALOG['sphere-loxodrome-45'], span=(-0.1, 0.1))); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_decompose_subcommand(tmp_path, capsys):
    tensor = tmp_path / "tensor.json"
    tensor.write_text(json.dumps({"vector": [1.0, 2.0, 3.0]}))
    assert main(["decompose", str(tensor)]) == 0
    out = capsys.readouterr().out
    assert "n = 3" in out
    assert "|remainder|_F    : 0.000000000000e+00" in out


@pytest.mark.parametrize("payload", [
    {"values": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
    # finite entries whose antisymmetrized values overflow, and a NaN entry
    {"vector": [1e308, 1e308]},
    {"vector": [math.nan, 1.0]}], ids=["not-antisymmetric", "overflow", "nan"])
def test_decompose_rejects_bad_tensor(tmp_path, capsys, payload):
    tensor = tmp_path / "tensor.json"
    tensor.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["decompose", str(tensor)]) == 2
    capsys.readouterr()


def test_strip_bounds_subcommand(capsys):
    code = main(["strip-bounds", "--y0", "1.0", "--x0", "1.0",
                 "--vx", "1.0", "--vy", "1.0", "--verify", "--t-max", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "strip = (" in out
    assert "confinement: PASS" in out


def test_strip_bounds_verify_integrates_the_exact_launch(capsys):
    # this launch lies between two angles of a 0.5 degree grid; the nearest
    # grid angle leaves the requested strip
    code = main(["strip-bounds", "--y0", "0.3", "--vx", "-0.12399981434160419",
                 "--vy", "0.9922822411205633", "--verify"])
    out = capsys.readouterr().out
    assert "strip = (-1.72712276586, 1.72712276586)" in out
    assert "confinement: PASS" in out
    assert code == 0


def test_strip_bounds_verify_fails_a_span_it_did_not_integrate(monkeypatch, capsys):
    # 1000 steps of h = 2e-3 reach |t| = 2 of the 5 asked for on each side
    # (the package's ``integrate`` is the function, hence import_module)
    integrate = importlib.import_module("torsiongeo.integrate")
    monkeypatch.setattr(integrate, "IntegratorSettings",
                        functools.partial(integrate.IntegratorSettings, max_steps=1000))
    code = main(["strip-bounds", "--y0", "1", "--vx", "1", "--vy", "1", "--verify",
                 "--t-max", "5"])
    out = capsys.readouterr().out
    assert "integrated height range over t in [-2, 2] (stop: max-steps/max-steps)" in out
    assert "confinement: PASS" in out
    assert "span: stopped short of |t| <= 5" in out
    assert code == 1


@pytest.mark.parametrize("t_max", ["-1", "-inf", "inf", "nan"])
def test_strip_bounds_rejects_a_negative_or_non_finite_t_max(t_max, capsys):
    assert main(["strip-bounds", "--y0", "1", "--vx", "1", "--vy", "1", "--verify",
                 f"--t-max={t_max}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --t-max must be finite and >= 0")


@pytest.mark.parametrize("criterion", ["0", "11", "99"])
def test_suite_rejects_a_criterion_outside_1_to_10(criterion, capsys):
    assert main(["suite", "--criteria", criterion]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice" in captured.err


def test_plot_of_a_missing_csv_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["plot", "--csv", str(missing), "--out", str(tmp_path / "fig.svg")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read trace CSV: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "fig.svg").exists()


@pytest.mark.parametrize("argv", [
    ["integrate", "--scenario", "plane-straight", "--out-dir", "{file}"],
    # an artifact's path is a directory
    ["integrate", "--scenario", "plane-straight", "--out-dir", "{dirs}"],
    ["suite", "--criteria", "6", "--out-dir", "{file}"],
    ["plot", "--scenario", "plane-straight", "--out", "{missing}/fig.svg"],
    ["mercator", "--surface", "sphere", "-n", "10", "--out", "{missing}/merc.csv"],
])
def test_an_output_path_that_cannot_be_written_exits_2(argv, tmp_path, capsys):
    file = tmp_path / "a-file"
    file.write_text("")
    (tmp_path / "dirs" / "plane-straight.csv").mkdir(parents=True)
    argv = [a.format(file=file, missing=tmp_path / "missing", dirs=tmp_path / "dirs")
            for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    # nothing is printed: the suite checks its directory before it runs a criterion
    assert captured.out == ""


def test_integrate_report_is_checked_before_it_runs(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["integrate", "--config", str(config_path), "--report", "speed",
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --report is for --scenario runs")
    assert main(["integrate", "--scenario", "plane-straight", "--report", "bogus",
                 "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "invalid choice" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("formats", ["xyz", "csv,xyz", "csv,,json"])
def test_integrate_rejects_an_unknown_format_before_it_runs(formats, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["integrate", "--scenario", "plane-straight", "--format", formats,
                 "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown format ")
    assert not out.exists()


def test_mercator_subcommand(tmp_path, capsys):
    out_file = tmp_path / "merc.csv"
    assert main(["mercator", "--surface", "sphere", "-n", "10",
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "s,y"
    assert len(lines) == 11


def test_plot_subcommand(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    assert main(["plot", "--scenario", "plane-winding-offset",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    svg = out.read_text()
    assert svg.startswith("<svg")
    assert "stroke-dasharray" in svg  # t < 0 part is dashed


def test_plot_embedded_surface(tmp_path, capsys):
    out = tmp_path / "sphere.svg"
    assert main(["plot", "--scenario", "sphere-loxodrome-45",
                 "--embed-surface", "sphere", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().startswith("<svg")


def test_plot_embedding_of_a_trace_outside_the_profile_fails(tmp_path, capsys):
    # the straight plane line runs over s in [-20, 20], past the sphere's (0, pi)
    out = tmp_path / "sphere.svg"
    assert main(["plot", "--scenario", "plane-straight", "--embed-surface", "sphere",
                 "--out", str(out)]) == 2
    assert "outside profile domain" in capsys.readouterr().err
    assert not out.exists()


def test_plot_from_csv(tmp_path, capsys):
    assert main(["integrate", "--scenario", "plane-shear-steep",
                 "--out-dir", str(tmp_path)]) == 0
    out = tmp_path / "replot.svg"
    assert main(["plot", "--csv", str(tmp_path / "plane-shear-steep.csv"),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.exists()


def test_suite_single_criterion(tmp_path, capsys):
    # stdout is the pinned c09 block of tests/data/suite-checks.txt
    pinned = (Path(__file__).parent / "data" / "suite-checks.txt").read_text().splitlines()
    start = next(i for i, line in enumerate(pinned) if line.startswith("criterion 09"))
    end = next(i for i in range(start + 1, len(pinned)) if not pinned[i].startswith(" "))
    code = main(["suite", "--verbose", "--criteria", "9", "--out-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        *pinned[start:end], str(tmp_path / "suite-summary.json"), "1/1 criteria passed"]
    summary = json.loads((tmp_path / "suite-summary.json").read_text())
    assert summary[0]["passed"] is True


def test_compare_conformal_subcommand(capsys):
    code = main(["compare-conformal", "--case", "half-plane"])
    assert code == 0
    out = capsys.readouterr().out
    assert "half-plane" in out


def test_adaptive_underflow_writes_the_partial_trace_and_exits_1(tmp_path, capsys):
    # the field jumps by 1e12 at x = 1: the Fehlberg step shrinks below its
    # floor there, and the run stops with the samples it has
    cfg = {"version": 1, "id": "jump", "chart": "plane",
           "field": {"f": "1e12*(x//1)", "g": "0"},
           "integrator": {"method": "rk45", "h": 1e-3},
           "initial": {"position": [0.9, 0], "velocity": [1, 0.1]}, "span": [0, 1]}
    path = tmp_path / "jump.json"
    path.write_text(json.dumps(cfg))
    assert main(["integrate", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "stop: underflow" in captured.out
    assert "Traceback" not in captured.err
    trace = read_trace_csv(tmp_path / "jump.csv")
    assert 1 < len(trace) and trace.u[-1] < 1.0
    report = json.loads((tmp_path / "jump.report.json").read_text())
    assert report["stop_reason"] == "underflow"
    assert report["method"] == "rk45"
    # the report JSON and the exit code tell the same story
    assert report["all_passed"] is False
