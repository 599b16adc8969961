import json

import numpy as np
import pytest

from torsiongeo.audit import killing_curvature_check, make_report
from torsiongeo.integrate import Trace
from torsiongeo.scenarios import CATALOG, run_scenario
from torsiongeo.traceio import (CSV_COLUMNS, read_trace_csv, reports_to_json,
                                trace_to_csv, write_reports_json, write_trace_csv)


def test_csv_round_trip_bit_exact(tmp_path):
    tr = run_scenario(CATALOG["plane-winding-offset"], span=(-1.0, 1.0))
    path = write_trace_csv(tr, tmp_path / "trace.csv")
    back = read_trace_csv(path)
    for name in ("t", "u", "v", "du", "dv", "speed", "kappa", "g_v"):
        a = getattr(tr, name)
        b = getattr(back, name)
        assert np.array_equal(a, b), name
    # the first row is t = -1; E is the launch speed, at t = 0
    assert back.E == tr.E


COLUMN_ATTRS = ("t", "u", "v", "du", "dv", "speed", "kappa", "g_v")
EDGE_VALUES = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
               1.7976931348623157e308, 0.1, -1.0 / 3.0]


def rowwise_csv(trace: Trace) -> str:
    """The sample-by-sample formatter trace_to_csv replaced."""
    lines = [",".join(CSV_COLUMNS)]
    cols = [getattr(trace, name) for name in COLUMN_ATTRS]
    for i in range(len(trace)):
        lines.append(",".join(f"{col[i]:.17g}" for col in cols))
    return "\n".join(lines) + "\n"


def edge_trace() -> Trace:
    # every column holds every edge value, each column in a different order
    cols = {name: np.roll(EDGE_VALUES, k) for k, name in enumerate(COLUMN_ATTRS)}
    return Trace(**cols, E=1.0)


@pytest.mark.parametrize("make", [
    lambda: run_scenario(CATALOG["pseudosphere-loxodrome"], span=(-1.0, 1.0)),
    edge_trace,
])
def test_csv_matches_rowwise_formatter(make, tmp_path):
    tr = make()
    text = trace_to_csv(tr)
    assert text == rowwise_csv(tr)
    back = read_trace_csv(write_trace_csv(tr, tmp_path / "trace.csv"))
    for name in COLUMN_ATTRS:
        assert getattr(back, name).tobytes() == getattr(tr, name).tobytes(), name


@pytest.mark.parametrize("body", [
    "",
    ",".join(CSV_COLUMNS) + "\n",
    ",".join(CSV_COLUMNS) + "\n" + ",".join(["1"] * 9) + "\n" + ",".join(["1"] * 7) + "\n",
    ",".join(CSV_COLUMNS) + "\n" + ",".join(["1"] * 9) + "\n",
    ",".join(CSV_COLUMNS) + "\n" + ",".join(["1"] * 7 + [""]) + "\n",
])
def test_malformed_csv_raises_value_error(body, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError):
        read_trace_csv(path)


def test_csv_header_and_determinism():
    tr = run_scenario(CATALOG["plane-straight"], span=(0.0, 0.01))
    text = trace_to_csv(tr)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert trace_to_csv(tr) == text


def test_report_json_schema(tmp_path):
    tr = run_scenario(CATALOG["plane-winding-center"], span=(-1.0, 1.0))
    reports = [killing_curvature_check(tr),
               make_report("dummy", tr.t, tr.speed, threshold=1e-5)]
    path = write_reports_json(reports, tmp_path / "r.json", scenario_id="x")
    data = json.loads(path.read_text())
    assert data["scenario"] == "x"
    assert data["all_passed"] is True
    names = {r["name"] for r in data["reports"]}
    assert names == {"killing-curvature", "dummy"}
    for rep in data["reports"]:
        assert {"name", "max_dev", "std", "verdict"} <= set(rep)


def test_report_json_records_the_run_only_when_given_the_trace():
    tr = run_scenario(CATALOG["plane-winding-center"], span=(-1.0, 1.0))
    reports = [make_report("dummy", tr.t, tr.speed, threshold=1e-5)]
    bare = json.loads(reports_to_json(reports, scenario_id="x"))
    assert set(bare) == {"scenario", "reports", "all_passed"}
    full = json.loads(reports_to_json(reports, scenario_id="x", trace=tr))
    assert full == {**bare, "stop_reason": tr.stop_reason, "method": "rk4"}


def test_failed_report_marks_payload():
    tr = run_scenario(CATALOG["plane-winding-center"], span=(-1.0, 1.0))
    rep = make_report("too-strict", tr.t, tr.u, threshold=1e-30)
    payload = json.loads(reports_to_json([rep]))
    assert payload["all_passed"] is False
    assert payload["reports"][0]["verdict"] == "FAIL"
