"""Trace CSV and report JSON serialization.

CSV columns are t,u,v,du,dv,speed,kappa,gV at 17 significant digits, which
round-trips IEEE doubles bit-exactly: a written trace can be re-parsed and
replayed or audited without re-integration.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .audit import InvariantReport
from .integrate import STOP_UNDERFLOW, Trace

CSV_COLUMNS = ("t", "u", "v", "du", "dv", "speed", "kappa", "gV")


def trace_to_csv(trace: Trace) -> str:
    cols = (trace.t, trace.u, trace.v, trace.du, trace.dv,
            trace.speed, trace.kappa, trace.g_v)
    cells = [[f"{x:.17g}" for x in col.tolist()] for col in cols]
    return "\n".join([",".join(CSV_COLUMNS), *map(",".join, zip(*cells))]) + "\n"


def write_trace_csv(trace: Trace, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(trace_to_csv(trace))
    return path


def read_trace_csv(path: str | Path) -> Trace:
    """Parse a trace CSV; the result carries no chart or field objects.
    E is the speed at t = 0, the launch sample of a two-sided trace."""
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",") if lines else []
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = lines[1:]
    if not rows:
        raise ValueError("trace CSV has no samples")
    # a row-count check alone would accept rows of 9 and 7 fields
    width = len(CSV_COLUMNS)
    if any(line.count(",") != width - 1 for line in rows):
        raise ValueError(f"every trace CSV row must have {width} fields")
    data = np.fromiter(map(float, ",".join(rows).split(",")), dtype=float).reshape(-1, width)
    t, u, v, du, dv, speed, kappa, g_v = data.T
    E = float(speed[np.argmin(np.abs(t))])
    return Trace(t=t, u=u, v=v, du=du, dv=dv, speed=speed, kappa=kappa,
                 g_v=g_v, E=E, chart=None, field=None, settings=None,
                 stop_reason="from-csv")


def all_passed(reports: list[InvariantReport], trace: Trace | None = None) -> bool:
    """No report failed and, given ``trace``, that run did not stop on step
    underflow; the report JSON's ``all_passed`` and the exit code of
    ``torsiongeo integrate`` both read this."""
    if trace is not None and STOP_UNDERFLOW in trace.stop_reason.split("/"):
        return False
    return all(r.passed is not False for r in reports)


def reports_to_json(reports: list[InvariantReport], scenario_id: str | None = None,
                    trace: Trace | None = None) -> str:
    """The reports as JSON; with ``trace``, also how that run stopped and
    the method that ran."""
    payload = {
        "scenario": scenario_id,
        "reports": [r.to_dict() for r in reports],
        "all_passed": all_passed(reports, trace),
    }
    if trace is not None:
        payload["stop_reason"] = trace.stop_reason
        payload["method"] = trace.settings.method if trace.settings else None
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_reports_json(reports: list[InvariantReport], path: str | Path,
                       scenario_id: str | None = None, trace: Trace | None = None) -> Path:
    path = Path(path)
    path.write_text(reports_to_json(reports, scenario_id, trace))
    return path
