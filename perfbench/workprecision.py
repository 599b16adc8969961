"""Work-precision table: drift against wall time, per runtime and setting.

    python3 perfbench/workprecision.py

For one catalog scenario per runtime, integrates two-sided over
[-SPAN, SPAN] (clipped to the scenario's own span) with RK4 at
h in {1e-2, 3e-3, 1e-3} and with RKF45 at rtol in {1e-6, 1e-9, 1e-12}, and
prints the relative speed drift and the drift of the runtime's invariant
(the flat invariant, the conformal constant or the loxodrome angle)
against the integration wall time.  Information only: nothing is gated.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

SCENARIOS = {
    "plane-zero": "plane-straight",
    "plane-winding": "plane-winding-offset",
    "plane-shear": "plane-shear-diagonal",
    "halfplane-sigma": "plane-gradient-halfplane",
    "sphere": "sphere-loxodrome-45",
    "pseudosphere": "pseudosphere-loxodrome",
    "catenoid": "catenoid-loxodrome-45",
}
#: Half-width of the integration interval.
SPAN = 5.0
SETTINGS = [("rk4", {"h": h}) for h in (1e-2, 3e-3, 1e-3)] + \
           [("rk45", {"rtol": r}) for r in (1e-6, 1e-9, 1e-12)]


def invariant(lib, key: str, trace, rt) -> tuple[str, float | None]:
    if key in ("plane-winding", "plane-shear"):
        return "flat-invariant", lib.plane.flat_invariant(trace).max_dev
    if key == "halfplane-sigma":
        return "conformal-constant", lib.audit.conformal_constant(trace, X=(1.0, 0.0)).std
    if rt.surface is not None:
        return "loxodrome-angle", lib.surfaces.loxodrome_check(trace, rt.surface).std
    return "-", None


def main() -> int:
    lib = W.load_library()
    sc = lib.scenarios
    print("| runtime | method | setting | samples | wall ms | speed drift | invariant | drift |")
    print("|---|---|---|---:|---:|---:|---|---:|")
    for key, sid in SCENARIOS.items():
        scen = sc.CATALOG[sid]
        rt = sc.build_runtime(scen.runtime)
        t0, t1 = max(scen.span[0], -SPAN), min(scen.span[1], SPAN)
        for method, kw in SETTINGS:
            start = time.perf_counter()
            trace = lib.integrate.integrate_two_sided(
                rt.chart, rt.field, scen.launch_state(), t0, t1, method=method,
                h=kw.get("h", 1e-3), rtol=kw.get("rtol", 1e-9), scenario_id=sid)
            wall = time.perf_counter() - start
            name, drift = invariant(lib, key, trace, rt)
            setting = ", ".join(f"{k}={v:g}" for k, v in kw.items())
            print(f"| {key} | {method} | {setting} | {len(trace)} | {wall * 1e3:.1f} | "
                  f"{trace.max_speed_drift():.1e} | {name} | "
                  f"{'-' if drift is None else f'{drift:.1e}'} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
