"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Job lists are deterministic per seed, configs generate no sphere
launches, a suite job times each criterion, the rk45 known-failure kind
is capped, metric names are well formed and match BENCHMARK.json, traced
and untraced workers produce the same output digests, the negative
control runs on configs, and the runner refuses to run without the
library next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return W.load_library()


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_job_lists_are_deterministic_per_seed(lib, workload):
    for chunk in (0, 1):
        assert W.make_jobs(lib, workload, 7, chunk) == W.make_jobs(lib, workload, 7, chunk)
    if workload != "suite":
        assert W.make_jobs(lib, workload, 7, 0) != W.make_jobs(lib, workload, 8, 0)
        assert W.make_jobs(lib, workload, 7, 0) != W.make_jobs(lib, workload, 7, 1)


def test_catalog_launches_lie_in_the_sample_boxes(lib):
    for chunk in range(5):
        for job in W.make_jobs(lib, "catalog", 3, chunk):
            u0, u1, v0, v1 = lib.scenarios.build_runtime(job["runtime"]).chart.sample_box
            assert u0 <= job["start"][0] <= u1 and v0 <= job["start"][1] <= v1


def test_configs_parse(lib):
    for job in W.make_jobs(lib, "configs", 5, 0):
        lib.scenarios.ScenarioConfig.from_dict(job)


def test_configs_leave_out_the_sphere(lib):
    # seeded sphere launches that reach the pole cap fail (KNOWN_FAILURES[0]);
    # configs is gated, so it must not generate them
    for chunk in range(W.CHUNKS_PER_ROUND["configs"]):
        for job in W.make_jobs(lib, "configs", 11, chunk):
            assert job.get("chart") != {"surface": "sphere"}


def test_suite_job_times_each_criterion():
    def criterion(index):
        def fn(ctx):
            check = types.SimpleNamespace(label="x", value=0.5, bound=1.0, op="<")
            return types.SimpleNamespace(index=index, checks=[check])
        return fn

    criteria = tuple(criterion(i) for i in (1, 2, 3))
    suite = types.SimpleNamespace(ALL_CRITERIA=criteria)
    suite.run_all = lambda seed: [fn(None) for fn in suite.ALL_CRITERIA]
    res = W.run_suite_job(types.SimpleNamespace(suite=suite), {"id": "suite-0", "seed": 1})
    assert res.ok and len(res.checks) == 3
    assert len(res.parts) == 3 and all(t >= 0.0 for t in res.parts)
    assert suite.ALL_CRITERIA is criteria


def test_rk45_known_failure_is_capped():
    near = W.Check("speed", 5e-6, 1e-6)
    assert not near.ok and W.is_rk45_near_miss(near)
    assert not W.is_rk45_near_miss(W.Check("speed", 2e-5, 1e-6))
    assert not W.is_rk45_near_miss(W.Check("speed", float("nan"), 1e-6))
    assert not W.is_rk45_near_miss(W.Check("speed", float("inf"), 1e-6))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layers == metrics.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(W.WORKLOADS)
    for name in [*e2e, *layers]:
        assert metrics.NAME_RE.fullmatch(name), name


def test_import_breakdown_parses_importtime_output():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy.interpolate",
        "import time:        50 |        350 |   torsiongeo.audit",
        "import time:        10 |        360 | torsiongeo",
    ])
    out = metrics.import_breakdown(text)
    assert out["torsiongeo_s"] == pytest.approx(360e-6)
    assert out["scipy_s"] == pytest.approx(300e-6)
    assert out["scipy_importers"] == [("torsiongeo.audit", pytest.approx(300e-6))]


def _worker(workload: str, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0"]
    if traced:
        cmd.append("--trace")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["configs", "sweep"])
def test_traced_and_untraced_digests_agree(workload):
    plain = _worker(workload, traced=False)
    traced = _worker(workload, traced=True)
    assert plain["unexpected"] == [] and traced["unexpected"] == []
    assert plain["digest"] == traced["digest"]
    if workload == "configs":  # the speed negative control runs on configs too
        assert plain["controls"] and all(c["ok"] for c in plain["controls"])
    assert traced["layers"]["integrate.samples" if workload == "configs"
                            else "plane.ns_per_angle_step"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalog",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
