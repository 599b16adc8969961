"""torsiongeo benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
``worker.py`` process with BLAS/OpenMP pinned to one thread:

* ``--trace 0``: three set-up-only processes and the measured worker, whose
  set-up counts as a fourth sample of ``setup_s``; prints the end-to-end
  metrics.
* ``--trace 1``: a set-up process under ``python -X importtime`` (import
  breakdown), then an untraced and a traced worker of half the budget
  each; prints the per-layer metrics and the tracing overhead, and fails
  if the two workers' output digests differ.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output was verified correct and 1 otherwise; 2 means the
benchmark could not run (bad arguments, or no library next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from workloads import KNOWN_FAILURES, WORKLOADS  # noqa: E402

SETUP_PROBES = 3
#: Slack past the time budget before a worker is killed.
WORKER_GRACE_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """A worker crashed or timed out."""


def _env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def _worker(args: list[str], timeout: float, python_flags: tuple = ()) -> tuple[float, dict | None, str]:
    """Start a worker; return (seconds until READY, final JSON or None, stderr)."""
    cmd = [sys.executable, *python_flags, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise subprocess.TimeoutExpired(cmd, timeout)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} timed out")
    except BaseException:
        # interrupted (SIGINT, or SIGTERM via the handler in main): end the worker too
        proc.kill()
        proc.communicate()
        raise
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed ({proc.returncode}):\n{stderr[-4000:]}")
    lines = stdout.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None), stderr


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
            "threads": {k: "1" for k in THREAD_VARS}}


def _probe(workload: str, seed: int, python_flags: tuple = ()) -> tuple[float, str]:
    setup, _, stderr = _worker(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                                "--setup-only"], WORKER_GRACE_S, python_flags)
    return setup, stderr


def _measure(workload: str, seed: int, seconds: float, traced: bool = False,
             spans: Path | None = None) -> tuple[float, dict]:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        args += ["--trace", "--spans", str(spans)]
    setup, result, _ = _worker(args, seconds + WORKER_GRACE_S)
    return setup, result


def _problems(result: dict) -> list[str]:
    out = list(result["unexpected"])
    out += [f"negative control passed: {c['label']}" for c in result["controls"] if not c["ok"]]
    if result["workload"] in ("catalog", "configs") and not result["controls"]:
        out.append("the speed negative control never ran")
    return out


def _print_result(result: dict) -> None:
    n = result["attempted"]
    print(f"jobs attempted {n}, failed {result['failed']} "
          f"(failed_ratio {result['failed'] / n:.4f}), rounds {result['rounds']}, "
          f"samples {result['samples']}, digest {result['digest'][:16]}")
    if result["known"]:
        print("known failures, of these kinds: " + "; ".join(KNOWN_FAILURES))
        for line in result["known"]:
            print(f"  {line}")
    for line in _problems(result):
        print(f"WRONG OUTPUT: {line}")


def _metric_block(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if not trace:
        setups = [_probe(workload, seed)[0] for _ in range(SETUP_PROBES)]
        setup, result = _measure(workload, seed, seconds)
        setups.append(setup)
        _print_result(result)
        values = metrics.end_to_end(result, setups)
        units = metrics.END_TO_END
        problems = _problems(result)
    else:
        _, stderr = _probe(workload, seed, ("-X", "importtime"))
        imports = metrics.import_breakdown(stderr)
        print("scipy import time by importer: " + ", ".join(
            f"{name} {sec:.3f} s" for name, sec in imports["scipy_importers"][:5]))
        _, plain = _measure(workload, seed, seconds / 2)
        spans = out_dir / f"spans-{workload}-{seed}.jsonl"
        _, result = _measure(workload, seed, seconds / 2, traced=True, spans=spans)
        _print_result(result)
        wall_plain = metrics.wall_seconds(plain)
        wall_traced = metrics.wall_seconds(result)
        print(f"wall_s untraced {wall_plain:.4f}, traced {wall_traced:.4f}; "
              f"{result['spans']} spans written to {spans.relative_to(ROOT)}")
        values = dict(result["layers"])
        values["import.torsiongeo_s"] = imports["torsiongeo_s"]
        values["import.scipy_s"] = imports["scipy_s"]
        values["trace.overhead_s"] = wall_traced - wall_plain
        values["failed_ratio"] = result["failed"] / result["attempted"]
        units = metrics.PER_LAYER
        problems = _problems(result) + _problems(plain)
        if plain["digest"] != result["digest"]:
            problems.append(f"digest differs: untraced {plain['digest']} traced {result['digest']}")
        else:
            print(f"digests agree between the untraced and the traced run: {result['digest']}")
    block = _metric_block(values, units)
    for name, m in block.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    summary = {"correct": not problems, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": block}
    (out_dir / f"result-{workload}-{seed}-{int(trace)}.json").write_text(
        json.dumps({"environment": env, "summary": summary, "worker": {
            k: v for k, v in result.items() if k != "layers"}}, indent=1))
    return summary


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "torsiongeo" / "__init__.py").is_file():
        print(f"no torsiongeo sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
