"""One measuring process: set up, run rounds of a workload, report.

Run by ``run.py`` in a fresh interpreter.  Set-up imports the library,
builds the runtimes and generates the round's job list: chunks
``0 .. CHUNKS_PER_ROUND - 1`` of the workload.  It then prints ``READY``
and runs the same job list round after round in a closed loop (one
client: the next job starts when the previous one ends) until the next
round would overrun the time budget; at least one round always runs.
Every round's outputs are checked.  It prints one JSON object as its last
line, with each job's time over the rounds: the sum over the job's parts
of each part's low median round (a suite job's parts are its ten
criteria; any other job is a single part).  With ``--setup-only``
it exits after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", type=Path, help="write the span list here (traced runs)")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import torsiongeo  # noqa: F401  first, so its import time includes numpy and scipy
    import workloads as W

    lib = W.load_library()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(lib)
    for key in W.RUNTIMES:
        lib.scenarios.build_runtime(key)
    chunks = [W.make_jobs(lib, args.workload, args.seed, k)
              for k in range(W.CHUNKS_PER_ROUND[args.workload])]
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tmp = HERE / "out" / f"tmp-{args.workload}-{args.seed}-{int(args.trace)}"
    tmp.mkdir(parents=True, exist_ok=True)
    runner = W.Runner(lib, args.workload, tmp)
    if tracer is not None:
        runner.job_hook = lambda job_id: setattr(tracer, "job", job_id)
    round_seconds: list[float] = []
    round_parts: list[list[list[float]]] = []    # per round, per job, its parts' times
    results = []
    first = None
    digest = None
    start = time.perf_counter()
    try:
        while True:
            t0 = time.perf_counter()
            out = [r for jobs in chunks for r in runner.run_chunk(jobs)]
            round_seconds.append(time.perf_counter() - t0)
            results += out
            if not round_parts:
                digest = W.chunk_digest(out)
                first = tracer.snapshot() if tracer else None
            round_parts.append([r.parts for r in out])
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(round_seconds) > args.seconds:
                break
    finally:
        runner.close()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(round_seconds),
        "round_seconds": round_seconds,
        "job_seconds": [sum(statistics.median_low(times) for times in zip(*parts))
                        for parts in zip(*round_parts)],
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "unexpected": [f for r in results if not r.ok and not r.known for f in r.failures()],
        "known": [f for r in results if not r.ok and r.known for f in r.failures()],
        "controls": [{"label": c.label, "value": c.value, "ok": c.ok} for c in runner.controls],
        "samples": sum(r.samples for r in results),
        "digest": digest,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        from metrics import per_layer
        report["layers"] = per_layer(first, tracer.snapshot(), len(round_seconds))
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
