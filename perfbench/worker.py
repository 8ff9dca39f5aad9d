"""One workload in one fresh process: set up, repeat the job list for the
given number of seconds, check every repetition, print a JSON result line.

Started by run.py with BLAS threads pinned and the checkout's ``src`` on
PYTHONPATH. ``--setup-only`` stops after set-up and reports its time.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_package():
    """Import delaylattice from this checkout only, never from elsewhere."""
    import delaylattice
    src = (ROOT / "src").resolve()
    where = Path(delaylattice.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"delaylattice imported from {where}, not from {src}")
    return delaylattice


def _run_rep(wl, inp, ref, tracer, traced: bool):
    """One repetition: time the job list, then check its outputs. Returns
    (wall_s, attempted, failed, problems, extra_counts)."""
    jobs = wl.jobs(inp)
    results = {}
    raised = {}
    tracer.reset()
    tracer.enabled = traced
    t0 = time.perf_counter()
    try:
        for k, job in enumerate(jobs):
            try:
                job.run(results)
            except Exception as exc:  # a failed operation is counted, not fatal
                raised[job.name] = f"raised {exc!r}"
                for later in jobs[k + 1:]:
                    raised[later.name] = f"not run: {job.name} failed"
                break
    finally:
        wall = time.perf_counter() - t0
        tracer.enabled = False
    extra = {}
    if hasattr(wl, "bytes_written"):
        extra["cli.bytes_written"] = wl.bytes_written(inp)
    try:
        bad = wl.check(inp, results, ref)
    except Exception:
        bad = {job.name: ["check raised: " + traceback.format_exc(limit=3)]
               for job in jobs}
    problems = []
    failed = 0
    for job in jobs:
        msgs = ([raised[job.name]] if job.name in raised else []) + bad.get(job.name, [])
        if msgs:
            failed += 1
            problems.append(f"{job.name}: {'; '.join(msgs)}")
    return wall, len(jobs), failed, problems, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    _import_package()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ref = workloads.load_reference()
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inp = wl.setup(args.seed, args.scale, workdir, ref)
        setup_s = time.perf_counter() - _T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer) if args.trace else (lambda: None)
        try:
            deadline = time.perf_counter() + args.seconds
            walls = {False: [], True: []}    # per repetition, untraced / traced
            layer_runs = []
            attempted = failed = 0
            problems = []
            longest = 0.0
            while True:
                # with tracing, alternate untraced and traced repetitions
                traced = bool(args.trace) and len(walls[False]) > len(walls[True])
                t_rep = time.perf_counter()
                wall, n, f, probs, extra = _run_rep(wl, inp, ref, tracer, traced)
                longest = max(longest, time.perf_counter() - t_rep)
                walls[traced].append(wall)
                attempted += n
                failed += f
                problems += probs
                if traced:
                    layer_runs.append(tracing.layer_metrics(tracer, wall, extra))
                    if args.spans_out:
                        tracing.write_spans(tracer.spans, args.spans_out)
                enough = walls[False] and (walls[True] or not args.trace)
                if enough and time.perf_counter() + longest > deadline:
                    break
        finally:
            uninstall()

        import numpy
        import scipy
        result = {
            "setup_s": setup_s,
            "walls": walls[False],
            "traced_walls": walls[True],
            "attempted": attempted,
            "failed": failed,
            "problems": problems[:20],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "versions": {"python": sys.version.split()[0],
                         "numpy": numpy.__version__, "scipy": scipy.__version__},
        }
        if args.trace:
            layer = {k: statistics.median(run[k] for run in layer_runs)
                     for k in layer_runs[0]}
            layer["trace.overhead_ratio"] = (statistics.median(walls[True])
                                             / statistics.median(walls[False]))
            result["per_layer"] = layer
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
