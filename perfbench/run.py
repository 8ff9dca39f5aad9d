"""delaylattice benchmark: one command that runs a workload, checks its
outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload stability-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload runs closed-loop (one client,
each job issued after the previous one finished) in a fresh worker process
with BLAS threads pinned to 1; set-up is timed in several more fresh
processes. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stability-sweep", "fhn-pattern", "lattice-dump")
SETUP_PROBES = 10         # extra fresh processes that only time set-up
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "DELAYLATTICE_THREADS": "1"}
WORKER_GRACE_S = 120.0    # allowance beyond --seconds for set-up and checks


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _run_worker(args, extra: list, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the job list is repeated")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy: tiny inputs for the benchmark's self-tests")
    args = ap.parse_args(argv)

    setups = [_run_worker(args, ["--setup-only"], 60.0)["setup_s"]
              for _ in range(SETUP_PROBES)]
    spans_out = HERE / "_out" / f"spans-{args.workload}-seed{args.seed}.csv"
    extra = []
    if args.trace:
        spans_out.parent.mkdir(exist_ok=True)
        extra = ["--spans-out", str(spans_out)]
    res = _run_worker(args, extra, args.seconds + WORKER_GRACE_S)
    setups.append(res["setup_s"])

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), **res["versions"],
        "thread_pins": THREAD_PINS, "git_commit": _git_commit(),
        "repetitions": len(res["walls"]),
        "traced_repetitions": len(res["traced_walls"]),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for msg in res["problems"]:
        print("FAILED " + msg)

    attempted, failed = res["attempted"], res["failed"]
    fail_ratio = failed / attempted
    if args.trace:
        import tracing  # noqa: E402  (perfbench directory is on sys.path)
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                   for k, v in sorted(res["per_layer"].items())}
        print(f"spans of the last traced repetition: {spans_out.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": 1.0 - fail_ratio, "unit": "ratio"},
        }
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:40s} {m['value']:.6g} {m['unit']}")
    walls = " ".join(f"{w:.4g}" for w in res["walls"])
    print(f"{args.workload:16s} {'repetition wall times':40s} {walls} s")
    print(f"{args.workload:16s} {'fail_ratio':40s} {fail_ratio:.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
