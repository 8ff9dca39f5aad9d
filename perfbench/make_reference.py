"""Regenerate perfbench/reference.json, the correctness references of the
benchmark, from the current code. Run it only on a commit whose results
are trusted; the benchmark compares every later commit against them.

    PYTHONPATH=src python3 perfbench/make_reference.py

It recomputes every reference in one run (about ten minutes): the Floquet
verdict of every plane wave, the other stability-sweep quantities, the
fhn-pattern reference period and the lattice-dump digests of the seeds in
``workloads.DIGEST_SEEDS``. reference.json is written only when all of
them succeed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from delaylattice import sl  # noqa: E402


def _run_jobs(wl, inp, names=None) -> dict:
    results = {}
    for job in wl.jobs(inp):
        if names is None or job.name in names:
            job.run(results)
    return results


def make_verdicts(ref: dict):
    ws = workloads._sl_wave_spec()
    tau = workloads.SL_WAVES["tau"]
    waves = sl.sl_enumerate_plane_waves(ws.params, ws.coupling, tau, ws)
    out = ref.setdefault("stability-sweep", {})
    out["n_waves"] = len(waves)
    verdicts = []
    for i, w in enumerate(waves):
        v = sl.sl_floquet_exact(w, ws.params, ws.coupling, tau, spec=ws)
        verdicts.append([v.cls.value, v.max_growth])
        print(f"verdict {i + 1}/{len(waves)}: {v.cls.value} {v.max_growth:.6g}",
              flush=True)
    out["verdicts"] = verdicts


def make_stability(ref: dict, workdir: Path):
    wl = workloads.WORKLOADS["stability-sweep"]
    for scale in ("full", "toy"):
        inp = wl.setup(0, scale, workdir, ref)
        inp["wave_sample"] = []
        ref["stability-sweep"][scale] = wl.summary(_run_jobs(wl, inp))


def make_period(ref: dict, workdir: Path):
    wl = workloads.WORKLOADS["fhn-pattern"]
    inp = wl.setup(0, "full", workdir, ref)
    ref["fhn-pattern"] = wl.summary(_run_jobs(wl, inp, {"reference", "period"}))
    print(f"period: {ref['fhn-pattern']['period']!r}", flush=True)


def make_digests(ref: dict, workdir: Path):
    wl = workloads.WORKLOADS["lattice-dump"]
    out = ref.setdefault("lattice-dump", {})
    for scale, seeds in workloads.DIGEST_SEEDS.items():
        digests = {}
        for seed in seeds:
            sub = workdir / f"dump-{scale}-{seed}"
            sub.mkdir()
            inp = wl.setup(seed, scale, sub, ref)
            _run_jobs(wl, inp)
            digests[str(seed)] = wl.digest(inp["dirs"]["sim"])
            print(f"digest {scale} seed {seed}: {digests[str(seed)]}", flush=True)
        out[scale] = {"digests": digests}


def main() -> int:
    ref = {}
    workdir = HERE / "_work" / "make_reference"
    workdir.mkdir(parents=True)
    try:
        make_verdicts(ref)
        make_stability(ref, workdir)
        make_period(ref, workdir)
        make_digests(ref, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
