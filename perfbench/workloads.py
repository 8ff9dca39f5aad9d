"""The benchmark's workloads: seeded inputs, the fixed job list of one
repetition, and the correctness checks against seed-commit references.

Every job calls the package through module attributes (``sl.sl_floquet_exact``,
``dde.simulate``, ``cli.main``, ...) so that the hooks in ``tracing`` see it.

Why these three workloads:

- ``stability-sweep``: exact stability analysis only (Floquet verdicts of
  a seeded plane-wave sample, a long-delay Lambert-W spectrum with its Hopf
  threshold, FHN characteristic roots and Hopf points). It isolates the
  ``roots``, ``lambertw``, ``sl`` and ``fhn`` layers; ``dde`` does no work.
- ``fhn-pattern``: the pattern-encoding pipeline on a 1x1 reference orbit
  and 12x16 lattices, where the integrator's per-step overhead and the dense
  output reads dominate; ``roots`` is idle.
- ``lattice-dump``: the command-line pipeline on a 32x32 lattice, where
  per-node arithmetic, ring-buffer memory and CSV artifact writes dominate.
  A per-step-overhead gain should show on ``fhn-pattern`` and not here; a
  per-element, memory or CSV gain should show the reverse.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from delaylattice import cli, core, dde, fhn, pattern, sl
from delaylattice.core import FHNParams, LatticeSpec, Model, SLParams, WaveVector

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# relative tolerance of a lattice-dump digest against its reference
DIGEST_RTOL = 1e-6
# held out while the benchmark was tuned, for later claims of a gain
HELD_OUT_SEED = 9001
# seeds whose lattice-dump digest reference.json stores; a seed listed here
# whose digest is missing fails the check
DIGEST_SEEDS = {"full": (*range(0, 64), HELD_OUT_SEED), "toy": tuple(range(0, 8))}

PARAMS = {
    "stability-sweep": {
        "full": {"n_verdicts": 4, "spectrum_torus": 6, "fhn_torus": 3,
                 "hopf_seeds": 12},
        "toy": {"n_verdicts": 1, "spectrum_torus": 2, "fhn_torus": 2,
                "hopf_seeds": 6},
    },
    "fhn-pattern": {
        "full": {"rows": 12, "cols": 16, "n_images": 2},
        "toy": {"rows": 4, "cols": 4, "n_images": 1},
    },
    "lattice-dump": {
        "full": {"size": 32},
        "toy": {"size": 6},
    },
}

# fixed physics of each workload (the seed only picks samples, images and noise)
SL_WAVES = dict(alpha=3.0, beta=0.5, C=2.0, tau=20.0, rows=5, cols=5)
SL_SPECTRUM = dict(alpha=-2.5, beta=0.5, C=2.0, tau=200.0)
FHN_STAB = dict(I=0.0, C=3.0, tau=50.0)
FHN_PATTERN = dict(I=0.0, C=3.0, tau=50.0, dt=0.05, record_every=2,
                   ref_t_end=320.0, t_discard=100.0, eta_frac=0.05,
                   periods=1.5, min_corr=0.999)
DUMP = dict(I=0.5, C=1.0, tau=80.0, eta_max=2.0, dt=0.1, t_end=120.0,
            record_every=10)


@dataclass
class Job:
    """One operation of the job list; ``run`` reads and writes the
    repetition's shared results dict."""
    name: str
    run: Callable[[dict], None]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def smooth_image(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Seeded 8-bit image: a few random plane-wave components plus noise,
    stretched to gray levels 20..235."""
    mm, nn = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    f = 0.3 * rng.standard_normal((rows, cols))
    for _ in range(3):
        k1, k2 = rng.uniform(-0.8, 0.8, 2)
        f += rng.uniform(0.5, 1.0) * np.cos(k1 * mm + k2 * nn
                                            + rng.uniform(0.0, 2 * math.pi))
    f = (f - f.min()) / (f.max() - f.min())
    return (20 + 215 * f).astype(np.uint8)


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


# ---------------------------------------------------------------------------
# stability-sweep

def _sl_wave_spec():
    p = SL_WAVES
    return LatticeSpec(p["rows"], p["cols"], Model.STUART_LANDAU,
                       SLParams(p["alpha"], p["beta"]), p["C"])


class StabilitySweep:
    name = "stability-sweep"

    def setup(self, seed: int, scale: str, workdir: Path, ref: dict) -> dict:
        prm = PARAMS[self.name][scale]
        rng = np.random.default_rng(seed)
        n_waves = ref[self.name]["n_waves"]
        sample = sorted(int(i) for i in rng.choice(n_waves, prm["n_verdicts"],
                                                   replace=False))
        m = prm["spectrum_torus"]
        f = prm["fhn_torus"]
        return {
            "scale": scale,
            "wave_spec": _sl_wave_spec(),
            "wave_sample": sample,
            "spectrum_spec": LatticeSpec(
                m, m, Model.STUART_LANDAU,
                SLParams(SL_SPECTRUM["alpha"], SL_SPECTRUM["beta"]),
                SL_SPECTRUM["C"]),
            "fhn_spec": LatticeSpec(f, f, Model.FITZHUGH_NAGUMO,
                                    FHNParams(I=FHN_STAB["I"]), FHN_STAB["C"]),
            "hopf_seeds": (prm["hopf_seeds"], prm["hopf_seeds"]),
        }

    def jobs(self, inp: dict) -> list:
        ws = inp["wave_spec"]
        tau = SL_WAVES["tau"]
        jobs = [Job("enumerate", lambda r: r.__setitem__(
            "waves", sl.sl_enumerate_plane_waves(ws.params, ws.coupling, tau, ws)))]
        for i in inp["wave_sample"]:
            def verdict(r, i=i):
                r[f"verdict[{i}]"] = sl.sl_floquet_exact(
                    r["waves"][i], ws.params, ws.coupling, tau, spec=ws)
            jobs.append(Job(f"verdict[{i}]", verdict))

        ss = inp["spectrum_spec"]
        s_tau = SL_SPECTRUM["tau"]

        def spectrum(r):
            r["spectrum"] = [sl.sl_stst_eigenvalues(ss.params, ss.coupling, s_tau, wv)
                             for wv in core.enumerate_modes(ss)]

        def hopf_threshold(r):
            r["hopf_threshold"] = sl.sl_hopf_threshold(ss.params, ss.coupling,
                                                       s_tau, ss)
        jobs += [Job("spectrum", spectrum), Job("hopf_threshold", hopf_threshold)]

        fs = inp["fhn_spec"]
        f_tau = FHN_STAB["tau"]

        def steady_states(r):
            r["fhn_states"] = fhn.fhn_steady_states(fs.params, fs.coupling)

        def char_roots(r):
            stst = r["fhn_states"][0]
            r["char_roots"] = [fhn.fhn_char_roots(stst, fs.params, fs.coupling,
                                                  f_tau, wv)
                               for wv in core.enumerate_modes(fs)]

        def hopf_points(r):
            r["hopf_points"] = fhn.fhn_hopf_points(
                fs.params, fs.coupling, f_tau, WaveVector(0.0, 0.0),
                n_seeds=inp["hopf_seeds"])
        jobs += [Job("fhn_steady_states", steady_states),
                 Job("fhn_char_roots", char_roots),
                 Job("fhn_hopf_points", hopf_points)]
        return jobs

    @staticmethod
    def summary(r: dict) -> dict:
        """The quantities the seed-commit reference stores."""
        out = {}
        if "spectrum" in r:
            out["spectrum"] = [[len(rs), rs.max_real()] for rs in r["spectrum"]]
        if "hopf_threshold" in r:
            out["hopf_threshold"] = r["hopf_threshold"]
        if "fhn_states" in r:
            out["fhn_states"] = [s.v for s in r["fhn_states"]]
        if "char_roots" in r:
            out["char_roots"] = [[len(rs), rs.max_real()] for rs in r["char_roots"]]
        if "hopf_points" in r:
            out["hopf_points"] = [[float(I), float(om)] for I, om in r["hopf_points"]]
        return out

    def check(self, inp: dict, r: dict, ref: dict) -> dict:
        ref_all = ref[self.name]
        want = ref_all[inp["scale"]]
        got = self.summary(r)
        bad = {}
        if "waves" in r:
            p = inp["wave_spec"].params
            if len(r["waves"]) != ref_all["n_waves"]:
                bad["enumerate"] = [f"{len(r['waves'])} waves, "
                                    f"reference {ref_all['n_waves']}"]
            worst = max(max(abs(x) for x in sl.plane_wave_invariant_residuals(w, p))
                        for w in r["waves"])
            if not worst < 1e-10:
                bad.setdefault("enumerate", []).append(
                    f"plane-wave invariant residual {worst:.3e} >= 1e-10")
        for i in inp["wave_sample"]:
            key = f"verdict[{i}]"
            if key in r:
                cls, growth = ref_all["verdicts"][i]
                v = r[key]
                if v.cls.value != cls or not abs(v.max_growth - growth) <= 1e-6:
                    bad[key] = [f"verdict ({v.cls.value}, {v.max_growth!r}), "
                                f"reference ({cls}, {growth!r})"]
        for key, job, atol in (("spectrum", "spectrum", 1e-9),
                               ("hopf_threshold", "hopf_threshold", 1e-8),
                               ("fhn_states", "fhn_steady_states", 1e-10),
                               ("char_roots", "fhn_char_roots", 1e-8),
                               ("hopf_points", "fhn_hopf_points", 1e-8)):
            if key in got and not _nested_close(got[key], want[key], atol):
                bad[job] = [f"{key} {got[key]!r} != reference {want[key]!r}"]
        return bad


def _nested_close(a, b, atol: float) -> bool:
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return (isinstance(a, (list, tuple)) and isinstance(b, (list, tuple))
                and len(a) == len(b)
                and all(_nested_close(x, y, atol) for x, y in zip(a, b)))
    return abs(a - b) <= atol


# ---------------------------------------------------------------------------
# fhn-pattern

class FhnPattern:
    name = "fhn-pattern"

    def setup(self, seed: int, scale: str, workdir: Path, ref: dict) -> dict:
        prm = PARAMS[self.name][scale]
        rng = np.random.default_rng(seed)
        p = FHN_PATTERN
        return {
            "scale": scale,
            "images": [smooth_image(rng, prm["rows"], prm["cols"])
                       for _ in range(prm["n_images"])],
            "pgm_dir": workdir,
            "ref_spec": LatticeSpec(1, 1, Model.FITZHUGH_NAGUMO,
                                    FHNParams(I=p["I"]), p["C"]),
            "lattice_spec": LatticeSpec(prm["rows"], prm["cols"],
                                        Model.FITZHUGH_NAGUMO,
                                        FHNParams(I=p["I"]), p["C"]),
        }

    def jobs(self, inp: dict) -> list:
        p = FHN_PATTERN
        dt, tau = p["dt"], p["tau"]

        def reference(r):
            r["ref"] = dde.simulate(
                inp["ref_spec"], core.DelayMap.homogeneous(1, 1, tau),
                dde.ConstantHistory(np.array([[[2.0, 0.0, 0.0]]])),
                t_end=p["ref_t_end"], dt=dt, record_every=p["record_every"],
                store_full=True)

        def period(r):
            r["period"] = dde.estimate_orbit_period(r["ref"], t_discard=p["t_discard"])

        jobs = [Job("reference", reference), Job("period", period)]
        for k, img in enumerate(inp["images"]):
            path = inp["pgm_dir"] / f"image{k}.pgm"

            def encode(r, k=k, img=img, path=path):
                pattern.write_pgm(path, img)
                r[f"image[{k}]"] = pattern.read_pgm(path)
                eta_max = p["eta_frac"] * r["period"]
                sf = pattern.eta_from_image(r[f"image[{k}]"], 0.0, eta_max)
                # grid-aligned shifts make the replay an exact conjugacy
                r[f"eta[{k}]"] = (np.round(sf.eta / dt) * dt, eta_max)
                r[f"delays[{k}]"] = pattern.delays_from_timeshifts(
                    pattern.ShiftField(r[f"eta[{k}]"][0]), tau)

            def simulate(r, k=k):
                hist = dde.ShiftedReplayHistory(r["ref"].dense, p["t_discard"],
                                                r[f"eta[{k}]"][0])
                r[f"traj[{k}]"] = dde.simulate(
                    inp["lattice_spec"], r[f"delays[{k}]"], hist,
                    t_end=p["periods"] * r["period"], dt=dt,
                    record_every=p["record_every"])

            def readout(r, k=k):
                eta, eta_max = r[f"eta[{k}]"]
                traj = r[f"traj[{k}]"]
                spikes = dde.detect_spikes(traj)
                s0 = next(t for t in spikes[0][0] if t >= eta_max + 1.0)
                r[f"fidelity[{k}]"] = pattern.verify_pattern(
                    traj, pattern.ShiftField(eta), r["period"],
                    t_discard=s0 - eta_max - 0.5)

            jobs += [Job(f"encode[{k}]", encode), Job(f"simulate[{k}]", simulate),
                     Job(f"readout[{k}]", readout)]
        return jobs

    @staticmethod
    def summary(r: dict) -> dict:
        return {"period": r["period"]} if "period" in r else {}

    def check(self, inp: dict, r: dict, ref: dict) -> dict:
        want = ref[self.name]["period"]
        bad = {}
        if "period" in r and not abs(r["period"] - want) <= 1e-4 * want:
            bad["period"] = [f"period {r['period']!r}, reference {want!r}"]
        for k, img in enumerate(inp["images"]):
            got = r.get(f"image[{k}]")
            if got is not None and not np.array_equal(got, img):
                bad[f"encode[{k}]"] = ["PGM round trip changed the image"]
            fid = r.get(f"fidelity[{k}]")
            if fid is None:
                continue
            job = f"readout[{k}]"
            corr = fid.correlation
            if corr is None or not corr >= FHN_PATTERN["min_corr"]:
                bad.setdefault(job, []).append(
                    f"correlation {corr!r} < {FHN_PATTERN['min_corr']}")
            if fid.missing_nodes:
                bad.setdefault(job, []).append(
                    f"{len(fid.missing_nodes)} nodes without spikes")
        return bad


# ---------------------------------------------------------------------------
# lattice-dump

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _last_lines(path: Path, n: int) -> list:
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        chunk = min(size, 256 * (n + 1))
        fh.seek(size - chunk)
        lines = fh.read().decode().splitlines()
    return lines[-n:]


class LatticeDump:
    name = "lattice-dump"

    def setup(self, seed: int, scale: str, workdir: Path, ref: dict) -> dict:
        prm = PARAMS[self.name][scale]
        rng = np.random.default_rng(seed)
        size = prm["size"]
        img = smooth_image(rng, size, size)
        d = DUMP
        dirs = {k: workdir / k for k in ("enc", "sim", "ver")}
        pgm = workdir / "image.pgm"
        pattern.write_pgm(pgm, img)
        config = {
            "model": "fhn", "M": size, "N": size,
            "params": {"I": d["I"]}, "C": d["C"],
            "delay": {"files": {"down": str(dirs["enc"] / "delays_down.csv"),
                                "right": str(dirs["enc"] / "delays_right.csv")}},
            "sim": {"t_end": d["t_end"], "dt": d["dt"],
                    "record_every": d["record_every"]},
            "seed": seed,
        }
        cfg_path = workdir / "run.json"
        cfg_path.write_text(json.dumps(config))
        return {"scale": scale, "seed": seed, "image": img, "pgm": pgm,
                "config": cfg_path, "dirs": dirs}

    def jobs(self, inp: dict) -> list:
        d = DUMP
        dirs = inp["dirs"]

        def command(name, argv):
            def run(r):
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"delaylattice {name} exited with {code}")
                r[name] = code
            return Job(name, run)

        return [
            command("encode", ["encode", "--image", str(inp["pgm"]),
                               "--tau", str(d["tau"]), "--eta-max", str(d["eta_max"]),
                               "--out", str(dirs["enc"])]),
            command("simulate", ["simulate", "--config", str(inp["config"]),
                                 "--out", str(dirs["sim"])]),
            command("verify", ["verify", "--run", str(dirs["sim"]),
                               "--eta", str(dirs["enc"] / "eta.csv"),
                               "--out", str(dirs["ver"])]),
        ]

    def bytes_written(self, inp: dict) -> int:
        return sum(f.stat().st_size for d in inp["dirs"].values() if d.exists()
                   for f in d.iterdir())

    @staticmethod
    def load_frames(sim: Path):
        header = json.loads((sim / "frames.json").read_text())
        frames = np.fromfile(sim / "frames.f64", dtype="<f8").reshape(
            header["n_frames"], header["M"], header["N"], header["d"])
        return header, frames

    @classmethod
    def digest(cls, sim: Path) -> list:
        """Frame and spike digest of a simulate run: frame count, mean of
        each component of the last frame, RMS over all frames, spike count
        and mean spike time."""
        _, frames = cls.load_frames(sim)
        spikes = np.loadtxt(sim / "spikes.csv", delimiter=",", skiprows=1, ndmin=2)
        last = frames[-1].reshape(-1, frames.shape[-1]).mean(axis=0)
        return [int(frames.shape[0]), *(float(x) for x in last),
                float(np.sqrt(np.mean(frames ** 2))), int(len(spikes)),
                float(spikes[:, 2].mean()) if len(spikes) else 0.0]

    def check(self, inp: dict, r: dict, ref: dict) -> dict:
        bad = {}
        dirs = inp["dirs"]
        for job in ("encode", "simulate", "verify"):
            if job not in r:
                continue
            out = dirs[{"encode": "enc", "simulate": "sim", "verify": "ver"}[job]]
            man = json.loads((out / "manifest.json").read_text())
            for name, digest in man["outputs"].items():
                if _sha256(out / name) != digest:
                    bad.setdefault(job, []).append(f"manifest hash of {name} differs")

        if "encode" in r:
            eta = np.loadtxt(dirs["enc"] / "eta.csv", delimiter=",", ndmin=2)
            want = pattern.eta_from_image(inp["image"], 0.0, DUMP["eta_max"]).eta
            if not np.array_equal(eta, want):
                bad.setdefault("encode", []).append("eta.csv differs from the image")

        if "simulate" in r:
            sim = dirs["sim"]
            header, frames = self.load_frames(sim)
            M, N, dim = header["M"], header["N"], header["d"]
            rows = np.array([[float(v) for v in line.split(",")]
                             for line in _last_lines(sim / "snapshots.csv", M * N)])
            if not np.array_equal(rows[:, 3:].reshape(M, N, dim), frames[-1]):
                bad.setdefault("simulate", []).append(
                    "snapshots.csv last frame differs from frames.f64")
            traj = dde.Trajectory(times=np.array(header["times"]), snapshots=frames,
                                  dt=header["dt"], record_every=header["record_every"])
            want = [(m, n, t) for m, row in enumerate(dde.detect_spikes(traj))
                    for n, ev in enumerate(row) for t in ev]
            got = np.loadtxt(sim / "spikes.csv", delimiter=",", skiprows=1, ndmin=2)
            if got.shape != (len(want), 3) or not np.array_equal(got, np.array(want)):
                bad.setdefault("simulate", []).append(
                    "spikes.csv differs from the spikes of frames.f64")
            ref_digest = ref[self.name][inp["scale"]]["digests"].get(str(inp["seed"]))
            if ref_digest is None and inp["seed"] in DIGEST_SEEDS[inp["scale"]]:
                bad.setdefault("simulate", []).append(
                    f"reference.json has no digest for seed {inp['seed']}")
            elif ref_digest is not None:
                dg = self.digest(sim)
                if len(dg) != len(ref_digest) or not all(
                        _close(a, b, DIGEST_RTOL, 1e-12) for a, b in zip(dg, ref_digest)):
                    bad.setdefault("simulate", []).append(
                        f"digest {dg!r} != reference {ref_digest!r}")

        if "verify" in r:
            fid = json.loads((dirs["ver"] / "fidelity.json").read_text())
            if fid["missing_nodes"] or not math.isfinite(fid["max_dev"]):
                bad.setdefault("verify", []).append(f"fidelity report {fid!r}")
        return bad


WORKLOADS = {w.name: w for w in (StabilitySweep(), FhnPattern(), LatticeDump())}
