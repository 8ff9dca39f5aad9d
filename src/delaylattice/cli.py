"""Command-line frontend: reproducible analysis/simulation pipelines that
emit CSV/raw artifacts plus a manifest with content hashes.

Subcommands: spectrum-stst, dispersion, planewaves, floquet, hopf,
simulate, encode, verify. The environment variable DELAYLATTICE_THREADS
caps the thread count of the numerical backends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

if "DELAYLATTICE_THREADS" in os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["DELAYLATTICE_THREADS"])

import numpy as np

from . import core, dde, fhn, pattern, sl
from .core import ConfigError, Model
from .dde import InsufficientDataError, SimulationError


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else _fmt(v)
                             for v in row) + "\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class _Run:
    """Collects inputs/outputs of one command and writes the manifest."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        outdir.mkdir(parents=True, exist_ok=True)
        self.t_start = time.time()
        self.inputs = {}
        self.outputs = []

    def add_input(self, path):
        if path is not None:
            p = Path(path)
            self.inputs[str(p)] = _sha256(p)

    def out(self, name: str) -> Path:
        p = self.outdir / name
        self.outputs.append(p)
        return p

    def echo_config(self, cfg: core.RunConfig):
        path = self.out("resolved_config.json")
        with open(path, "w") as fh:
            json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def finish(self):
        manifest = {
            "inputs": self.inputs,
            "outputs": {p.name: _sha256(p) for p in self.outputs},
            "wall_time": round(time.time() - self.t_start, 3),
        }
        with open(self.outdir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _load_config(path, overrides=None) -> core.RunConfig:
    with open(path) as fh:
        cfg = core.parse_config(fh.read())
    if overrides:
        doc = cfg.to_dict()
        for key, value in overrides.items():
            if value is None:
                continue
            section, _, leaf = key.partition(".")
            if leaf:
                doc.setdefault(section, {})[leaf] = value
            else:
                doc[section] = value
        cfg = core.parse_config(json.dumps(doc))
    return cfg


def _require_tau(cfg: core.RunConfig) -> float:
    if cfg.tau is None:
        raise ConfigError("delay", "this command needs a homogeneous delay")
    return cfg.tau


def _load_delay_map(cfg: core.RunConfig, run: _Run) -> core.DelayMap:
    if cfg.tau is not None:
        return core.DelayMap.homogeneous(cfg.spec.rows, cfg.spec.cols, cfg.tau)
    files = cfg.delay_files
    if files is None:
        raise ConfigError("delay", "missing delay section")
    run.add_input(files["down"])
    run.add_input(files["right"])
    down = np.loadtxt(files["down"], delimiter=",", ndmin=2)
    right = np.loadtxt(files["right"], delimiter=",", ndmin=2)
    return core.DelayMap(down=down, right=right)


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum_stst(args) -> int:
    run = _Run(Path(args.out))
    run.add_input(args.config)
    cfg = _load_config(args.config, {"params.alpha": args.alpha})
    tau = _require_tau(cfg)
    run.echo_config(cfg)
    rows = []
    if cfg.spec.model is Model.STUART_LANDAU:
        for wv in core.enumerate_modes(cfg.spec):
            rs = sl.sl_stst_eigenvalues(cfg.spec.params, cfg.spec.coupling,
                                        tau, wv)
            for lam in rs.roots:
                rows.append((wv.k1, wv.k2, 0.0, 0.0, lam.real, lam.imag,
                             "stst"))
    else:
        states = fhn.fhn_steady_states(cfg.spec.params, cfg.spec.coupling)
        for i, stst in enumerate(states):
            for wv in core.enumerate_modes(cfg.spec):
                rs = fhn.fhn_char_roots(stst, cfg.spec.params,
                                        cfg.spec.coupling, tau, wv)
                for lam in rs.roots:
                    rows.append((wv.k1, wv.k2, 0.0, 0.0, lam.real, lam.imag,
                                 f"stst{i}"))
    rows.sort(key=lambda r: tuple(r[:6]))
    _write_csv(run.out("eigenvalues.csv"),
               ["k1", "k2", "q1", "q2", "re_lambda", "im_lambda", "class"],
               rows)
    run.finish()
    return 0


def cmd_dispersion(args) -> int:
    run = _Run(Path(args.out))
    run.add_input(args.config)
    cfg = _load_config(args.config, {"params.alpha": args.alpha})
    run.echo_config(cfg)
    n = args.grid
    omegas = np.linspace(-args.omega_max, args.omega_max, n)
    # stay off the decoupled modes cos(k_minus) = 0
    kms = np.linspace(-math.pi / 2, math.pi / 2, n + 2)[1:-1]
    rows = []
    if cfg.spec.model is Model.STUART_LANDAU:
        for km in kms:
            g = sl.sl_stst_pcs(cfg.spec.params, cfg.spec.coupling, km, omegas)
            rows.extend((om, km, gv) for om, gv in zip(omegas, g))
    else:
        states = fhn.fhn_steady_states(cfg.spec.params, cfg.spec.coupling)
        stst = states[args.state_index]
        for km in kms:
            g = fhn.fhn_hybrid_dispersion(stst, cfg.spec.params,
                                          cfg.spec.coupling, omegas, km)
            rows.extend((om, km, gv) for om, gv in zip(omegas, g))
    _write_csv(run.out("dispersion.csv"), ["omega", "k_minus", "gamma"], rows)
    run.finish()
    return 0


def cmd_planewaves(args) -> int:
    run = _Run(Path(args.out))
    run.add_input(args.config)
    cfg = _load_config(args.config, {"params.alpha": args.alpha})
    tau = _require_tau(cfg)
    run.echo_config(cfg)
    if cfg.spec.model is not Model.STUART_LANDAU:
        raise ConfigError("model", "planewaves requires the sl model")
    waves = sl.sl_enumerate_plane_waves(cfg.spec.params, cfg.spec.coupling,
                                        tau, cfg.spec)
    rows = [(w.wv.k1, w.wv.k2, w.a, w.Omega, w.k_tau, w.R) for w in waves]
    _write_csv(run.out("planewaves.csv"),
               ["k1", "k2", "a", "omega", "k_tau", "R"], rows)
    run.finish()
    return 0


def cmd_floquet(args) -> int:
    run = _Run(Path(args.out))
    run.add_input(args.config)
    cfg = _load_config(args.config, {"params.alpha": args.alpha})
    tau = _require_tau(cfg)
    run.echo_config(cfg)
    if cfg.spec.model is not Model.STUART_LANDAU:
        raise ConfigError("model", "floquet requires the sl model")
    waves = sl.sl_enumerate_plane_waves(cfg.spec.params, cfg.spec.coupling,
                                        tau, cfg.spec)
    if args.max_waves:
        waves = waves[:args.max_waves]
    rows = []
    for w in waves:
        verdict = sl.sl_floquet_exact(w, cfg.spec.params, cfg.spec.coupling,
                                      tau, spec=cfg.spec)
        omega, qm, qp = verdict.witness
        rows.append((w.wv.k1, w.wv.k2, qp + qm, qp - qm,
                     verdict.max_growth, omega, verdict.cls.value))
    _write_csv(run.out("floquet.csv"),
               ["k1", "k2", "q1", "q2", "re_lambda", "im_lambda", "class"],
               rows)
    run.finish()
    return 0


def cmd_hopf(args) -> int:
    run = _Run(Path(args.out))
    run.add_input(args.config)
    cfg = _load_config(args.config, None)
    tau = _require_tau(cfg)
    run.echo_config(cfg)
    if cfg.spec.model is Model.STUART_LANDAU:
        alpha_h = sl.sl_hopf_threshold(cfg.spec.params, cfg.spec.coupling,
                                       tau, cfg.spec)
        _write_csv(run.out("hopf.csv"), ["alpha_H"], [(alpha_h,)])
    else:
        wv = core.WaveVector(args.k1, args.k2)
        points = fhn.fhn_hopf_points(cfg.spec.params, cfg.spec.coupling,
                                     tau, wv)
        _write_csv(run.out("hopf.csv"), ["I", "omega"], points)
    run.finish()
    return 0


def _default_initial_history(cfg: core.RunConfig):
    spec = cfg.spec
    rng = np.random.default_rng(cfg.seed)
    if spec.model is Model.STUART_LANDAU:
        base = np.zeros((spec.rows, spec.cols), dtype=complex)
        noise = (rng.standard_normal(base.shape)
                 + 1j * rng.standard_normal(base.shape))
        return dde.ConstantHistory(base + 1e-2 * noise)
    states = fhn.fhn_steady_states(spec.params, spec.coupling)
    stst = states[0]
    base = np.broadcast_to(np.array([stst.v, stst.w, stst.s]),
                           (spec.rows, spec.cols, 3)).copy()
    base += 1e-2 * rng.standard_normal(base.shape)
    return dde.ConstantHistory(base)


def _write_trajectory(run: _Run, traj: dde.Trajectory, spec: core.LatticeSpec):
    M, N = traj.shape
    d = traj.snapshots.shape[-1]
    comp_names = ["re_z", "im_z"] if spec.model is Model.STUART_LANDAU \
        else ["v", "w", "s"]
    # one row (t, m, n, components...) per frame and node, formatted as
    # _write_csv formats its values
    table = np.empty((len(traj.times), M, N, 3 + d))
    table[..., 0] = traj.times[:, None, None]
    table[..., 1] = np.arange(M)[:, None]
    table[..., 2] = np.arange(N)
    table[..., 3:] = traj.snapshots
    np.savetxt(run.out("snapshots.csv"), table.reshape(-1, 3 + d),
               fmt="%.17g", delimiter=",", comments="",
               header=",".join(["t", "m", "n"] + comp_names))

    frames = traj.snapshots.astype("<f8")
    frames.tofile(run.out("frames.f64"))
    with open(run.out("frames.json"), "w") as fh:
        json.dump({"M": M, "N": N, "d": d, "dt": traj.dt,
                   "record_every": traj.record_every, "t0": float(traj.times[0]),
                   "n_frames": len(traj.times),
                   "times": [float(t) for t in traj.times]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")

    spikes = dde.detect_spikes(traj, component=0, threshold=0.0)
    rows = [(float(m), float(n), t)
            for m in range(M) for n in range(N) for t in spikes[m][n]]
    _write_csv(run.out("spikes.csv"), ["m", "n", "t"], rows)


def cmd_simulate(args) -> int:
    run = _Run(Path(args.out))
    run.add_input(args.config)
    cfg = _load_config(args.config, None)
    run.echo_config(cfg)
    if cfg.sim is None:
        raise ConfigError("sim", "simulate requires a sim section")
    delays = _load_delay_map(cfg, run)
    init = _default_initial_history(cfg)
    traj = dde.simulate(cfg.spec, delays, init, t_end=cfg.sim.t_end,
                        dt=cfg.sim.dt, record_every=cfg.sim.record_every)
    _write_trajectory(run, traj, cfg.spec)
    run.finish()
    return 0


def cmd_encode(args) -> int:
    run = _Run(Path(args.out))
    run.add_input(args.image)
    img = pattern.read_pgm(args.image)
    eta = pattern.eta_from_image(img, args.eta_min, args.eta_max)
    delays = pattern.delays_from_timeshifts(eta, args.tau)
    np.savetxt(run.out("delays_down.csv"), delays.down, delimiter=",",
               fmt="%.17g")
    np.savetxt(run.out("delays_right.csv"), delays.right, delimiter=",",
               fmt="%.17g")
    np.savetxt(run.out("eta.csv"), eta.eta, delimiter=",", fmt="%.17g")
    run.finish()
    return 0


def cmd_verify(args) -> int:
    run = _Run(Path(args.out))
    rundir = Path(args.run)
    for name in ("frames.f64", "frames.json"):
        run.add_input(rundir / name)
    run.add_input(args.eta)
    with open(rundir / "frames.json") as fh:
        header = json.load(fh)
    frames = np.fromfile(rundir / "frames.f64", dtype="<f8").reshape(
        header["n_frames"], header["M"], header["N"], header["d"])
    traj = dde.Trajectory(times=np.array(header["times"]), snapshots=frames,
                          dt=header["dt"], record_every=header["record_every"])
    eta = pattern.ShiftField(np.loadtxt(args.eta, delimiter=",", ndmin=2))
    if args.period is not None:
        T = args.period
    else:
        T, _ = dde.estimate_period(traj, t_discard=args.t_discard)
    report = pattern.verify_pattern(traj, eta, T, t_discard=args.t_discard)
    with open(run.out("fidelity.json"), "w") as fh:
        fh.write(report.to_json() + "\n")
    run.finish()
    return 0


# ---------------------------------------------------------------------------

def _add_common(p, config=True):
    if config:
        p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="delaylattice",
        description="Delay-coupled oscillator lattice toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum-stst",
                        help="steady-state eigenvalues per lattice mode")
    _add_common(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.set_defaults(func=cmd_spectrum_stst)

    sp = sub.add_parser("dispersion",
                        help="large-delay dispersion surface gamma(omega,k-)")
    _add_common(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--omega-max", type=float, default=3.0)
    sp.add_argument("--state-index", type=int, default=0)
    sp.set_defaults(func=cmd_dispersion)

    sp = sub.add_parser("planewaves", help="enumerate SL plane waves")
    _add_common(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.set_defaults(func=cmd_planewaves)

    sp = sub.add_parser("floquet", help="plane-wave stability verdicts")
    _add_common(sp)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--max-waves", type=int, default=0)
    sp.set_defaults(func=cmd_floquet)

    sp = sub.add_parser("hopf", help="Hopf threshold (SL) or points (FHN)")
    _add_common(sp)
    sp.add_argument("--k1", type=float, default=0.0)
    sp.add_argument("--k2", type=float, default=0.0)
    sp.set_defaults(func=cmd_hopf)

    sp = sub.add_parser("simulate", help="integrate the lattice DDE")
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("encode",
                        help="PGM image -> shift field -> delay map")
    _add_common(sp, config=False)
    sp.add_argument("--image", required=True)
    sp.add_argument("--tau", type=float, required=True)
    sp.add_argument("--eta-min", type=float, default=0.0)
    sp.add_argument("--eta-max", type=float, required=True)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("verify", help="pattern fidelity of a simulation run")
    _add_common(sp, config=False)
    sp.add_argument("--run", required=True,
                    help="output directory of a simulate command")
    sp.add_argument("--eta", required=True, help="shift field CSV")
    sp.add_argument("--period", type=float, default=None)
    sp.add_argument("--t-discard", type=float, default=0.0)
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, SimulationError, InsufficientDataError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
