"""Command-line frontend: reproducible analysis/simulation pipelines that
emit CSV/raw artifacts plus a manifest with content hashes.

Subcommands: spectrum-stst, dispersion, planewaves, floquet, hopf,
simulate, encode, verify.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import core, dde, fhn, pattern, sl
from .core import ConfigError, Model
from .dde import InsufficientDataError, SimulationError


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _json(doc):
    """The chunks of a JSON artifact."""
    yield (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _csv(header, blocks):
    """The chunks of a CSV of the rows in `blocks` (2-D arrays or lists of
    equal-length rows), under a `header` line unless it is None. One
    row-format string serves every row: %s for label columns, given as
    bytes, and %.17g for numbers."""
    if header is not None:
        yield (",".join(header) + "\n").encode()
    rowfmt = None
    for block in blocks:
        cells = np.asarray(block, dtype=object)
        if not len(cells):
            continue
        if rowfmt is None:
            rowfmt = b",".join(b"%s" if isinstance(v, bytes)
                               else b"%.17g" for v in cells[0]) + b"\n"
        # formatting straight to bytes skips a str copy of each
        # block, which fragmented the heap of long runs
        yield (rowfmt * len(cells)) % tuple(cells.ravel().tolist())


def _emit(args, inputs, outputs) -> int:
    """Write the artifacts of a finished command to ``--out``: each
    ``name -> chunks`` of `outputs`, hashed from the bytes as they are
    written, then ``manifest.json`` with those hashes, the hashes of the
    `inputs` files and the wall time since the command started. Only this
    function creates or writes the directory, and every command returns
    through it after its last computation, so a failed command leaves no
    directory; a failed write, a config error, removes what it made."""
    hashed_inputs = {str(Path(p)): _sha256(Path(p)) for p in inputs}
    outdir = Path(args.out)
    made, written, hashed_outputs = not outdir.exists(), [], {}

    def manifest():   # read after every other output is written
        yield from _json({"inputs": hashed_inputs, "outputs": hashed_outputs,
                          "wall_time": round(time.time() - args.t_start, 3)})

    with _input_of("--out"):
        outdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, chunks in {**outputs, "manifest.json": manifest()}.items():
            h = hashlib.sha256()
            with open(outdir / name, "wb") as fh:
                written.append(outdir / name)
                for chunk in chunks:
                    h.update(chunk)
                    fh.write(chunk)
            hashed_outputs[name] = h.hexdigest()
    except OSError as exc:
        for path in written:
            path.unlink()
        if made:
            outdir.rmdir()
        raise ConfigError("--out", str(exc)) from exc
    return 0


def _config_artifacts(args, cfg: core.RunConfig, outputs):
    """The inputs and outputs of a config command: the config file, and
    its resolved form ahead of the command's own `outputs`."""
    return [args.config], {"resolved_config.json": _json(cfg.to_dict()),
                           **outputs}


def _read_config(args) -> core.RunConfig:
    """The config, with the --alpha override where the command has one."""
    alpha = getattr(args, "alpha", None)
    if alpha is not None:
        core._as_number(alpha, "--alpha")
    with _input_of("--config"):
        text = Path(args.config).read_text()
    cfg = core.parse_config(text)
    if alpha is not None:
        doc = cfg.to_dict()
        doc["params"]["alpha"] = alpha
        cfg = core.parse_config(json.dumps(doc))
    return cfg


def _require(ok: bool, flag: str, reason: str):
    if not ok:
        raise ConfigError(flag, reason)


@contextmanager
def _input_of(flag: str):
    """The ValueError with which the library rejects what ``flag`` gave,
    the OSError of reading or creating it, or the KeyError or TypeError of
    decoding a malformed file becomes a config error of that flag."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(flag, f"missing key {exc}") from exc
    except (ValueError, OSError, TypeError) as exc:
        raise ConfigError(flag, str(exc)) from exc


def _require_tau(cfg: core.RunConfig) -> float:
    if cfg.tau is None:
        raise ConfigError("delay", "this command needs a homogeneous delay")
    return cfg.tau


def _load_delay_map(cfg: core.RunConfig) -> core.DelayMap:
    M, N = cfg.spec.rows, cfg.spec.cols
    if cfg.tau is not None:
        return core.DelayMap.homogeneous(M, N, cfg.tau)
    files = cfg.delay_files
    if files is None:
        raise ConfigError("delay", "missing delay section")
    with _input_of("delay.files"):
        delays = core.DelayMap(
            down=np.loadtxt(files["down"], delimiter=",", ndmin=2),
            right=np.loadtxt(files["right"], delimiter=",", ndmin=2))
    rows, cols = delays.down.shape
    _require((rows, cols) == (M, N), "delay.files",
             f"delay map is {rows}x{cols}, the lattice is {M}x{N}")
    return delays


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum_stst(args) -> int:
    cfg = _read_config(args)
    tau = _require_tau(cfg)
    rows = []
    if cfg.spec.model is Model.STUART_LANDAU:
        for wv in core.enumerate_modes(cfg.spec):
            rs = sl.sl_stst_eigenvalues(cfg.spec.params, cfg.spec.coupling,
                                        tau, wv)
            for lam in rs.roots:
                rows.append((wv.k1, wv.k2, 0.0, 0.0, lam.real, lam.imag,
                             b"stst"))
    else:
        states = fhn.fhn_steady_states(cfg.spec.params, cfg.spec.coupling)
        for i, stst in enumerate(states):
            for wv in core.enumerate_modes(cfg.spec):
                rs = fhn.fhn_char_roots(stst, cfg.spec.params,
                                        cfg.spec.coupling, tau, wv)
                for lam in rs.roots:
                    rows.append((wv.k1, wv.k2, 0.0, 0.0, lam.real, lam.imag,
                                 b"stst%d" % i))
    rows.sort(key=lambda r: tuple(r[:6]))
    return _emit(args, *_config_artifacts(args, cfg, {"eigenvalues.csv": _csv(
        ["k1", "k2", "q1", "q2", "re_lambda", "im_lambda", "class"], [rows])}))


def cmd_dispersion(args) -> int:
    n = args.grid
    _require(n >= 1, "--grid", f"needs at least 1 point, got {n}")
    core._as_number(args.omega_max, "--omega-max")
    cfg = _read_config(args)
    omegas = np.linspace(-args.omega_max, args.omega_max, n)
    # stay off the decoupled modes cos(k_minus) = 0
    kms = np.linspace(-math.pi / 2, math.pi / 2, n + 2)[1:-1]
    prm, C = cfg.spec.params, cfg.spec.coupling
    if cfg.spec.model is not Model.STUART_LANDAU:
        states = fhn.fhn_steady_states(prm, C)
        i = args.state_index
        _require(0 <= i < len(states), "--state-index",
                 f"{i} is not one of the {len(states)} rest states")
    # C = 0 decouples every mode
    with _input_of("C"):
        if cfg.spec.model is Model.STUART_LANDAU:
            surface = [sl.sl_stst_pcs(prm, C, km, omegas) for km in kms]
        else:
            surface = [fhn.fhn_hybrid_dispersion(states[i], prm, C, omegas,
                                                 km) for km in kms]
    return _emit(args, *_config_artifacts(args, cfg, {"dispersion.csv": _csv(
        ["omega", "k_minus", "gamma"],
        [np.column_stack([omegas, np.full(n, km), g])
         for km, g in zip(kms, surface)])}))


def cmd_planewaves(args) -> int:
    cfg = _read_config(args)
    tau = _require_tau(cfg)
    if cfg.spec.model is not Model.STUART_LANDAU:
        raise ConfigError("model", "planewaves requires the sl model")
    waves = sl.sl_enumerate_plane_waves(cfg.spec.params, cfg.spec.coupling,
                                        tau, cfg.spec)
    rows = [(w.wv.k1, w.wv.k2, w.a, w.Omega, w.k_tau, w.R) for w in waves]
    return _emit(args, *_config_artifacts(args, cfg, {"planewaves.csv": _csv(
        ["k1", "k2", "a", "omega", "k_tau", "R"], [rows])}))


def cmd_floquet(args) -> int:
    _require(args.max_waves >= 0, "--max-waves",
             f"must be >= 0 (0 means all), got {args.max_waves}")
    cfg = _read_config(args)
    tau = _require_tau(cfg)
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
                     verdict.max_growth, omega, verdict.cls.value.encode()))
    return _emit(args, *_config_artifacts(args, cfg, {"floquet.csv": _csv(
        ["k1", "k2", "q1", "q2", "re_lambda", "im_lambda", "class"], [rows])}))


def cmd_hopf(args) -> int:
    core._as_number(args.k1, "--k1")
    core._as_number(args.k2, "--k2")
    cfg = _read_config(args)
    tau = _require_tau(cfg)
    if cfg.spec.model is Model.STUART_LANDAU:
        header = ["alpha_H"]
        rows = [(sl.sl_hopf_threshold(cfg.spec.params, cfg.spec.coupling,
                                      tau, cfg.spec),)]
    else:
        header = ["I", "omega"]
        wv = core.WaveVector(args.k1, args.k2)
        rows = fhn.fhn_hopf_points(cfg.spec.params, cfg.spec.coupling,
                                   tau, wv)
    return _emit(args, *_config_artifacts(
        args, cfg, {"hopf.csv": _csv(header, [rows])}))


def _default_initial_history(cfg: core.RunConfig):
    spec = cfg.spec
    rng = np.random.default_rng(cfg.seed)
    if spec.model is Model.STUART_LANDAU:
        base = np.zeros((spec.rows, spec.cols), dtype=complex)
        noise = (rng.standard_normal(base.shape)
                 + 1j * rng.standard_normal(base.shape))
        return dde.ConstantHistory(base + 1e-2 * noise)
    states = fhn.fhn_steady_states(spec.params, spec.coupling)
    _require(bool(states), "params", "no rest state with v in [-5, 5]")
    stst = states[0]
    base = np.broadcast_to(np.array([stst.v, stst.w, stst.s]),
                           (spec.rows, spec.cols, 3)).copy()
    base += 1e-2 * rng.standard_normal(base.shape)
    return dde.ConstantHistory(base)


def _trajectory_artifacts(traj: dde.Trajectory,
                          spec: core.LatticeSpec) -> dict:
    """The artifacts of a simulate run, its spikes detected."""
    M, N = traj.shape
    d = traj.snapshots.shape[-1]
    comp_names = ["re_z", "im_z"] if spec.model is Model.STUART_LANDAU \
        else ["v", "w", "s"]

    def frames():
        # one block of rows (t, m, n, components...) per frame
        block = np.empty((M, N, 3 + d))
        block[..., 1] = np.arange(M)[:, None]
        block[..., 2] = np.arange(N)
        for t, snap in zip(traj.times, traj.snapshots):
            block[..., 0] = t
            block[..., 3:] = snap
            yield block.reshape(-1, 3 + d)

    spikes = dde.detect_spikes(traj)
    rows = [(float(m), float(n), t)
            for m in range(M) for n in range(N) for t in spikes[m][n]]
    return {
        "snapshots.csv": _csv(["t", "m", "n"] + comp_names, frames()),
        "frames.f64": [np.ascontiguousarray(traj.snapshots, dtype="<f8")],
        "frames.json": _json({
            "M": M, "N": N, "d": d, "dt": traj.dt,
            "record_every": traj.record_every, "t0": float(traj.times[0]),
            "n_frames": len(traj.times),
            "times": [float(t) for t in traj.times]}),
        "spikes.csv": _csv(["m", "n", "t"], [rows]),
    }


def cmd_simulate(args) -> int:
    cfg = _read_config(args)
    if cfg.sim is None:
        raise ConfigError("sim", "simulate requires a sim section")
    delays = _load_delay_map(cfg)
    with _input_of("sim.dt"):
        dt = dde.step_size(cfg.sim.dt, delays.min_delay)
    init = _default_initial_history(cfg)
    traj = dde.simulate(cfg.spec, delays, init, t_end=cfg.sim.t_end,
                        dt=dt, record_every=cfg.sim.record_every)
    inputs, outputs = _config_artifacts(args, cfg,
                                        _trajectory_artifacts(traj, cfg.spec))
    inputs += (cfg.delay_files or {}).values()
    return _emit(args, inputs, outputs)


def cmd_encode(args) -> int:
    core._as_number(args.eta_min, "--eta-min")
    core._as_number(args.eta_max, "--eta-max")
    with _input_of("--image"):
        img = pattern.read_pgm(args.image)
    with _input_of("--eta-min"):
        eta = pattern.eta_from_image(img, args.eta_min, args.eta_max)
    # every delay is positive and finite only if tau is, and the image's
    # shifts stay below it
    with _input_of("--tau"):
        delays = pattern.delays_from_timeshifts(eta, args.tau)
    return _emit(args, [args.image], {
        "delays_down.csv": _csv(None, [delays.down]),
        "delays_right.csv": _csv(None, [delays.right]),
        "eta.csv": _csv(None, [eta.eta])})


def cmd_verify(args) -> int:
    core._as_number(args.t_discard, "--t-discard")
    rundir = Path(args.run)
    with _input_of("--run"):
        with open(rundir / "frames.json") as fh:
            header = json.load(fh)
        if not isinstance(header, dict):
            raise ValueError("frames.json: expected a JSON object, got "
                             + type(header).__name__)
        frames = np.fromfile(rundir / "frames.f64", dtype="<f8").reshape(
            header["n_frames"], header["M"], header["N"], header["d"])
        traj = dde.Trajectory(
            times=np.array(header["times"]), snapshots=frames,
            dt=header["dt"], record_every=header["record_every"])
    with _input_of("--eta"):
        eta = pattern.ShiftField(np.loadtxt(args.eta, delimiter=",", ndmin=2))
    _require(eta.eta.shape == traj.shape, "--eta",
             f"shift field is {eta.eta.shape[0]}x{eta.eta.shape[1]}, "
             f"the run is {traj.shape[0]}x{traj.shape[1]}")
    T = args.period
    if T is None:
        T, _ = dde.estimate_period(traj, t_discard=args.t_discard)
    with _input_of("--period"):
        report = pattern.verify_pattern(traj, eta, T, t_discard=args.t_discard)
    inputs = [rundir / "frames.f64", rundir / "frames.json", args.eta]
    return _emit(args, inputs,
                 {"fidelity.json": _json(dataclasses.asdict(report))})


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
    args.t_start = time.time()
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
