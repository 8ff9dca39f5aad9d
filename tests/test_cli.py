import errno
import json
import math
import os

import numpy as np
import pytest

from delaylattice import cli, dde
from delaylattice.core import (FHNParams, LatticeSpec, Model, SLParams,
                               parse_config)
from delaylattice.pattern import FidelityReport, write_pgm
from delaylattice.sl import sl_enumerate_plane_waves
from test_fhn import HOPF_DEFAULT


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def sl_config(tmp_path):
    return write_config(tmp_path / "sl.json", {
        "model": "sl", "M": 3, "N": 3,
        "params": {"alpha": -2.5, "beta": 0.5},
        "C": 2.0, "delay": {"homogeneous": 20.0},
    })


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def test_spectrum_stst_runs_and_is_reproducible(tmp_path, sl_config):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["spectrum-stst", "--config", sl_config,
                     "--out", str(out1)]) == 0
    assert cli.main(["spectrum-stst", "--config", sl_config,
                     "--out", str(out2)]) == 0
    man = read_manifest(out1)
    assert set(man["outputs"]) == {"eigenvalues.csv", "resolved_config.json"}
    # data artifacts are byte-identical across reruns
    a = (out1 / "eigenvalues.csv").read_bytes()
    assert a == (out2 / "eigenvalues.csv").read_bytes()
    assert len(a.splitlines()) > 1
    # the echoed config round-trips through the parser
    cfg = parse_config((out1 / "resolved_config.json").read_text())
    assert cfg.spec.rows == 3 and cfg.tau == 20.0


def test_spectrum_stst_alpha_override(tmp_path, sl_config):
    out = tmp_path / "r"
    assert cli.main(["spectrum-stst", "--config", sl_config,
                     "--out", str(out), "--alpha", "-3.5"]) == 0
    echoed = json.loads((out / "resolved_config.json").read_text())
    assert echoed["params"]["alpha"] == -3.5


OSCILLATING_SL = {
    "model": "sl", "M": 2, "N": 2,
    "params": {"alpha": 1.0, "beta": 1.0},
    "C": 0.0, "delay": {"homogeneous": 1.0},
    "sim": {"t_end": 60.0, "dt": 0.01, "record_every": 5},
    "seed": 3,
}


def _subcommand_argv(command, tmp_path, sl_config):
    """Arguments for one run of `command`, with its inputs prepared."""
    if command in ("simulate", "verify"):
        cfgp = write_config(tmp_path / "sim.json", OSCILLATING_SL)
        if command == "simulate":
            return ["simulate", "--config", cfgp]
        rundir = tmp_path / "sim"
        assert cli.main(["simulate", "--config", cfgp,
                         "--out", str(rundir)]) == 0
        etap = tmp_path / "eta.csv"
        etap.write_text("0,0.25\n0.5,0\n")
        return ["verify", "--run", str(rundir), "--eta", str(etap),
                "--t-discard", "20.0"]
    if command == "encode":
        imgp = tmp_path / "pat.pgm"
        write_pgm(imgp, np.array([[0, 255], [128, 64]], dtype=np.uint8))
        return ["encode", "--image", str(imgp), "--tau", "10.0",
                "--eta-max", "0.5"]
    extra = {"spectrum-stst": [], "dispersion": ["--grid", "6"],
             "planewaves": ["--alpha", "3.0"],
             "floquet": ["--alpha", "3.0", "--max-waves", "1"],
             "hopf": []}[command]
    return [command, "--config", sl_config, *extra]


@pytest.mark.parametrize("command", [
    "spectrum-stst", "dispersion", "planewaves", "floquet", "hopf",
    "simulate", "encode", "verify"])
def test_manifest_hashes_match_files(tmp_path, sl_config, command):
    import hashlib
    out = tmp_path / "r"
    argv = _subcommand_argv(command, tmp_path, sl_config)
    assert cli.main(argv + ["--out", str(out)]) == 0
    man = read_manifest(out)
    assert set(man["outputs"]) | {"manifest.json"} == \
        {p.name for p in out.iterdir()}
    for name, digest in man["outputs"].items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest
        if not name.endswith(".csv"):
            continue
        # every number is written as %.17g; header names and labels such
        # as the floquet class do not parse as numbers
        lines = (out / name).read_text().splitlines()
        n_numbers = 0
        for line in lines:
            fields = line.split(",")
            assert len(fields) == len(lines[0].split(","))
            for field in fields:
                try:
                    value = float(field)
                except ValueError:
                    continue
                assert field == f"{value:.17g}"
                n_numbers += 1
        assert n_numbers > 0


def test_planewaves_count_matches_enumeration(tmp_path, sl_config):
    out = tmp_path / "r"
    assert cli.main(["planewaves", "--config", sl_config, "--out", str(out),
                     "--alpha", "3.0"]) == 0
    n_lines = len((out / "planewaves.csv").read_text().splitlines()) - 1
    spec = LatticeSpec(rows=3, cols=3, model=Model.STUART_LANDAU,
                       params=SLParams(alpha=3.0, beta=0.5), coupling=2.0)
    waves = sl_enumerate_plane_waves(spec.params, 2.0, 20.0, spec)
    assert n_lines == len(waves)


def test_dispersion_outputs_finite_surface(tmp_path, sl_config):
    out = tmp_path / "r"
    assert cli.main(["dispersion", "--config", sl_config, "--out", str(out),
                     "--grid", "8", "--alpha", "-2.5"]) == 0
    data = np.loadtxt(out / "dispersion.csv", delimiter=",", skiprows=1)
    assert data.shape == (64, 3)
    assert np.all(np.isfinite(data))
    assert np.max(data[:, 2]) < 0.0   # alpha below threshold: stable surface


def test_floquet_verdicts(tmp_path, sl_config):
    out = tmp_path / "r"
    assert cli.main(["floquet", "--config", sl_config, "--out", str(out),
                     "--alpha", "3.0", "--max-waves", "1"]) == 0
    lines = (out / "floquet.csv").read_text().splitlines()
    assert lines[0] == "k1,k2,q1,q2,re_lambda,im_lambda,class"
    assert len(lines) == 2
    assert lines[1].rsplit(",", 1)[1] in ("stable", "strong", "uniform",
                                          "modulational")


def test_hopf_threshold(tmp_path, sl_config):
    out = tmp_path / "r"
    assert cli.main(["hopf", "--config", sl_config, "--out", str(out)]) == 0
    alpha_h = float((out / "hopf.csv").read_text().splitlines()[1])
    assert abs(alpha_h + 2.0) < 0.1


def test_hopf_points_of_fhn(tmp_path):
    cfgp = write_config(tmp_path / "fhn.json", {
        "model": "fhn", "M": 1, "N": 1, "C": 3.0,
        "delay": {"homogeneous": 50.0}})
    out = tmp_path / "r"
    assert cli.main(["hopf", "--config", cfgp, "--out", str(out)]) == 0
    got = np.loadtxt(out / "hopf.csv", delimiter=",", skiprows=1, ndmin=2)
    assert (out / "hopf.csv").read_text().startswith("I,omega\n")
    assert got.shape == (len(HOPF_DEFAULT), 2)
    assert np.max(np.abs(got - np.array(HOPF_DEFAULT))) <= 1e-10


def test_simulate_artifacts(tmp_path):
    cfgp = write_config(tmp_path / "sim.json", {
        "model": "sl", "M": 2, "N": 2,
        "params": {"alpha": 1.0, "beta": 1.0},
        "C": 0.5, "delay": {"homogeneous": 2.0},
        "sim": {"t_end": 10.0, "dt": 0.01, "record_every": 10},
        "seed": 1,
    })
    out = tmp_path / "r"
    assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    header = json.loads((out / "frames.json").read_text())
    frames = np.fromfile(out / "frames.f64", dtype="<f8")
    assert frames.size == header["n_frames"] * 2 * 2 * 2
    assert (out / "snapshots.csv").exists()
    assert (out / "spikes.csv").exists()


def test_simulate_writes_nothing_before_its_spikes_exist(tmp_path,
                                                         monkeypatch):
    # snapshots.csv, frames.f64 and frames.json were once written before
    # the spikes were detected
    def boom(*a, **k):
        raise ArithmeticError("synthetic failure")

    monkeypatch.setattr(cli.dde, "detect_spikes", boom)
    cfgp = write_config(tmp_path / "sim.json", {
        "model": "sl", "M": 2, "N": 2,
        "params": {"alpha": 1.0, "beta": 1.0},
        "C": 0.5, "delay": {"homogeneous": 2.0},
        "sim": {"t_end": 1.0, "dt": 0.01, "record_every": 10},
    })
    out = tmp_path / "r"
    assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 2
    assert not out.exists()


def _row_formatted_snapshots(times, snaps, names) -> bytes:
    """snapshots.csv as the per-row formatter writes it: one line per
    frame and node, every value as %.17g."""
    lines = [",".join(["t", "m", "n"] + names)]
    for it, t in enumerate(times):
        for m in range(snaps.shape[1]):
            for n in range(snaps.shape[2]):
                row = (t, float(m), float(n), *snaps[it, m, n, :])
                lines.append(",".join(f"{float(v):.17g}" for v in row))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("model", ["sl", "fhn"])
def test_snapshots_csv_matches_row_formatter(tmp_path, model):
    doc = {"model": model, "M": 2, "N": 3, "C": 0.5,
           "delay": {"homogeneous": 2.0},
           "sim": {"t_end": 4.0, "dt": 0.01, "record_every": 25}, "seed": 3}
    doc["params"] = ({"alpha": 1.0, "beta": 1.0} if model == "sl"
                     else {"I": 0.5})
    out = tmp_path / "r"
    assert cli.main(["simulate", "--config",
                     write_config(tmp_path / "sim.json", doc),
                     "--out", str(out)]) == 0
    header = json.loads((out / "frames.json").read_text())
    snaps = np.fromfile(out / "frames.f64", dtype="<f8").reshape(
        header["n_frames"], header["M"], header["N"], header["d"])
    names = ["re_z", "im_z"] if model == "sl" else ["v", "w", "s"]
    assert (out / "snapshots.csv").read_bytes() == _row_formatted_snapshots(
        header["times"], snaps, names)


def test_snapshots_csv_special_values(tmp_path):
    # negative zero, a subnormal, huge and non-finite values format as
    # the row formatter writes them
    snaps = np.array([0.0, -0.0, 5e-324, -1e300, np.inf, np.nan, 1 / 3,
                      -2.5e-7, 1e16, 0.1, 7.0, -1.0]).reshape(2, 2, 1, 3)
    traj = dde.Trajectory(times=np.array([0.0, 0.1]), snapshots=snaps,
                          dt=0.1, record_every=1)
    spec = LatticeSpec(2, 1, Model.FITZHUGH_NAGUMO, FHNParams(), 1.0)
    artifacts = cli._trajectory_artifacts(traj, spec)
    assert b"".join(artifacts["snapshots.csv"]) == \
        _row_formatted_snapshots(traj.times, snaps, ["v", "w", "s"])


def test_simulate_requires_sim_section(tmp_path, sl_config):
    assert cli.main(["simulate", "--config", sl_config,
                     "--out", str(tmp_path / "r")]) == 1


def test_config_error_exit_code(tmp_path):
    bad = write_config(tmp_path / "bad.json", {
        "model": "sl", "M": 2, "N": 2,
        "params": {"alpha": 1.0, "beta": 1.0, "gamma": 0.0},
        "C": 1.0,
    })
    assert cli.main(["spectrum-stst", "--config", bad,
                     "--out", str(tmp_path / "r")]) == 1


@pytest.fixture
def fhn_config(tmp_path):
    # one rest state at I = 0, C = 3
    return write_config(tmp_path / "fhn.json", {
        "model": "fhn", "M": 2, "N": 2, "params": {"I": 0.0}, "C": 3.0,
        "delay": {"homogeneous": 5.0},
    })


@pytest.mark.parametrize("command, bad", [
    ("dispersion", "--state-index 7"),
    ("dispersion", "--state-index -1"),
    ("dispersion", "--grid 0"),
    ("floquet", "--max-waves -1"),
    ("verify", "--period 0"),
    ("encode", "--tau -1"),
    ("encode", "--eta-min 1"),     # above --eta-max 0.5
    ("dispersion", "--omega-max nan"),
    ("dispersion", "--omega-max inf"),
    ("hopf", "--k1 nan"),
    ("hopf", "--k2 nan"),
    ("encode", "--tau inf"),
    ("encode", "--eta-max inf"),
    ("verify", "--period inf"),
    ("verify", "--t-discard nan"),
])
def test_invalid_argument_is_a_config_error(tmp_path, sl_config, fhn_config,
                                            capsys, command, bad):
    # valid inputs; the last occurrence of a flag wins, so only `bad` is
    # wrong
    if command == "dispersion":
        argv = ["dispersion", "--config", fhn_config]
    else:
        argv = _subcommand_argv(command, tmp_path, sl_config)
    bad = bad.split()
    capsys.readouterr()
    assert cli.main(argv + bad + ["--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad[0]}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, doc, extra, flag", [
    ("spectrum-stst", {"model": "fhn", "params": {"I": 0.0}, "C": math.inf,
                       "delay": {"homogeneous": 5.0}}, [], "C"),
    ("planewaves", {"params": {"alpha": math.nan, "beta": 0.5}}, [],
     "params.alpha"),
    ("simulate", {"delay": {"homogeneous": math.nan}}, [],
     "delay.homogeneous"),
    ("spectrum-stst", {"delay": {"homogeneous": math.nan}}, [],
     "delay.homogeneous"),
    ("planewaves", {}, ["--alpha", "nan"], "--alpha"),
    ("spectrum-stst", {}, ["--alpha", "inf"], "--alpha"),
    # float() of the int overflows: once a numerical failure, exit 2
    ("planewaves", {"C": 10 ** 400}, [], "C"),
], ids=["fhn-C-inf", "alpha-nan", "simulate-tau-nan", "stst-tau-nan",
        "flag-alpha-nan", "flag-alpha-inf", "C-int-too-large"])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, command, doc,
                                             extra, flag):
    # json.dumps writes NaN and Infinity, and json.loads reads them back
    cfgp = write_config(tmp_path / "cfg.json", {**OSCILLATING_SL, **doc})
    capsys.readouterr()
    out = tmp_path / "r"
    assert cli.main([command, "--config", cfgp, "--out", str(out)]
                    + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_out_that_cannot_be_created_is_a_config_error(tmp_path, capsys,
                                                     sl_config):
    # an existing regular file as --out once ended in a FileExistsError
    # traceback after the whole computation
    afile = tmp_path / "afile"
    afile.write_bytes(b"keep")
    capsys.readouterr()
    assert cli.main(["hopf", "--config", sl_config, "--out", str(afile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: ")
    assert err.count("\n") == 1
    assert afile.read_bytes() == b"keep"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the always-full device /dev/full")
def test_a_write_to_out_that_fails_halfway_is_a_config_error(tmp_path, capsys,
                                                            sl_config):
    # a full disk under manifest.json once ended in an OSError traceback
    # that left hopf.csv and resolved_config.json without a manifest; every
    # file the command opened goes, the directory it did not make stays
    out = tmp_path / "r"
    out.mkdir()
    (out / "manifest.json").symlink_to("/dev/full")
    capsys.readouterr()
    assert cli.main(["hopf", "--config", sl_config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: ")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_a_failed_write_removes_the_out_directory_it_made(tmp_path, capsys,
                                                         sl_config,
                                                         monkeypatch):
    def full_disk(doc):
        yield b"{"
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_json", full_disk)
    out = tmp_path / "r"
    capsys.readouterr()
    assert cli.main(["hopf", "--config", sl_config, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: --out: ")
    assert not out.exists()


def test_fhn_simulate_without_rest_state_is_a_config_error(tmp_path, capsys):
    # no rest state with v in [-5, 5] at I = 100: the default initial
    # history once ended in an IndexError traceback
    cfgp = write_config(tmp_path / "fhn.json", {
        "model": "fhn", "M": 2, "N": 2, "params": {"I": 100.0}, "C": 1.0,
        "delay": {"homogeneous": 5.0},
        "sim": {"t_end": 1.0, "dt": 0.05, "record_every": 1},
    })
    capsys.readouterr()
    out = tmp_path / "r"
    assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: params: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_alpha_override_keeps_a_sim_section_without_dt(tmp_path):
    doc = {**OSCILLATING_SL, "sim": {"t_end": 10.0}}
    cfgp = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "r"
    assert cli.main(["planewaves", "--config", cfgp, "--out", str(out),
                     "--alpha", "2.0"]) == 0
    want = parse_config(json.dumps({**doc, "params": {"alpha": 2.0,
                                                      "beta": 1.0}}))
    assert parse_config((out / "resolved_config.json").read_text()) == want


def _checkerboard_image(tmp_path):
    imgp = tmp_path / "board.pgm"
    write_pgm(imgp, 255 * (np.indices((8, 8)).sum(axis=0) % 2).astype(np.uint8))
    return imgp


def _encode(tmp_path, data: bytes):
    """argv of ``encode`` on an image file holding ``data``."""
    imgp = tmp_path / "bad.pgm"
    imgp.write_bytes(data)
    return ["encode", "--image", str(imgp), "--tau", "10", "--eta-max", "0.5"]


def _eight_by_eight_run(tmp_path):
    cfgp = write_config(tmp_path / "sim.json", {
        **OSCILLATING_SL, "M": 8, "N": 8,
        "sim": {"t_end": 1.0, "dt": 0.01, "record_every": 5}})
    rundir = tmp_path / "sim"
    assert cli.main(["simulate", "--config", cfgp, "--out", str(rundir)]) == 0
    return rundir


def _two_by_two_eta(tmp_path):
    etap = tmp_path / "eta.csv"
    etap.write_text("0,0.25\n0.5,0\n")
    return etap


def _simulate_with_delay_files(tmp_path, text):
    """simulate on the 2x2 lattice with both delay maps read from a file
    holding ``text``, or from a missing file when ``text`` is None."""
    path = tmp_path / "delays.csv"
    if text is not None:
        path.write_text(text)
    doc = {**OSCILLATING_SL, "delay": {"files": {"down": str(path),
                                                 "right": str(path)}}}
    return ["simulate", "--config", write_config(tmp_path / "files.json", doc)]


def _verify_damaged_run(tmp_path, damage):
    """verify on the 8x8 run after ``damage`` has been done to its
    directory."""
    rundir = _eight_by_eight_run(tmp_path)
    damage(rundir)
    etap = tmp_path / "eta.csv"
    np.savetxt(etap, np.zeros((8, 8)), delimiter=",")
    return ["verify", "--run", str(rundir), "--eta", str(etap)]


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-8])


def _rewrite_frames_json(edit):
    """A damage that replaces frames.json by ``edit`` of its contents."""
    def damage(rundir):
        path = rundir / "frames.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return damage


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _dispersion_at_zero_coupling(tmp_path, model):
    doc = {**OSCILLATING_SL, "C": 0.0}
    if model == "fhn":
        doc.update(model="fhn", params={"I": 0.0})
    return ["dispersion", "--config", write_config(tmp_path / "c0.json", doc),
            "--grid", "4"]


@pytest.mark.parametrize("flag, argv", [
    # shifts 0 and 2.5 side by side need delays 1 - 2.5 on some edges
    ("--tau", lambda tmp: ["encode", "--image", str(_checkerboard_image(tmp)),
                           "--tau", "1", "--eta-max", "2.5"]),
    # a color image, samples 8 bits cannot hold, a header with no pixel
    ("--image", lambda tmp: _encode(tmp, b"P6\n8 8\n255\n" + bytes(3 * 64))),
    ("--image", lambda tmp: _encode(tmp, b"P2\n2 1\n255\n0 300\n")),
    ("--image", lambda tmp: _encode(tmp, b"P2\n2 1\n255\n-3 0\n")),
    ("--image", lambda tmp: _encode(tmp, b"P2\n0 2\n255\n")),
    ("--eta", lambda tmp: ["verify", "--run", str(_eight_by_eight_run(tmp)),
                           "--eta", str(_two_by_two_eta(tmp))]),
    # a per-edge delay map where the command needs one homogeneous delay
    ("delay", lambda tmp: ["planewaves", "--config", write_config(
        tmp / "files.json", {**OSCILLATING_SL, "delay": {"files": {
            "down": "down.csv", "right": "right.csv"}}})]),
    ("--config", lambda tmp: ["planewaves",
                              "--config", str(tmp / "missing.json")]),
    ("delay.files", lambda tmp: _simulate_with_delay_files(tmp, None)),
    # a 2x3 delay map on the 2x2 lattice
    ("delay.files",
     lambda tmp: _simulate_with_delay_files(tmp, "1,1,1\n1,1,1\n")),
    ("seed", lambda tmp: ["simulate", "--config", write_config(
        tmp / "seed.json", {**OSCILLATING_SL, "seed": -1})]),
    # dt = 0.5 exceeds min_delay/4 = 0.25
    ("sim.dt", lambda tmp: ["simulate", "--config", write_config(
        tmp / "dt.json", {"model": "fhn", "M": 2, "N": 2, "C": 3.0,
                          "delay": {"homogeneous": 1.0},
                          "sim": {"t_end": 2.0, "dt": 0.5}})]),
    ("--run", lambda tmp: _verify_damaged_run(
        tmp, lambda run: (run / "frames.json").unlink())),
    ("--run", lambda tmp: _verify_damaged_run(
        tmp, lambda run: _truncate(run / "frames.f64"))),
    ("--run", lambda tmp: _verify_damaged_run(
        tmp, _rewrite_frames_json(lambda doc: {}))),
    ("--run", lambda tmp: _verify_damaged_run(
        tmp, _rewrite_frames_json(lambda doc: []))),
    ("--run", lambda tmp: _verify_damaged_run(
        tmp, _rewrite_frames_json(_without("times")))),
    # C = 0 is a valid config, but it decouples every mode
    ("C", lambda tmp: _dispersion_at_zero_coupling(tmp, "sl")),
    ("C", lambda tmp: _dispersion_at_zero_coupling(tmp, "fhn")),
], ids=["encode-shifts-exceed-tau", "encode-p6", "encode-p2-sample-300",
        "encode-p2-sample-negative", "encode-pgm-zero-width",
        "verify-eta-shape",
        "planewaves-delay-files", "missing-config",
        "simulate-delay-files-missing", "simulate-delay-files-shape",
        "simulate-negative-seed", "simulate-dt-above-quarter-delay",
        "verify-frames-json-missing", "verify-frames-f64-truncated",
        "verify-frames-json-empty", "verify-frames-json-list",
        "verify-frames-json-without-times", "dispersion-sl-C-zero",
        "dispersion-fhn-C-zero"])
def test_input_the_library_rejects_is_a_config_error(tmp_path, capsys, flag,
                                                     argv):
    argv = argv(tmp_path)
    capsys.readouterr()
    out = tmp_path / "r"
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda doc: {}, "missing key 'n_frames'"),
    (_without("times"), "missing key 'times'"),
], ids=["empty", "without-times"])
def test_malformed_frames_json_names_the_missing_key(tmp_path, capsys, edit,
                                                     message):
    argv = _verify_damaged_run(tmp_path, _rewrite_frames_json(edit))
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"config error: --run: {message}\n"


@pytest.mark.parametrize("doc, kind", [([], "list"), (3, "int")],
                         ids=["list", "number"])
def test_frames_json_that_is_not_an_object_names_the_file(tmp_path, capsys,
                                                          doc, kind):
    argv = _verify_damaged_run(tmp_path, _rewrite_frames_json(lambda _: doc))
    capsys.readouterr()
    out = tmp_path / "r"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: --run: frames.json: expected a JSON object, "
        f"got {kind}\n")
    assert not out.exists()


def test_missing_delay_exit_code(tmp_path):
    cfgp = write_config(tmp_path / "nodelay.json", {
        "model": "sl", "M": 2, "N": 2,
        "params": {"alpha": 1.0, "beta": 1.0}, "C": 1.0,
    })
    assert cli.main(["spectrum-stst", "--config", cfgp,
                     "--out", str(tmp_path / "r")]) == 1


def test_numerical_failure_exit_code(tmp_path, sl_config, monkeypatch):
    from delaylattice.dde import SimulationError

    def boom(*a, **k):
        raise SimulationError("synthetic failure")

    monkeypatch.setattr(cli.sl, "sl_hopf_threshold", boom)
    out = tmp_path / "r"
    assert cli.main(["hopf", "--config", sl_config, "--out", str(out)]) == 2
    assert not out.exists()


def test_encode_and_verify_pipeline(tmp_path):
    img = np.array([[0, 255], [128, 64]], dtype=np.uint8)
    imgp = tmp_path / "pat.pgm"
    write_pgm(imgp, img)
    enc = tmp_path / "enc"
    assert cli.main(["encode", "--image", str(imgp), "--out", str(enc),
                     "--tau", "10.0", "--eta-max", "0.5"]) == 0
    down = np.loadtxt(enc / "delays_down.csv", delimiter=",", ndmin=2)
    eta = np.loadtxt(enc / "eta.csv", delimiter=",", ndmin=2)
    assert down.shape == (2, 2)
    assert eta[0, 0] == 0.0 and eta[0, 1] == 0.5

    # oscillatory SL run, then check fidelity reporting end to end
    cfgp = write_config(tmp_path / "sim.json", OSCILLATING_SL)
    rundir = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfgp, "--out", str(rundir)]) == 0
    etap = tmp_path / "eta.csv"
    np.savetxt(etap, np.zeros((2, 2)), delimiter=",")
    out = tmp_path / "ver"
    assert cli.main(["verify", "--run", str(rundir), "--eta", str(etap),
                     "--out", str(out), "--t-discard", "20.0"]) == 0
    report = json.loads((out / "fidelity.json").read_text())
    assert set(report) == {"correlation", "max_dev", "missing_nodes"}
    assert report["missing_nodes"] == []


def test_verify_writes_the_fidelity_report(tmp_path, monkeypatch):
    rundir = _eight_by_eight_run(tmp_path)
    etap = tmp_path / "eta.csv"
    np.savetxt(etap, np.zeros((8, 8)), delimiter=",")
    report = FidelityReport(correlation=0.5, max_dev=0.25,
                            missing_nodes=[(0, 1)])
    monkeypatch.setattr(cli.pattern, "verify_pattern", lambda *a, **k: report)
    out = tmp_path / "ver"
    assert cli.main(["verify", "--run", str(rundir), "--eta", str(etap),
                     "--period", "1.0", "--out", str(out)]) == 0
    assert json.loads((out / "fidelity.json").read_text()) == {
        "correlation": 0.5, "max_dev": 0.25, "missing_nodes": [[0, 1]]}


def test_verify_with_too_few_spikes_is_a_numerical_failure(tmp_path, capsys):
    # 5 time units hold fewer than the 3 events the period estimate needs
    cfgp = write_config(tmp_path / "sim.json", {
        "model": "sl", "M": 2, "N": 2,
        "params": {"alpha": 1.0, "beta": 1.0},
        "C": 0.0, "delay": {"homogeneous": 1.0},
        "sim": {"t_end": 5.0, "dt": 0.01, "record_every": 5},
        "seed": 3,
    })
    rundir = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfgp, "--out", str(rundir)]) == 0
    etap = tmp_path / "eta.csv"
    np.savetxt(etap, np.zeros((2, 2)), delimiter=",")
    out = tmp_path / "ver"
    assert cli.main(["verify", "--run", str(rundir), "--eta", str(etap),
                     "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()
