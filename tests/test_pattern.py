import math

import numpy as np
import pytest

from delaylattice.core import DelayMap, LatticeSpec, Model, SLParams
from delaylattice.dde import (ConstantHistory, ShiftedReplayHistory,
                              Trajectory, detect_spikes, simulate)
from delaylattice.pattern import (ShiftField, delays_from_timeshifts,
                                  eta_from_image, read_pgm, verify_pattern,
                                  write_pgm)


def test_zero_shift_gives_homogeneous_delays():
    dm = delays_from_timeshifts(ShiftField(np.zeros((3, 4))), 5.0)
    assert np.all(dm.down == 5.0)
    assert np.all(dm.right == 5.0)


def test_gauge_invariance():
    rng = np.random.default_rng(3)
    eta = rng.uniform(0.0, 1.0, size=(4, 5))
    a = delays_from_timeshifts(ShiftField(eta), 10.0)
    b = delays_from_timeshifts(ShiftField(eta + 7.25), 10.0)
    assert np.allclose(a.down, b.down, rtol=0, atol=1e-12)
    assert np.allclose(a.right, b.right, rtol=0, atol=1e-12)


def test_ring_gradient_delays():
    # linear ramp on a 1 x N ring: every edge shortened by the step except
    # the wrap-around edge, which absorbs the accumulated shift
    N = 6
    eta = 0.1 * np.arange(N)[None, :]
    dm = delays_from_timeshifts(ShiftField(eta), 20.0)
    assert np.allclose(dm.down, 20.0)          # single row: no vertical shift
    assert np.allclose(dm.right[0, 1:], 19.9)
    assert dm.right[0, 0] == pytest.approx(20.0 + 0.1 * (N - 1))


def test_loop_sums_are_preserved():
    # total delay around any directed loop is unchanged by the shifts
    rng = np.random.default_rng(4)
    M, N, tau = 5, 7, 12.0
    dm = delays_from_timeshifts(
        ShiftField(rng.uniform(0.0, 2.0, size=(M, N))), tau)
    assert np.allclose(dm.down.sum(axis=0), M * tau)
    assert np.allclose(dm.right.sum(axis=1), N * tau)


def test_nonpositive_delay_reports_edges():
    eta = np.zeros((2, 2))
    eta[1, 0] = 3.5   # needs down[1,0] = tau - 3.5 > 0
    with pytest.raises(ValueError, match=r"down\[1,0\]"):
        delays_from_timeshifts(ShiftField(eta), 3.0)


def test_nonpositive_delay_message_stays_short():
    # a 256x256 checkerboard of shifts 0 and 2.5 on tau = 1: every node of
    # shift 2.5 has a nonpositive down and right delay
    eta = 2.5 * (np.indices((256, 256)).sum(axis=0) % 2)
    with pytest.raises(ValueError) as err:
        delays_from_timeshifts(ShiftField(eta), 1.0)
    msg = str(err.value)
    assert "nonpositive delays on 65536 edges: down[0,1]=-1.5" in msg
    assert len(msg) < 1024


def test_shift_field_validation():
    with pytest.raises(ValueError):
        ShiftField(np.zeros(5))
    with pytest.raises(ValueError):
        ShiftField(np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError):
        delays_from_timeshifts(ShiftField(np.zeros((2, 2))), 0.0)


# ---------------------------------------------------------------------------
# PGM I/O

def test_pgm_roundtrip_binary(tmp_path):
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, size=(7, 11), dtype=np.uint8)
    p = tmp_path / "a.pgm"
    write_pgm(p, img)
    assert np.array_equal(read_pgm(p), img)


def test_pgm_roundtrip_ascii(tmp_path):
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, size=(4, 3), dtype=np.uint8)
    p = tmp_path / "a.pgm"
    rows = "".join(" ".join(str(v) for v in row) + "\n" for row in img)
    p.write_bytes(f"P2\n3 4\n255\n{rows}".encode())
    assert np.array_equal(read_pgm(p), img)


def test_pgm_comments_and_errors(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P2\n# a comment\n2 2\n# another\n255\n0 64\n128 255\n")
    assert np.array_equal(read_pgm(p),
                          np.array([[0, 64], [128, 255]], dtype=np.uint8))
    p.write_bytes(b"P2\n2 2\n65535\n0 1 2 3\n")
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(p)
    p.write_bytes(b"P6\n2 2\n255\n")
    with pytest.raises(ValueError, match="P2/P5"):
        read_pgm(p)
    p.write_bytes(b"P5\n3 3\n255\n\x00\x01")
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(p)


def test_pgm_truncated_ascii_raster(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 64 128\n")
    with pytest.raises(ValueError, match="truncated P2 raster"):
        read_pgm(p)


def test_pgm_comment_after_every_token_and_crlf_line_ends(tmp_path):
    # raster bytes 10 and 35 are "\n" and "#": the header ends at the one
    # whitespace byte after maxval
    p = tmp_path / "c.pgm"
    p.write_bytes(b"# made by hand\r\nP5# magic\r\n2 # width\r\n"
                  b"# a line of its own\r\n1# height\r\n255\n\x0a\x23")
    assert np.array_equal(read_pgm(p), np.array([[10, 35]], dtype=np.uint8))


def test_pgm_rejects_a_comment_right_after_maxval(tmp_path):
    # netpbm: exactly one whitespace byte separates maxval from the raster
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n2 1\n255#\x00\x01")
    with pytest.raises(ValueError, match="P2/P5"):
        read_pgm(p)


def test_eta_from_image_endpoints():
    img = np.array([[0, 128, 255]], dtype=np.uint8)
    sf = eta_from_image(img, 0.0, 2.55)
    assert sf.eta[0, 0] == 0.0
    assert sf.eta[0, 2] == pytest.approx(2.55)
    assert sf.eta[0, 1] == pytest.approx(2.55 * 128.0 / 255.0)
    with pytest.raises(ValueError):
        eta_from_image(img.astype(np.int32), 0.0, 1.0)
    with pytest.raises(ValueError):
        eta_from_image(img, 1.0, 0.0)


def test_eta_from_image_rejects_eta_min_above_eta_max():
    # the shifts of an inverted range would map gray 255 below gray 0
    img = np.array([[0, 255]], dtype=np.uint8)
    with pytest.raises(ValueError, match="eta_min 1.0 exceeds eta_max 0.5"):
        eta_from_image(img, 1.0, 0.5)
    assert eta_from_image(img, 0.5, 0.5).eta.tolist() == [[0.5, 0.5]]


def test_image_to_delays_orientation():
    # darker pixel -> smaller eta -> the edge into that node is longer
    img = np.array([[0, 255], [255, 0]], dtype=np.uint8)
    sf = eta_from_image(img, 0.0, 1.0)
    dm = delays_from_timeshifts(sf, 10.0)
    assert dm.right[0, 1] == pytest.approx(9.0)   # into white from black
    assert dm.right[0, 0] == pytest.approx(11.0)  # into black from white


# ---------------------------------------------------------------------------
# fidelity verification

def _spike_traj(spike_times, t_max=100.0):
    M, N = spike_times.shape
    times = np.arange(0.0, t_max, 0.1)
    traj = Trajectory(times=times,
                      snapshots=np.zeros((len(times), M, N, 1)),
                      dt=0.1, record_every=1)
    traj.spikes = [[np.array([spike_times[m, n]]) for n in range(N)]
                   for m in range(M)]
    return traj


def test_verify_pattern_perfect_match():
    rng = np.random.default_rng(7)
    T = 10.0
    eta = rng.uniform(0.0, 3.0, size=(3, 3))
    # the shifted node runs ahead by eta: it spikes earlier by eta
    spikes = 50.0 - eta
    rep = verify_pattern(_spike_traj(spikes), ShiftField(eta), T)
    assert rep.max_dev < 1e-12
    assert rep.correlation == pytest.approx(1.0)
    assert rep.missing_nodes == []


@pytest.mark.parametrize("T", [math.nan, math.inf], ids=["nan", "inf"])
def test_verify_pattern_rejects_a_period_that_is_not_finite(T):
    eta = np.array([[0.0, 1.0], [2.0, 0.5]])
    with pytest.raises(ValueError, match="T must be finite"):
        verify_pattern(_spike_traj(50.0 - eta), ShiftField(eta), T)


def test_verify_pattern_rejects_a_shift_field_of_another_shape():
    eta = np.zeros((2, 2))
    with pytest.raises(ValueError, match="shift field shape does not match"):
        verify_pattern(_spike_traj(50.0 - eta), ShiftField(np.zeros((2, 3))),
                       10.0)


def test_verify_pattern_detects_the_spikes_a_trajectory_lacks():
    # sinusoids whose node (m, n) runs ahead by eta[m, n]: their upward
    # zero crossings are its spikes
    T = 10.0
    eta = np.array([[0.0, 1.0, 2.5], [4.0, 0.5, 7.0]])
    times = np.arange(0.0, 40.0, 0.01)
    snaps = np.sin(2 * np.pi / T * (times[:, None, None] + eta))[..., None]

    def traj():
        return Trajectory(times=times, snapshots=snaps, dt=0.01,
                          record_every=1)
    detected = traj()
    detect_spikes(detected)
    lacking = traj()
    rep = verify_pattern(lacking, ShiftField(eta), T, t_discard=5.0)
    assert rep == verify_pattern(detected, ShiftField(eta), T, t_discard=5.0)
    assert [[ev.tolist() for ev in row] for row in lacking.spikes] == [
        [ev.tolist() for ev in row] for row in detected.spikes]
    assert rep.max_dev < 1e-3 and rep.missing_nodes == []
    assert rep.correlation == pytest.approx(1.0, abs=1e-6)


def test_verify_pattern_wraps_modulo_period():
    T = 5.0
    eta = np.array([[0.0, 1.0], [2.0, 3.0]])
    spikes = 50.0 - eta + T * np.array([[0, 3], [1, 2]])  # whole periods
    rep = verify_pattern(_spike_traj(spikes), ShiftField(eta), T)
    assert rep.max_dev < 1e-12


def test_verify_pattern_missing_node():
    eta = np.zeros((2, 2))
    traj = _spike_traj(50.0 - eta)
    traj.spikes[1][1] = np.array([])
    rep = verify_pattern(traj, ShiftField(eta), 10.0)
    assert rep.missing_nodes == [(1, 1)]


def test_verify_pattern_silent_reference_node():
    eta = np.array([[0.0, 1.0], [2.0, 3.0]])
    traj = _spike_traj(50.0 - eta)
    traj.spikes[0][0] = np.array([])
    traj.spikes[1][0] = np.array([])
    rep = verify_pattern(traj, ShiftField(eta), 10.0)
    assert rep.correlation is None
    assert rep.max_dev == math.inf
    assert rep.missing_nodes == [(0, 0), (1, 0)]


def test_verify_pattern_ignores_spikes_before_t_discard():
    rng = np.random.default_rng(9)
    T = 10.0
    eta = rng.uniform(0.0, 3.0, size=(3, 3))
    traj = _spike_traj(50.0 - eta)
    # a stray spike at a random time before t_discard = 30 on every node,
    # and node (2, 1) spikes only then
    for m in range(3):
        for n in range(3):
            traj.spikes[m][n] = np.concatenate(
                [rng.uniform(0.0, 30.0, 1), traj.spikes[m][n]])
    traj.spikes[2][1] = traj.spikes[2][1][:1]
    rep = verify_pattern(traj, ShiftField(eta), T, t_discard=30.0)
    assert rep.max_dev < 1e-12
    assert rep.correlation == pytest.approx(1.0)
    assert rep.missing_nodes == [(2, 1)]


def test_verify_pattern_constant_field_has_no_correlation():
    eta = np.full((2, 2), 1.5)
    rep = verify_pattern(_spike_traj(50.0 - eta), ShiftField(eta), 10.0)
    assert rep.correlation is None
    assert rep.max_dev < 1e-12


def test_verify_pattern_detects_mismatch():
    rng = np.random.default_rng(8)
    T = 10.0
    eta = rng.uniform(0.0, 3.0, size=(3, 3))
    wrong = 50.0 - rng.uniform(0.0, 3.0, size=(3, 3))
    rep = verify_pattern(_spike_traj(wrong), ShiftField(eta), T)
    assert rep.max_dev > 0.1


def test_sl_shifted_replay_is_exact():
    # complex-state version of the conjugacy check: a Stuart-Landau run on
    # shift-encoded delays reproduces the time-shifted homogeneous run to
    # machine precision when the shifts are grid aligned
    tau, dt = 4.0, 0.01
    spec = LatticeSpec(rows=2, cols=2, model=Model.STUART_LANDAU,
                       params=SLParams(alpha=1.0, beta=0.8), coupling=1.0)
    hom = DelayMap.homogeneous(2, 2, tau)
    ref = simulate(spec, hom, ConstantHistory(np.full((2, 2), 0.4 + 0.1j)),
                   t_end=60.0, dt=dt, store_full=True)
    eta = ShiftField(dt * np.array([[0.0, 30.0], [70.0, 10.0]]))
    dm = delays_from_timeshifts(eta, tau)
    t_align = 30.0
    tr = simulate(spec, dm,
                  ShiftedReplayHistory(ref.dense, t_align, eta.eta),
                  t_end=25.0, dt=dt, record_every=250)
    for i, t in enumerate(tr.times):
        want = ref.dense.eval_shifted(
            np.full((2, 2), t_align + float(t)) + eta.eta)
        got = tr.snapshots[i, ..., 0] + 1j * tr.snapshots[i, ..., 1]
        assert np.max(np.abs(got - want)) < 1e-12
