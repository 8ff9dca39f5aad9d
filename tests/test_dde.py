import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from delaylattice.core import (DelayMap, FHNParams, LatticeSpec, Model,
                               SLParams)
from delaylattice.dde import (ConstantHistory, FunctionHistory,
                              InsufficientDataError, ShiftedReplayHistory,
                              Trajectory, _make_rhs, _one_node_rhs,
                              detect_spikes, estimate_orbit_period,
                              estimate_period, plane_wave_history, simulate)
from delaylattice.fhn import fhn_steady_states
from delaylattice.sl import sl_enumerate_plane_waves


def sl_spec(M, N, alpha, beta, C):
    return LatticeSpec(rows=M, cols=N, model=Model.STUART_LANDAU,
                       params=SLParams(alpha=alpha, beta=beta), coupling=C)


def fhn_spec(M, N, I, C):
    return LatticeSpec(rows=M, cols=N, model=Model.FITZHUGH_NAGUMO,
                       params=FHNParams(I=I), coupling=C)


def test_dt_validation():
    spec = sl_spec(2, 2, 1.0, 1.0, 0.0)
    dm = DelayMap.homogeneous(2, 2, 1.0)
    with pytest.raises(ValueError):
        simulate(spec, dm, ConstantHistory(np.zeros((2, 2), complex)),
                 t_end=1.0, dt=0.3)    # dt > min_delay / 4


def test_uncoupled_sl_limit_cycle():
    spec = sl_spec(2, 2, 1.0, 1.0, 0.0)
    dm = DelayMap.homogeneous(2, 2, 1.0)
    init = ConstantHistory(np.full((2, 2), 0.3 + 0.2j))
    traj = simulate(spec, dm, init, t_end=50.0, dt=0.01, record_every=10)
    z = traj.snapshots[-1, ..., 0] + 1j * traj.snapshots[-1, ..., 1]
    assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-8
    # d|z|/dt ~ 0 on the cycle
    z_prev = traj.snapshots[-2, ..., 0] + 1j * traj.snapshots[-2, ..., 1]
    dt_rec = traj.times[-1] - traj.times[-2]
    assert np.max(np.abs(np.abs(z) - np.abs(z_prev))) / dt_rec < 1e-8


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (1, 1)],
                         ids=["2x2", "3x2", "1x1"])
def test_real_sl_history_is_a_complex_one_with_zero_imaginary_part(shape):
    # a real sample was once read as (re, im) pairs: at tau = 0.65 and
    # dt = 0.05 a history block holds 2 times, so on the 2x2 lattice the
    # run silently started from [[0.1, 0.3], [0.1, 0.3]]
    spec = sl_spec(*shape, 1.0, 1.0, 0.5)
    dm = DelayMap.homogeneous(*shape, 0.65)
    real = np.arange(1, 1 + math.prod(shape)).reshape(shape) / 10
    runs = [simulate(spec, dm, ConstantHistory(init), t_end=2.0, dt=0.05)
            for init in (real, real + 0j)]
    assert np.array_equal(runs[0].snapshots[0, ..., 0], real)
    assert np.array_equal(runs[0].snapshots, runs[1].snapshots)


def test_equilibrium_stays_constant_sl():
    spec = sl_spec(3, 3, -2.5, 0.5, 2.0)
    dm = DelayMap.homogeneous(3, 3, 20.0)
    init = ConstantHistory(np.zeros((3, 3), complex))
    traj = simulate(spec, dm, init, t_end=100.0, dt=0.05, record_every=50)
    assert np.max(np.abs(traj.snapshots)) < 1e-10


def test_equilibrium_stays_constant_fhn():
    params = FHNParams(I=-0.8)
    st = fhn_steady_states(params, 3.0)[0]
    spec = fhn_spec(3, 3, -0.8, 3.0)
    dm = DelayMap.homogeneous(3, 3, 20.0)
    base = np.broadcast_to(np.array([st.v, st.w, st.s]), (3, 3, 3)).copy()
    traj = simulate(spec, dm, ConstantHistory(base), t_end=100.0, dt=0.05,
                    record_every=50)
    assert np.max(np.abs(traj.snapshots - base)) < 1e-10


def test_stable_plane_wave_persists():
    C, tau = 2.0, 20.0
    spec = sl_spec(10, 10, 3.0, 0.5, C)
    waves = sl_enumerate_plane_waves(spec.params, C, tau, spec)
    # pick a high-amplitude synchronous-family wave: these are stable
    w = max(waves, key=lambda w: w.a)
    dm = DelayMap.homogeneous(10, 10, tau)
    traj = simulate(spec, dm, plane_wave_history(w, spec), t_end=100.0,
                    dt=0.02, record_every=100)
    z = traj.snapshots[-1, ..., 0] + 1j * traj.snapshots[-1, ..., 1]
    assert np.max(np.abs(np.abs(z) - w.a)) / 100.0 < 1e-6


def test_detect_spikes_sinusoid():
    Om = 2.0
    times = np.arange(0.0, 20.0, 0.01)
    x = np.sin(Om * times)
    snaps = x[:, None, None, None]
    traj = Trajectory(times=times, snapshots=snaps, dt=0.01, record_every=1)
    spikes = detect_spikes(traj)
    events = spikes[0][0]
    period = 2 * math.pi / Om
    want = np.arange(0.0, 20.0, period)
    assert len(events) == len(want)
    assert np.max(np.abs(events - want)) < 0.01


def test_detect_spikes_quiescent():
    params = FHNParams(I=-0.8)
    st = fhn_steady_states(params, 3.0)[0]
    spec = fhn_spec(2, 2, -0.8, 3.0)
    dm = DelayMap.homogeneous(2, 2, 10.0)
    base = np.broadcast_to(np.array([st.v, st.w, st.s]), (2, 2, 3)).copy()
    traj = simulate(spec, dm, ConstantHistory(base + 0.01), t_end=60.0,
                    dt=0.01, record_every=10)
    spikes = detect_spikes(traj)
    assert all(len(spikes[m][n]) == 0 for m in range(2) for n in range(2))


def _spikes_per_node(traj):
    # reference: upward zero crossings of component 0 and the refractory
    # filter of 1.0, one node at a time
    t = traj.times
    M, N = traj.shape
    out = []
    for m in range(M):
        row = []
        for n in range(N):
            x = traj.snapshots[:, m, n, 0]
            idx = np.flatnonzero((x[:-1] <= 0.0) & (x[1:] > 0.0))
            frac = (0.0 - x[idx]) / (x[idx + 1] - x[idx])
            events = []
            for ev in t[idx] + frac * (t[idx + 1] - t[idx]):
                if not events or ev - events[-1] >= 1.0:
                    events.append(ev)
            row.append(np.array(events))
        out.append(row)
    return out


def test_detect_spikes_matches_per_node_reference():
    # noisy oscillations: many crossings fall inside the refractory time
    rng = np.random.default_rng(3)
    times = np.arange(400) * 0.1
    phase = rng.uniform(0, 6, (1, 3, 4, 1))
    snaps = (np.sin(times[:, None, None, None] * rng.uniform(0.5, 3, (1, 3, 4, 1))
                    + phase) + 0.3 * rng.standard_normal((400, 3, 4, 2)))
    snaps[:, 0, 0, 0] = -1.0   # a silent node
    traj = Trajectory(times=times, snapshots=snaps, dt=0.1, record_every=1)
    got = detect_spikes(traj)
    want = _spikes_per_node(traj)
    assert traj.spikes is got
    assert len(got[0][0]) == 0
    for m in range(3):
        for n in range(4):
            assert np.array_equal(got[m][n], want[m][n])


def test_estimate_period_sinusoid():
    times = np.arange(0.0, 50.0, 0.01)
    T0 = 7.0
    x = np.sin(2 * math.pi * times / T0)
    traj = Trajectory(times=times, snapshots=x[:, None, None, None],
                      dt=0.01, record_every=1)
    T, std = estimate_period(traj, t_discard=0.0)
    assert abs(T - T0) < 0.01
    assert std < 0.01


def test_estimate_period_plane_wave():
    C, tau = 2.0, 20.0
    spec = sl_spec(5, 5, 3.0, 0.5, C)
    waves = sl_enumerate_plane_waves(spec.params, C, tau, spec)
    w = max((x for x in waves if x.Omega > 0.5), key=lambda x: x.a)
    dm = DelayMap.homogeneous(5, 5, tau)
    traj = simulate(spec, dm, plane_wave_history(w, spec), t_end=80.0,
                    dt=0.02)
    T, _ = estimate_period(traj, t_discard=10.0)
    assert abs(T - 2 * math.pi / w.Omega) / T < 1e-4


def test_estimate_period_insufficient_data():
    times = np.arange(0.0, 1.0, 0.01)
    traj = Trajectory(times=times,
                      snapshots=np.zeros((len(times), 1, 1, 1)),
                      dt=0.01, record_every=1)
    with pytest.raises(InsufficientDataError):
        estimate_period(traj, t_discard=0.0)


def test_estimate_orbit_period_two_pulse():
    # alternating intervals 3, 5: full orbit period is 8
    events = np.cumsum([0.0] + [3.0, 5.0] * 6)
    traj = Trajectory(times=np.arange(0, 50, 0.1),
                      snapshots=np.zeros((500, 1, 1, 1)),
                      dt=0.1, record_every=1)
    traj.spikes = [[events]]
    assert estimate_orbit_period(traj, t_discard=0.0) == pytest.approx(8.0)


@pytest.mark.parametrize("intervals, message", [
    ([3.0, 5.0], r"only 3 events after t=0\.0; need >= 4"),
    ([1.0, 2.0, 4.0, 8.0, 16.0, 32.0], "shows no periodic block structure")],
    ids=["three-events", "no-repeat"])
def test_estimate_orbit_period_needs_a_repeating_block(intervals, message):
    traj = Trajectory(times=np.arange(0, 100, 0.1),
                      snapshots=np.zeros((1000, 1, 1, 1)),
                      dt=0.1, record_every=1)
    traj.spikes = [[np.cumsum([0.0] + intervals)]]
    with pytest.raises(InsufficientDataError, match=message):
        estimate_orbit_period(traj, t_discard=0.0)


def test_simulate_rejects_a_delay_map_of_another_shape():
    with pytest.raises(ValueError, match="delay map shape does not match"):
        simulate(sl_spec(2, 2, 1.0, 1.0, 0.5), DelayMap.homogeneous(2, 3, 1.0),
                 ConstantHistory(np.zeros((2, 2), complex)), t_end=1.0,
                 dt=0.1)


def test_orbit_period_reads_the_cached_zero_crossings_of_component_0():
    # gate events cached as traj.spikes were once read as component-0 zero
    # crossings: the orbit period came out 51.302633, the first event 1.009
    spec = fhn_spec(1, 1, 0.0, 3.0)
    traj = simulate(spec, DelayMap.homogeneous(1, 1, 50.0),
                    ConstantHistory(np.array([[[2.0, 0.0, 0.0]]])),
                    t_end=320.0, dt=0.05, record_every=2)
    assert traj.spikes is None
    assert estimate_orbit_period(traj, 100.0) == pytest.approx(51.302747,
                                                               abs=1e-6)
    assert traj.spikes[0][0][0] == pytest.approx(50.885, abs=1e-3)


@pytest.mark.parametrize("key, value", [
    ("record_every", 0), ("record_every", -1), ("t_end", 0.0),
    ("t_end", math.nan), ("t_end", math.inf)])
def test_run_length_outside_its_range_is_rejected(key, value):
    # record_every 0 once divided by zero, -1 made negative dimensions
    run = {"t_end": 1.0, "record_every": 1, key: value}
    with pytest.raises(ValueError, match=key):
        simulate(sl_spec(2, 2, 1.0, 1.0, 0.0), DelayMap.homogeneous(2, 2, 1.0),
                 ConstantHistory(np.zeros((2, 2), complex)), dt=0.1, **run)


def test_determinism():
    spec = sl_spec(3, 3, 1.0, 0.5, 1.0)
    dm = DelayMap.homogeneous(3, 3, 5.0)
    rng = np.random.default_rng(1)
    hist = ConstantHistory(rng.standard_normal((3, 3))
                           + 1j * rng.standard_normal((3, 3)))
    a = simulate(spec, dm, hist, t_end=20.0, dt=0.02)
    b = simulate(spec, dm, hist, t_end=20.0, dt=0.02)
    assert np.array_equal(a.snapshots, b.snapshots)


def test_rk4_convergence_order():
    # run shorter than the delay so the delayed term reads the smooth
    # prescribed history only: clean 4th-order convergence
    spec = sl_spec(2, 2, 1.0, 1.0, 0.5)
    tau = 20.0
    dm = DelayMap.homogeneous(2, 2, tau)

    def hist(t):
        return np.full((2, 2), 0.4 * np.exp((0.3 + 1.1j) * t))

    init = FunctionHistory(hist, lambda t: (0.3 + 1.1j) * hist(t))
    finals = {}
    for dt in (0.1, 0.05, 0.025):
        traj = simulate(spec, dm, init, t_end=10.0, dt=dt, record_every=10 ** 9)
        finals[dt] = traj.snapshots[-1]
    err_coarse = np.max(np.abs(finals[0.1] - finals[0.025]))
    err_fine = np.max(np.abs(finals[0.05] - finals[0.025]))
    # error(dt)/error(dt/2) ~ (e1 - e2)/(e2 - e2/4) with e ~ C dt^4
    ratio = err_coarse / err_fine
    # e(0.1)-e(0.025) over e(0.05)-e(0.025): (16-1)/(4-1)*4 = 20 ideal? No:
    # using dt/4 run as reference, ratio -> (256-1)/(16-1)/16*16 = 17
    assert 11.0 <= ratio <= 21.0


def test_amplitude_equation_sanity():
    # uncoupled SL: d|z|^2/dt = 2|z|^2 (alpha - |z|^2) along the flow
    spec = sl_spec(1, 1, 1.0, 0.7, 0.0)
    dm = DelayMap.homogeneous(1, 1, 1.0)
    traj = simulate(spec, dm, ConstantHistory(np.full((1, 1), 0.2 + 0j)),
                    t_end=5.0, dt=0.005, record_every=1)
    z = traj.snapshots[:, 0, 0, 0] + 1j * traj.snapshots[:, 0, 0, 1]
    r2 = np.abs(z) ** 2
    mid = 0.5 * (r2[1:] + r2[:-1])
    lhs = np.diff(r2) / np.diff(traj.times)
    rhs = 2.0 * mid * (1.0 - mid)
    assert np.max(np.abs(lhs - rhs)) < 5e-4


def test_shifted_replay_exact_conjugacy():
    from delaylattice.pattern import ShiftField, delays_from_timeshifts
    tau, dt = 5.0, 0.01
    spec = fhn_spec(4, 4, 0.5, 1.0)
    hom = DelayMap.homogeneous(4, 4, tau)
    ref = simulate(spec, hom,
                   ConstantHistory(np.tile([1.5, 0.5, 0.3], (4, 4, 1))),
                   t_end=120.0, dt=dt, store_full=True)
    rng = np.random.default_rng(0)
    eta = ShiftField(dt * rng.integers(0, 40, size=(4, 4)).astype(float))
    dm = delays_from_timeshifts(eta, tau)
    t_align = 60.0
    tr = simulate(spec, dm, ShiftedReplayHistory(ref.dense, t_align, eta.eta),
                  t_end=50.0, dt=dt, record_every=100)
    for i, t in enumerate(tr.times):
        want = ref.dense.eval_shifted(np.full((4, 4), t_align + float(t))
                                      + eta.eta)
        assert np.max(np.abs(tr.snapshots[i] - want)) < 1e-12


# ---------------------------------------------------------------------------
# the history protocol: times of any shape, samples with that shape prepended

def _stored_run(M, N):
    rng = np.random.default_rng(M * N)
    init = ConstantHistory(rng.uniform(-1.5, 1.5, (M, N, 3)) * [1, 1, 0.2]
                           + [0, 0, 0.3])
    return simulate(fhn_spec(M, N, 0.5, 1.0), DelayMap.homogeneous(M, N, 2.0),
                    init, t_end=10.0, dt=0.05, store_full=True).dense


@pytest.mark.parametrize("stored", [(1, 1), (3, 4)], ids=["1x1", "3x4"])
@pytest.mark.parametrize("deriv", [False, True], ids=["value", "deriv"])
def test_eval_shifted_on_a_block_equals_one_call_per_time(stored, deriv):
    from delaylattice.dde import SimulationError
    dense = _stored_run(*stored)
    rng = np.random.default_rng(5)
    times = rng.uniform(dense.t0, dense.t_end, (7, 3, 4))
    times[0, 0, 0], times[1, 2, 3] = dense.t0, dense.t_end   # both ends
    times[2] = np.round(times[2] / dense.dt) * dense.dt      # on the grid
    block = dense.eval_shifted(times, deriv=deriv)
    one_by_one = np.stack([dense.eval_shifted(t, deriv=deriv) for t in times])
    assert block.shape == (7, 3, 4, 3)
    assert np.array_equal(block, one_by_one)
    times[4, 1, 1] = dense.t_end + 0.01
    with pytest.raises(SimulationError):
        dense.eval_shifted(times, deriv=deriv)


def test_eval_shifted_rejects_times_of_another_lattice():
    from delaylattice.dde import SimulationError
    dense = _stored_run(2, 2)
    with pytest.raises(SimulationError,
                       match=r"cannot broadcast stored lattice \(2, 2\)"):
        dense.eval_shifted(np.full((4, 2, 3), dense.t0 + 1.0))


def _histories():
    rng = np.random.default_rng(6)
    z0 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    lam = 0.1 + 1.3j
    return {
        "constant": ConstantHistory(rng.uniform(-1, 1, (2, 3, 3))),
        "function": FunctionHistory(lambda t: z0 * np.exp(lam * t),
                                    lambda t: lam * z0 * np.exp(lam * t)),
        # a (1, 1) reference is read once per distinct shift
        "replay": ShiftedReplayHistory(_stored_run(1, 1), 5.0,
                                       rng.choice([0.0, 0.3, 1.7], (2, 3))),
        "replay-lattice": ShiftedReplayHistory(_stored_run(2, 3), 5.0,
                                               rng.uniform(0.0, 2.0, (2, 3))),
    }


@pytest.mark.parametrize("name", ["constant", "function", "replay",
                                  "replay-lattice"])
def test_history_on_an_array_of_times_stacks_the_scalar_samples(name):
    hist = _histories()[name]
    times = np.arange(-40, 1) * 0.05
    for read in (hist.state, hist.deriv):
        one = read(-0.5)
        assert one.shape in ((2, 3), (2, 3, 3))
        block = read(times)
        assert block.shape == times.shape + one.shape
        assert np.array_equal(block,
                              np.stack([read(t) for t in times.tolist()]))
        # any shape of times, a 0-d array among them
        assert np.array_equal(read(times.reshape(1, 41))[0], block)
        assert np.array_equal(read(np.float64(-0.5)), one)


def test_constant_history_allocates_no_samples():
    base = np.ones((2, 3, 3))
    hist = ConstantHistory(base)
    times = np.arange(-1000, 1) * 0.05
    assert np.shares_memory(hist.state(times), base)
    assert hist.deriv(times).strides == (0,) * 4


def test_function_history_is_called_once_per_time_with_python_floats():
    seen = {"f": [], "df": []}

    def sample(key):
        def f(t):
            seen[key].append(t)
            return np.full((2, 2), 0.1 + 0.2j)
        return f

    dt = 0.1
    simulate(sl_spec(2, 2, 1.0, 1.0, 0.5), DelayMap.homogeneous(2, 2, 1.0),
             FunctionHistory(sample("f"), sample("df")), t_end=0.5, dt=dt)
    H = len(seen["f"]) - 1
    assert H == math.ceil(1.0 / dt) + 2
    assert all(type(t) is float for t in seen["f"] + seen["df"])
    assert seen["f"] == [n * dt for n in range(-H, 1)]
    # the derivative at t = 0 comes from the right-hand side
    assert seen["df"] == seen["f"][:-1]


def _diverging_fhn(shape, t_end):
    # v = 1e150 cubes to inf in the first stage
    init = ConstantHistory(np.tile([1e150, 0.5, 0.3], shape + (1,)))
    return simulate(fhn_spec(*shape, 0.5, 1.0),
                    DelayMap.homogeneous(*shape, 1.0), init, t_end=t_end,
                    dt=0.01)


def _abort_message(run, *args):
    from delaylattice.dde import SimulationError
    with pytest.raises(SimulationError) as err, np.errstate(over="ignore",
                                                            invalid="ignore"):
        run(*args)
    return str(err.value)


@pytest.mark.parametrize("case", ["sl-2x2", "fhn-1x1"])
def test_nonfinite_state_aborts(case):
    # the one-node path aborts with the message of the kernel's 2x1 run
    if case == "fhn-1x1":
        msg = _abort_message(_diverging_fhn, (1, 1), 10.0)
        assert msg == _abort_message(_diverging_fhn, (2, 1), 10.0)
        assert msg == "non-finite state at t=0.64, node (0, 0)"
        return
    spec = sl_spec(2, 2, 50.0, 0.0, 0.0)   # blow-up-prone alpha
    dm = DelayMap.homogeneous(2, 2, 1.0)
    init = ConstantHistory(np.full((2, 2), 1e150 + 0j))
    _abort_message(simulate, spec, dm, init, 10.0, 0.1)


@pytest.mark.parametrize("t_end, model", [(0.5, "sl"), (0.63, "sl"),
                                          (0.05, "fhn"), (0.63, "fhn")],
                         ids=["0.5", "0.63", "fhn-0.05", "fhn-0.63"])
def test_blow_up_after_the_last_periodic_check_aborts(t_end, model):
    # the finite check ran every 64 steps only: the state is NaN by step 50,
    # and a run of 50 or 63 steps returned NaN snapshots without an error
    if model == "fhn":
        msg = _abort_message(_diverging_fhn, (1, 1), t_end)
        assert msg == _abort_message(_diverging_fhn, (2, 1), t_end)
        assert msg == f"non-finite state at t={t_end:.6g}, node (0, 0)"
        return
    init = ConstantHistory(np.full((2, 2), 1e150 + 0j))
    _abort_message(simulate, sl_spec(2, 2, 1.0, 1.0, 0.5),
                   DelayMap.homogeneous(2, 2, 1.0), init, t_end, 0.01)


@pytest.mark.parametrize("store_full", [False, True], ids=["ring", "full"])
@pytest.mark.parametrize("down, right", [(2.0, 3.5), (2.13, 3.517)],
                         ids=["grid-aligned", "off-grid"])
def test_one_node_path_equals_the_kernel_bit_for_bit(monkeypatch, store_full,
                                                    down, right):
    # a 1x1 run steps in Python floats; a 2x1 lattice of identical nodes
    # steps through the ufunc kernel, and node (0, 0) sees the same delayed
    # sums. Off-grid delays interpolate at both stage offsets.
    from delaylattice import dde
    calls = []
    stepper = dde._step_one_node
    monkeypatch.setattr(dde, "_step_one_node",
                        lambda *a: calls.append(1) or stepper(*a))

    def run(M):
        def f(t):
            return np.tile([1.5 + 0.5 * math.sin(t), 0.5 * math.cos(t),
                            0.3 + 0.1 * math.sin(2 * t)], (M, 1, 1))

        def df(t):
            return np.tile([0.5 * math.cos(t), -0.5 * math.sin(t),
                            0.2 * math.cos(2 * t)], (M, 1, 1))

        dm = DelayMap(np.full((M, 1), down), np.full((M, 1), right))
        return simulate(fhn_spec(M, 1, 0.5, 1.0), dm, FunctionHistory(f, df),
                        t_end=30.0, dt=0.05, record_every=7,
                        store_full=store_full)

    one, two = run(1), run(2)
    assert len(calls) == 1   # only the 1x1 run took the one-node path
    assert np.array_equal(one.times, two.times)
    assert np.array_equal(one.snapshots, two.snapshots[:, :1])
    assert one.times[-1] == 30.0 and 600 % 7   # a last, partial record
    if store_full:
        assert np.array_equal(one.dense.samples, two.dense.samples[..., :1, :])
    else:
        assert one.dense is None and two.dense is None


# ---------------------------------------------------------------------------
# the integrator's output, pinned bit for bit

def _pinned_fhn(store_full=False, dt=0.05):
    rng = np.random.default_rng(7)
    spec = fhn_spec(4, 5, 0.5, 1.0)
    dm = DelayMap(rng.uniform(2.0, 5.0, (4, 5)), rng.uniform(2.0, 5.0, (4, 5)))
    init = ConstantHistory(rng.uniform(-1.5, 1.5, (4, 5, 3)) * [1, 1, 0.2]
                           + [0, 0, 0.3])
    return simulate(spec, dm, init, t_end=60.0, dt=dt,
                    record_every=round(2.0 / dt), store_full=store_full)


def _pinned_sl(store_full=False):
    rng = np.random.default_rng(8)
    spec = sl_spec(5, 6, 1.0, 0.5, 0.8)
    dm = DelayMap(rng.uniform(1.0, 3.0, (5, 6)), rng.uniform(1.0, 3.0, (5, 6)))
    z0 = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    lam = 0.1 + 1.3j
    init = FunctionHistory(lambda t: z0 * np.exp(lam * t),
                           lambda t: lam * z0 * np.exp(lam * t))
    return simulate(spec, dm, init, t_end=40.0, dt=0.02, record_every=50,
                    store_full=store_full)


def _pinned_fhn_replay(store_full=False):
    # a 3x4 lattice replaying a 1x1 reference orbit with off-grid shifts, so
    # every history read interpolates between stored samples
    from delaylattice.pattern import ShiftField, delays_from_timeshifts
    rng = np.random.default_rng(9)
    ref = simulate(fhn_spec(1, 1, 0.5, 1.0), DelayMap.homogeneous(1, 1, 5.0),
                   ConstantHistory(np.array([[[1.5, 0.5, 0.3]]])),
                   t_end=40.0, dt=0.05, store_full=True)
    eta = rng.uniform(0.0, 2.0, (3, 4))
    dm = delays_from_timeshifts(ShiftField(eta), 5.0)
    return simulate(fhn_spec(3, 4, 0.5, 1.0), dm,
                    ShiftedReplayHistory(ref.dense, 20.0, eta), t_end=20.0,
                    dt=0.05, record_every=40, store_full=store_full)


# sha256 of the final snapshot (little-endian float64) of each run, recorded
# with the three-component ring and per-edge gathers the single-channel ring
# replaced (fhn-replay: with the history read one time at a time); its
# arithmetic must stay the same operation for operation. The FHN digests were
# re-recorded when the rhs began to cube v by two multiplies instead of
# np.power, which rounds twice where pow rounds once; POW_CUBE_FINAL keeps
# their final snapshots from before that change.
PINNED = {
    "fhn": (_pinned_fhn,
            "f91edb565543a5a0bde4681e9ff149db77e73919861c1ed70d5c49c07deffed9"),
    "sl": (_pinned_sl,
           "d05b9a73c46ba0f3af1dce8c1daa4389e280da522acf8d8a6d29549a829d2976"),
    "fhn-replay": (
        _pinned_fhn_replay,
        "f45a8424c6b947fa37a2525e1e5b2c6ca434400b40bcd029ffddaa01f9254302"),
}

# the final snapshots, node by node as (v, w, s), with v**3 from np.power
POW_CUBE_FINAL = {
    "fhn": [
        1.4324327331950195, 1.263802907513929, 0.4334426090696369,
        1.4169498722681053, 1.281363594385607, 0.4319485351779826,
        1.2934224751913155, 1.4440510996868479, 0.4143591530967381,
        1.2462206966718985, 1.4910769382734257, 0.4055407337180574,
        1.3817117055190948, 1.3334727435801916, 0.4278246885867194,
        1.7348319483582506, 0.674404132950503, 0.445877935914742,
        1.7318096551112208, 0.6542062334315037, 0.4406243695396135,
        -1.0997350492804618, 0.4243177648172477, 0.000716683930229437,
        0.7283324325628089, 1.5692276655099324, 0.2406713840728168,
        1.3992266719696755, 1.30247041844989, 0.4300933040611555,
        1.4888228946731903, 1.1366193611108155, 0.4373440329841917,
        -0.5639096047765337, 0.28281723859140956, 0.0003349556305048594,
        -1.924810760331863, 0.9064089299856171, 0.014350878300530641,
        0.9807324223454704, 1.5518916193937293, 0.342528523195363,
        1.488548659019788, 1.1744319513214025, 0.43836689540067325,
        1.3289533399010474, 1.4020330069171616, 0.4196754834541786,
        0.726554772300258, 1.5644818195998207, 0.23929915143658217,
        1.0797728877635122, 1.544203167779052, 0.37113924853952346,
        1.2877239722145988, 1.4468843109772451, 0.4137536170748416,
        1.439198877252832, 1.247563411372459, 0.433599954351573,
    ],
    "fhn-replay": [
        -0.8898300631641519, -0.24563467626229576, 3.972446316610979e-05,
        -0.9855814248947959, -0.24155388296833108, 2.6060832286623553e-05,
        -0.9359157949112688, -0.24491268811805275, 3.2493428043709746e-05,
        -0.9063422912451911, -0.2456106233232346, 3.698302126280595e-05,
        -0.916972885212343, -0.24546074171807936, 3.530867998507123e-05,
        -0.8815683016137521, -0.24555691683618003, 4.116259813750491e-05,
        -0.8916140613173174, -0.24564380475546085, 3.94198228418291e-05,
        -0.8810399707138871, -0.2455499954511021, 4.1256110305347585e-05,
        -1.0234935925350603, -0.23683835956558663, 2.1983543120515026e-05,
        -0.9625254597239628, -0.24348126909578402, 2.8883707794214648e-05,
        -0.9550113991337607, -0.24396810248798637, 2.986368475288e-05,
        -1.0180138411459758, -0.23764647181522702, 2.2531786873410443e-05,
    ],
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_final_snapshot(case):
    run, digest = PINNED[case]
    traj = run()
    final = np.ascontiguousarray(traj.snapshots[-1], dtype="<f8")
    assert hashlib.sha256(final.tobytes()).hexdigest() == digest
    if case in POW_CUBE_FINAL:
        assert np.abs(final.ravel() - POW_CUBE_FINAL[case]).max() <= 1e-12
    # the dense store rides along without touching the coupling reads
    full = run(store_full=True)
    assert np.array_equal(full.snapshots, traj.snapshots)
    assert np.array_equal(full.times, traj.times)


@pytest.mark.parametrize("case", ["fhn", "sl"])
def test_grid_aligned_dense_reads_are_the_stored_samples(case):
    traj = PINNED[case][0](store_full=True)
    M, N = traj.shape
    for t, snap in zip(traj.times, traj.snapshots):
        got = traj.dense.eval_shifted(np.full((M, N), t))
        if case == "sl":
            got = np.stack([got.real, got.imag], axis=-1)
        assert np.array_equal(got, snap), t


def test_sl_snapshots_are_the_float_view_of_the_stored_z():
    # a Stuart-Landau run records complex z and returns its float view,
    # (re, im) per node: the stored samples of the record steps, bit for bit
    traj = PINNED["sl"][0](store_full=True)
    H = round(-traj.dense.t0 / traj.dt)
    z = traj.dense.samples[H + np.rint(traj.times / traj.dt).astype(int), 0, 0]
    assert traj.snapshots.dtype == float
    assert traj.snapshots.shape == z.shape + (2,)
    assert np.array_equal(traj.snapshots, z[..., None].view(float))
    assert np.array_equal(traj.snapshots[..., 0], z.real)
    assert np.array_equal(traj.snapshots[..., 1], z.imag)
    # a real history sample is a complex one with Im z = 0
    real = simulate(sl_spec(2, 2, 1.0, 0.5, 0.8), DelayMap.homogeneous(2, 2, 1.0),
                    ConstantHistory(np.full((2, 2), 0.3)), t_end=1.0, dt=0.05)
    assert real.snapshots[0].tolist() == [[[0.3, 0.0]] * 2] * 2


def test_grid_aligned_reads_of_a_one_node_store_broadcast_exactly():
    traj = simulate(fhn_spec(1, 1, 0.5, 1.0), DelayMap.homogeneous(1, 1, 2.0),
                    ConstantHistory(np.array([[[1.5, 0.5, 0.3]]])),
                    t_end=10.0, dt=0.05, store_full=True)
    times = np.multiply.outer(traj.times, np.ones((2, 3)))
    got = traj.dense.eval_shifted(times)
    assert got.shape == (len(traj.times), 2, 3, 3)
    assert np.array_equal(got, np.broadcast_to(traj.snapshots, got.shape))


def test_cube_rounding_is_far_below_the_step_error():
    # the move of the pinned FHN run away from its np.power cube is a
    # millionth of what halving dt changes at the same record times
    traj, half = _pinned_fhn(), _pinned_fhn(dt=0.025)
    np.testing.assert_allclose(half.times, traj.times, rtol=0, atol=1e-12)
    gap = np.abs(half.snapshots[-1] - traj.snapshots[-1]).max()
    move = np.abs(traj.snapshots[-1].ravel() - POW_CUBE_FINAL["fhn"]).max()
    assert move < 1e-6 * gap


@pytest.mark.parametrize("shape", [(1, 1), (12, 16), (32, 32)],
                         ids=["1", "192", "1024"])
def test_fhn_rhs_matches_the_model_equations(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    p = FHNParams(*rng.uniform([-1.0, 0.5, 0.5, 0.05, 1.5],
                               [1.0, 0.9, 1.0, 0.1, 2.5]))
    C = rng.uniform(0.5, 5.0)
    spec = LatticeSpec(rows=shape[0], cols=shape[1],
                       model=Model.FITZHUGH_NAGUMO, params=p, coupling=C)
    v, w, s, x = rng.uniform([[-2.5], [-1.0], [0.0], [0.0]],
                             [[2.5], [2.0], [1.0], [2.0]],
                             (4, shape[0] * shape[1]))
    y = np.array([v, w, s])
    out = np.empty_like(y)
    _make_rhs(spec)(y, x, out)
    alpha = 0.5 / (1.0 + np.exp(-5.0 * (v - 1.0)))
    want = [v - v**3 / 3.0 - w + p.I + C / 2.0 * (p.v_r - v) * x,
            p.eps * (v + p.a - p.b * w),
            alpha * (1.0 - s) - 0.6 * s]
    for got, ref in zip(out, want):
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(y, [v, w, s])
    # the one-node rhs in Python floats is the ufunc rhs bit for bit
    rhs = _one_node_rhs(spec)
    got = [rhs(*yi, xi) for yi, xi in zip(y.T.tolist(), x.tolist())]
    assert all(type(g) is float for row in got for g in row)
    assert np.array_equal(np.array(got).T, out)


def test_simulate_peak_memory():
    # the ring holds only the coupled channel s and its derivative:
    # 806 slots x 2 x 1024 nodes x 8 B = 13.2 MB (three components: 40 MB);
    # the history is read a block of times at a time, not all 803 at once
    spec = fhn_spec(32, 32, 0.5, 1.0)
    ref = simulate(fhn_spec(1, 1, 0.5, 1.0), DelayMap.homogeneous(1, 1, 80.0),
                   ConstantHistory(np.array([[[1.0, 0.5, 0.3]]])), t_end=5.0,
                   dt=0.1, store_full=True)
    eta = np.random.default_rng(4).uniform(0.0, 2.0, (32, 32))
    for init in (ConstantHistory(np.tile([1.0, 0.5, 0.3], (32, 32, 1))),
                 ShiftedReplayHistory(ref.dense, 0.0, eta)):
        tracemalloc.start()
        try:
            simulate(spec, DelayMap.homogeneous(32, 32, 80.0), init,
                     t_end=5.0, dt=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, type(init).__name__
