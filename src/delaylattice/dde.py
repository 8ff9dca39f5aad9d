"""Fixed-step RK4 integrator for the delay-coupled lattice.

Delayed neighbor values are read through cubic Hermite interpolation of
(value, derivative) samples at uniform step dt, which keeps the scheme 4th
order for smooth history. Per-edge heterogeneous delays are supported.

The coupling reads one channel of the neighbor state: z for Stuart-Landau,
the synaptic gate s for FitzHugh-Nagumo. Only that channel is kept in the
history ring, shaped (D, 2, M*N) with D = H + 4 slots for H =
ceil(max_delay/dt) + 2: slot (n + H) % D holds the channel and its
derivative at time n*dt, node-major. Since delays are constant in time, the flat ring
index and the Hermite weight of every read (2 edges x 4 reads x M*N nodes)
are precomputed for the stage offsets c = 0, 1/2, 1; each step then makes
one wrapped ``take`` and a weighted sum for both stages it needs.
``store_full`` keeps the full (state, derivative) samples of the whole run
beside the ring, for ``DenseOutput``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import DelayMap, FHNParams, LatticeSpec, Model, SLParams
from .fhn import gate_rate

DEFAULT_DT_CAP = 0.01
SPIKE_REFRACTORY = 1.0


class SimulationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# history initializers

class ConstantHistory:
    """Constant state on the whole history interval; derivative zero."""

    def __init__(self, state: np.ndarray):
        self._state = np.asarray(state)

    def state(self, t: float) -> np.ndarray:
        return self._state

    def deriv(self, t: float) -> np.ndarray:
        return np.zeros_like(self._state)


class FunctionHistory:
    """History from a callable t -> (M, N, d) array and its derivative
    ``df``."""

    def __init__(self, f: Callable, df: Callable):
        self._f = f
        self._df = df

    def state(self, t: float) -> np.ndarray:
        return self._f(t)

    def deriv(self, t: float) -> np.ndarray:
        return self._df(t)


class ShiftedReplayHistory:
    """History replayed from the dense output of a reference run, with a
    per-node time shift: state(t)[m,n] = ref(t_align + t + eta[m,n])[m,n].

    A (1, 1)-node reference (e.g. a synchronized orbit computed on a single
    self-coupled node) is broadcast over the target lattice."""

    def __init__(self, dense: "DenseOutput", t_align: float, eta: np.ndarray):
        self._dense = dense
        self._t0 = t_align
        self._eta = np.asarray(eta, dtype=float)

    def state(self, t: float) -> np.ndarray:
        return self._dense.eval_shifted(self._t0 + t + self._eta)

    def deriv(self, t: float) -> np.ndarray:
        return self._dense.eval_shifted(self._t0 + t + self._eta, deriv=True)


def plane_wave_history(wave, spec: LatticeSpec) -> FunctionHistory:
    """Exact Stuart-Landau plane-wave history
    z[m,n](t) = a*exp(i*(Omega*t - k1*m - k2*n))."""
    m = np.arange(spec.rows)[:, None]
    n = np.arange(spec.cols)[None, :]
    phase_space = np.exp(-1j * (wave.wv.k1 * m + wave.wv.k2 * n))

    def f(t):
        return wave.a * np.exp(1j * wave.Omega * t) * phase_space

    def df(t):
        return 1j * wave.Omega * f(t)

    return FunctionHistory(f, df)


# ---------------------------------------------------------------------------
# dense output and trajectories

def _hermite_weights(th, dt: float):
    """Weights of y0, f0, y1, f1 in the cubic Hermite interpolant through
    (y0, f0) and (y1, f1) one step dt apart, at fraction th of the step."""
    t2 = th * th
    t3 = t2 * th
    return (2 * t3 - 3 * t2 + 1, (t3 - 2 * t2 + th) * dt,
            -2 * t3 + 3 * t2, (t3 - t2) * dt)


def _hermite(th, y0, f0, y1, f1, dt: float, deriv: bool = False):
    """Cubic Hermite interpolant at fraction th of the step; with ``deriv``
    its time derivative."""
    if deriv:
        t2 = th * th
        d00 = (6 * t2 - 6 * th) / dt
        return (d00 * y0 + (3 * t2 - 4 * th + 1) * f0 - d00 * y1
                + (3 * t2 - 2 * th) * f1)
    w0, w1, w2, w3 = _hermite_weights(th, dt)
    return w0 * y0 + w1 * f0 + w2 * y1 + w3 * f1


class DenseOutput:
    """Cubic Hermite interpolant over uniformly stepped (state, deriv)
    samples. Evaluations outside the stored range raise."""

    def __init__(self, t0: float, dt: float, states: np.ndarray,
                 derivs: np.ndarray):
        self.t0 = t0
        self.dt = dt
        self.states = states
        self.derivs = derivs

    @property
    def t_end(self) -> float:
        return self.t0 + (len(self.states) - 1) * self.dt

    def eval_shifted(self, times: np.ndarray, deriv: bool = False):
        """Vectorized per-node lookup: times is an (M, N) array and node
        (m, n) is evaluated at times[m, n]. A stored (1, 1) lattice is
        broadcast over the requested shape."""
        times = np.asarray(times, dtype=float)
        p = (times - self.t0) / self.dt
        k = np.floor(p + 1e-12).astype(int)
        last = len(self.states) - 1
        k = np.where((k == last) & (p - k < 1e-9), k - 1, k)
        if np.any(k < 0) or np.any(k + 1 > last):
            raise SimulationError(
                f"dense output lookup outside [{self.t0}, {self.t_end}]")
        th = p - k
        th = np.where(th < 1e-9, 0.0, th)
        stored = self.states.shape[1:3]
        if stored == times.shape:
            rows, cols = np.indices(times.shape)
            sel = (k, rows, cols)
            sel1 = (k + 1, rows, cols)
        elif stored == (1, 1):
            sel = (k, 0, 0)
            sel1 = (k + 1, 0, 0)
        else:
            raise SimulationError(
                f"cannot broadcast stored lattice {stored} to {times.shape}")
        y0, y1 = self.states[sel], self.states[sel1]
        f0, f1 = self.derivs[sel], self.derivs[sel1]
        if y0.ndim == times.ndim + 1:   # component axis on real-valued models
            th = th[..., None]
        return _hermite(th, y0, f0, y1, f1, self.dt, deriv)


@dataclass
class Trajectory:
    """Recorded lattice snapshots plus optional per-node event times."""
    times: np.ndarray
    snapshots: np.ndarray            # (n_rec, M, N, d)
    dt: float
    record_every: int
    spikes: Optional[list] = None    # spikes[m][n] -> array of event times
    dense: Optional[DenseOutput] = None

    @property
    def shape(self):
        return self.snapshots.shape[1:3]


# ---------------------------------------------------------------------------
# right-hand sides
#
# The kernel holds the state as a (d, M*N) array, one row per component:
# z (complex) for Stuart-Landau, v, w, s for FitzHugh-Nagumo. The coupling
# reads only the coupled channel: z, or the gate s (row 2).


def _make_rhs(spec: LatticeSpec):
    """rhs(y, x, out) writes dy/dt into ``out``, given the rows of the
    kernel state y and the delayed up + left neighbor sum x of the coupled
    channel; ``out`` is a sequence of rows too."""
    C = spec.coupling
    if spec.model is Model.STUART_LANDAU:
        p: SLParams = spec.params
        mu = complex(p.alpha, p.beta)

        def rhs(y, x, out):
            z, = y
            np.add(mu * z - z * (z.real ** 2 + z.imag ** 2), 0.5 * C * x,
                   out=out[0])

        return rhs
    p: FHNParams = spec.params
    # 0-d arrays are cheaper ufunc operands than Python floats
    I, a, b, eps, v_r, half_C = (np.array(c, dtype=float) for c in
                                 (p.I, p.a, p.b, p.eps, p.v_r, 0.5 * C))
    t = np.empty(spec.rows * spec.cols)

    def rhs(y, x, out):
        v, rec, s = y
        dv, drec, ds = out
        # v - v**3/3 - w + I + C/2 (v_r - v) x
        np.divide(np.power(v, 3, t), 3.0, t)
        np.subtract(v, t, dv)
        np.subtract(dv, rec, dv)
        np.add(dv, I, dv)
        np.multiply(half_C, np.subtract(v_r, v, t), t)
        np.add(dv, np.multiply(t, x, t), dv)
        # eps (v + a - b w)
        np.subtract(np.add(v, a, drec), np.multiply(b, rec, t), drec)
        np.multiply(drec, eps, drec)
        # alpha(v) (1 - s) - 0.6 s
        np.multiply(np.subtract(1.0, s, ds), gate_rate(v, t), ds)
        np.subtract(ds, np.multiply(0.6, s, t), ds)

    return rhs


def _to_snapshot(y: np.ndarray, model: Model) -> np.ndarray:
    """(M, N, d) state with a complex z stored as (re, im) components."""
    if model is Model.STUART_LANDAU:
        return np.concatenate([y.real, y.imag], axis=-1)
    return y


def _from_snapshot(arr, model: Model) -> np.ndarray:
    """A history sample as an (..., d) array: complex z for Stuart-Landau
    (given complex, or as (re, im) components), (v, w, s) for FHN."""
    arr = np.asarray(arr)
    if model is Model.STUART_LANDAU:
        if not np.iscomplexobj(arr):
            arr = arr[..., 0] + 1j * arr[..., 1]
        return arr[..., None]
    return arr


# ---------------------------------------------------------------------------
# the integrator

def _coupling_reader(ring: np.ndarray, delays: DelayMap, dt: float, H: int,
                     offsets: tuple):
    """read(phase) -> (len(offsets), M*N) array: the delayed up + left
    neighbor sums of the coupled channel at the RK4 stage offsets c of step
    n, given the ring phase n % D.

    The flat ring index and the Hermite weight of every read are
    precomputed, shaped (stage, read y0 f0 y1 f1, edge up/left, node): a
    read at time j*dt sits in slot j + H at step 0, and step n shifts it by
    n*2*M*N modulo the ring size, which ``take`` wraps. Each sum is
    w0 y0 + w1 f0 + w2 y1 + w3 f1 per edge, added left to right as in
    ``_hermite``, then up + left."""
    MN = ring.shape[2]
    node = np.arange(MN).reshape(delays.down.shape)
    src = np.stack([np.roll(node, 1, axis=0),
                    np.roll(node, 1, axis=1)]).reshape(2, MN)
    tau = np.stack([delays.down, delays.right]).reshape(2, MN)
    idx = np.empty((len(offsets), 4, 2, MN), dtype=np.intp)
    wts = np.empty(idx.shape)
    for i, c in enumerate(offsets):
        p = c - tau / dt
        base = np.floor(p + 1e-12).astype(int)
        th = p - base
        # snap grid-aligned lookups for exact reads
        wts[i] = _hermite_weights(np.where(th < 1e-9, 0.0, th), dt)
        for r in range(4):   # y0, f0 at base; y1, f1 at base + 1
            idx[i, r] = (base + H + r // 2) * 2 * MN + (r % 2) * MN + src
    flat = ring.reshape(-1)
    at = np.empty_like(idx)   # idx + shift < 2 * ring size: one wrap at most
    g = np.empty(idx.shape, dtype=ring.dtype)
    y0, f0, y1, f1 = (g[:, r] for r in range(4))
    edges = np.empty(y0.shape, dtype=ring.dtype)
    out = np.empty((len(offsets), MN), dtype=ring.dtype)

    def read(phase: int) -> np.ndarray:
        flat.take(np.add(idx, phase * 2 * MN, at), out=g, mode="wrap")
        np.multiply(g, wts, g)
        np.add(np.add(np.add(y0, f0, edges), y1, edges), f1, edges)
        return np.add(edges[:, 0], edges[:, 1], out)

    return read


def simulate(spec: LatticeSpec, delays: DelayMap, init, t_end: float,
             dt: Optional[float] = None, record_every: int = 1,
             store_full: bool = False) -> Trajectory:
    """Integrate the lattice DDE from the given history up to t_end.

    ``init`` must provide ``state(t)`` and ``deriv(t)`` on [-max_delay, 0]
    returning (M, N) complex arrays for Stuart-Landau or (M, N, 3) arrays
    for FitzHugh-Nagumo. Snapshots are recorded every ``record_every``
    steps; with ``store_full`` the trajectory carries a dense interpolant
    over the whole run including the history interval.
    """
    if t_end <= 0:
        raise ValueError("t_end must be > 0")
    if delays.down.shape != (spec.rows, spec.cols):
        raise ValueError("delay map shape does not match the lattice")
    min_delay = delays.min_delay
    if dt is None:
        dt = min(DEFAULT_DT_CAP, min_delay / 8.0)
    if dt <= 0 or dt > min_delay / 4.0:
        raise ValueError(
            f"dt={dt} invalid: need 0 < dt <= min_delay/4 = {min_delay / 4.0}")

    M, N = spec.rows, spec.cols
    MN = M * N
    model = spec.model
    sl = model is Model.STUART_LANDAU
    dtype, d, ch = (complex, 1, 0) if sl else (float, 3, 2)
    n_steps = int(math.ceil(t_end / dt - 1e-9))
    H = int(math.ceil(delays.max_delay / dt)) + 2
    D = H + 4

    # ring of the coupled channel: slot (n + H) % D holds its value and
    # derivative at time n*dt
    ring = np.zeros((D, 2, MN), dtype=dtype)
    read_start = _coupling_reader(ring, delays, dt, H, (0.0,))
    read_step = _coupling_reader(ring, delays, dt, H, (0.5, 1.0))

    if store_full:
        full = np.zeros((2, H + n_steps + 1, M, N, d), dtype=dtype)

    # prefill the history interval [-H*dt, 0]
    ring4 = ring.reshape(D, 2, M, N)
    for n in range(-H, 1):
        t = n * dt
        state = _from_snapshot(init.state(t), model)
        ring4[n + H, 0] = state[..., ch]
        if store_full:
            full[0, n + H] = state
        if n < 0:
            deriv = _from_snapshot(init.deriv(t), model)
            ring4[n + H, 1] = deriv[..., ch]
            if store_full:
                full[1, n + H] = deriv

    # kernel states, their rows, and their (M, N, d) lattice views
    y, yt, k1, k2, k3, k4 = bufs = np.empty((6, d, MN), dtype=dtype)
    Y, YT, K1, K2, K3, K4 = (tuple(b) for b in bufs)
    y_lat, k1_lat = (b.T.reshape(M, N, d) for b in (y, k1))
    y_lat[...] = state          # the t = 0 sample
    rhs = _make_rhs(spec)
    rhs(Y, read_start(0)[0], K1)
    ring[H, 1] = K1[ch]
    if store_full:
        full[1, H] = k1_lat

    n_rec = 1 + n_steps // record_every + (n_steps % record_every > 0)
    rec_times = np.empty(n_rec)
    rec_snaps = np.empty((n_rec, M, N, spec.state_dim))
    rec_times[0] = 0.0
    rec_snaps[0] = _to_snapshot(y_lat, model)
    i_rec = 0

    h2, h6 = 0.5 * dt, dt / 6.0
    for n in range(n_steps):
        x_half, x_one = read_step(n % D)
        np.add(y, np.multiply(h2, k1, yt), yt)
        rhs(YT, x_half, K2)
        np.add(y, np.multiply(h2, k2, yt), yt)
        rhs(YT, x_half, K3)
        np.add(y, np.multiply(dt, k3, yt), yt)
        rhs(YT, x_one, K4)
        # y += dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
        np.add(k1, np.multiply(2.0, k2, yt), yt)
        np.add(yt, np.multiply(2.0, k3, k2), yt)
        np.add(yt, k4, yt)
        np.add(y, np.multiply(h6, yt, yt), y)
        rhs(Y, x_one, K1)   # derivative at t_{n+1}; reused as next k1
        slot = (n + 1 + H) % D
        ring[slot, 0] = Y[ch]
        ring[slot, 1] = K1[ch]
        if store_full:
            full[0, n + 1 + H], full[1, n + 1 + H] = y_lat, k1_lat

        if (n + 1) % 64 == 0:
            finite = np.isfinite(np.abs(y)).all(axis=0)
            if not finite.all():
                node = divmod(int(np.flatnonzero(~finite)[0]), N)
                raise SimulationError(
                    f"non-finite state at t={(n + 1) * dt:.6g}, node {node}")
        if (n + 1) % record_every == 0 or n + 1 == n_steps:
            i_rec += 1
            rec_times[i_rec] = (n + 1) * dt
            rec_snaps[i_rec] = _to_snapshot(y_lat, model)

    dense = None
    if store_full:
        if sl:
            full = full[..., 0]
        dense = DenseOutput(t0=-H * dt, dt=dt, states=full[0], derivs=full[1])
    return Trajectory(times=rec_times, snapshots=rec_snaps,
                      dt=dt, record_every=record_every, dense=dense)


# ---------------------------------------------------------------------------
# observables

def detect_spikes(traj: Trajectory, component: int = 0,
                  threshold: float = 0.0,
                  refractory: float = SPIKE_REFRACTORY) -> list:
    """Per-node upward threshold crossings, linearly interpolated between
    recorded samples. Returns nested lists spikes[m][n] of event times."""
    t = traj.times
    M, N = traj.shape
    x = np.moveaxis(traj.snapshots[..., component], 0, -1)   # (M, N, time)
    # crossings of all nodes at once, ordered by node and then by time
    m, n, k = np.nonzero((x[..., :-1] <= threshold) & (x[..., 1:] > threshold))
    x0, x1 = x[m, n, k], x[m, n, k + 1]
    frac = (threshold - x0) / (x1 - x0)
    times = t[k] + frac * (t[k + 1] - t[k])
    ends = np.cumsum(np.bincount(m * N + n, minlength=M * N))
    runs = iter(np.split(times, ends[:-1]))
    out = [[_refractory_filter(next(runs), refractory) for _ in range(N)]
           for _ in range(M)]
    traj.spikes = out
    return out


def _refractory_filter(events: np.ndarray, refractory: float) -> np.ndarray:
    """Drop each event closer than ``refractory`` to the last one kept."""
    if np.all(np.diff(events) >= refractory):
        return events
    kept = [events[0]]
    for ev in events[1:]:
        if ev - kept[-1] >= refractory:
            kept.append(ev)
    return np.array(kept)


class InsufficientDataError(RuntimeError):
    pass


def _reference_events(traj: Trajectory, t_discard: float) -> np.ndarray:
    """Upward zero crossings of component 0 at node (0, 0) from t_discard
    on; detected first if the trajectory has no spikes yet."""
    if traj.spikes is None:
        detect_spikes(traj)
    events = np.asarray(traj.spikes[0][0])
    return events[events >= t_discard]


def estimate_period(traj: Trajectory, t_discard: float) -> tuple:
    """Mean inter-event interval of node (0, 0) after the transient, with
    the standard deviation of the intervals. Needs >= 3 events."""
    events = _reference_events(traj, t_discard)
    if len(events) < 3:
        raise InsufficientDataError(
            f"only {len(events)} events after t={t_discard}; need >= 3")
    intervals = np.diff(events)
    return float(np.mean(intervals)), float(np.std(intervals))


def estimate_orbit_period(traj: Trajectory, t_discard: float) -> float:
    """Full orbit period of a possibly multi-pulse periodic orbit at node
    (0, 0).

    The mean inter-event interval is wrong for orbits with several spikes
    per period at unequal spacing; here the smallest block length p whose
    interval sequence repeats to within 0.02 is found and the period is the
    mean sum of p consecutive intervals."""
    events = _reference_events(traj, t_discard)
    if len(events) < 4:
        raise InsufficientDataError(
            f"only {len(events)} events after t={t_discard}; need >= 4")
    isis = np.diff(events)
    for p in range(1, len(isis) // 2 + 1):
        if np.max(np.abs(isis[p:] - isis[:-p])) < 0.02:
            blocks = [isis[i:i + p].sum() for i in range(0, len(isis) - p + 1, p)]
            return float(np.mean(blocks))
    raise InsufficientDataError(
        "interval sequence shows no periodic block structure")
