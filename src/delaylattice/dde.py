"""Fixed-step RK4 integrator for the delay-coupled lattice.

History is kept in a ring of (state, derivative) samples at uniform step
dt; delayed neighbor values are read through cubic Hermite interpolation,
which keeps the scheme 4th order for smooth history. Per-edge heterogeneous
delays are supported; interpolation offsets are precomputed per edge since
delays are constant in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """History from a callable t -> (M, N, d) array; derivative either
    supplied or taken by central differences."""

    def __init__(self, f: Callable, df: Optional[Callable] = None,
                 fd_step: float = 1e-6):
        self._f = f
        self._df = df
        self._h = fd_step

    def state(self, t: float) -> np.ndarray:
        return self._f(t)

    def deriv(self, t: float) -> np.ndarray:
        if self._df is not None:
            return self._df(t)
        return (self._f(t + self._h) - self._f(t - self._h)) / (2.0 * self._h)


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

def _hermite(th, y0, f0, y1, f1, dt: float, deriv: bool = False):
    """Cubic Hermite interpolant through (y0, f0) and (y1, f1) one step dt
    apart, at fraction th of the step; with ``deriv`` its time derivative."""
    t2 = th * th
    if deriv:
        d00 = (6 * t2 - 6 * th) / dt
        return (d00 * y0 + (3 * t2 - 4 * th + 1) * f0 - d00 * y1
                + (3 * t2 - 2 * th) * f1)
    t3 = t2 * th
    return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + th) * dt * f0
            + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * dt * f1)


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

    def __call__(self, t: float, deriv: bool = False) -> np.ndarray:
        p = (t - self.t0) / self.dt
        k = int(math.floor(p + 1e-12))
        if k == len(self.states) - 1 and p - k < 1e-9:
            k -= 1
        if k < 0 or k + 1 >= len(self.states):
            raise SimulationError(
                f"dense output lookup at t={t} outside "
                f"[{self.t0}, {self.t_end}]")
        return _hermite(p - k, self.states[k], self.derivs[k],
                        self.states[k + 1], self.derivs[k + 1], self.dt, deriv)

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

def _make_rhs(spec: LatticeSpec):
    C = spec.coupling
    if spec.model is Model.STUART_LANDAU:
        p: SLParams = spec.params
        mu = complex(p.alpha, p.beta)

        def rhs(y, w):
            # y complex (M,N); w = delayed up + left neighbor sum
            return mu * y - y * (y.real ** 2 + y.imag ** 2) + 0.5 * C * w

        return rhs
    p: FHNParams = spec.params

    def rhs(y, w):
        # y real (M,N,3); w[..., 2] carries the delayed gating sum
        v, rec, s = y[..., 0], y[..., 1], y[..., 2]
        s_in = w[..., 2]
        out = np.empty_like(y)
        out[..., 0] = (v - v ** 3 / 3.0 - rec + p.I
                       + 0.5 * C * (p.v_r - v) * s_in)
        out[..., 1] = p.eps * (v + p.a - p.b * rec)
        out[..., 2] = gate_rate(v) * (1.0 - s) - 0.6 * s
        return out

    return rhs


def _to_snapshot(y: np.ndarray, model: Model) -> np.ndarray:
    if model is Model.STUART_LANDAU:
        return np.stack([y.real, y.imag], axis=-1)
    return y.copy()


def _from_snapshot(arr: np.ndarray, model: Model) -> np.ndarray:
    if model is Model.STUART_LANDAU:
        if np.iscomplexobj(arr):
            return np.array(arr)
        return arr[..., 0] + 1j * arr[..., 1]
    return np.array(arr)


# ---------------------------------------------------------------------------
# the integrator

class _EdgeLookup:
    """Precomputed Hermite gather for one delayed edge family at the three
    RK4 stage offsets (0, 1/2, 1)."""

    def __init__(self, tau: np.ndarray, dt: float, roll_axis: int,
                 M: int, N: int):
        self.rows = np.arange(M)[:, None] * np.ones(N, dtype=int)[None, :]
        self.cols = np.ones(M, dtype=int)[:, None] * np.arange(N)[None, :]
        if roll_axis == 0:
            self.rows = (self.rows - 1) % M
        else:
            self.cols = (self.cols - 1) % N
        self.offsets = []
        self.thetas = []
        for c in (0.0, 0.5, 1.0):
            p = c - tau / dt
            base = np.floor(p + 1e-12).astype(int)
            th = p - base
            # snap grid-aligned lookups for exact reads
            snap = th < 1e-9
            th = np.where(snap, 0.0, th)
            self.offsets.append(base)
            self.thetas.append(th)
        self.dt = dt

    def gather(self, stage: int, n_step: int, slot_of, Y, F):
        base = self.offsets[stage] + n_step
        th = self.thetas[stage]
        k0 = slot_of(base)
        k1 = slot_of(base + 1)
        y0 = Y[k0, self.rows, self.cols]
        y1 = Y[k1, self.rows, self.cols]
        f0 = F[k0, self.rows, self.cols]
        f1 = F[k1, self.rows, self.cols]
        if y0.ndim == 3:  # (M,N,d): broadcast weights over components
            th = th[..., None]
        return _hermite(th, y0, f0, y1, f1, self.dt)


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
    model = spec.model
    n_steps = int(math.ceil(t_end / dt - 1e-9))
    H = int(math.ceil(delays.max_delay / dt)) + 2

    if store_full:
        D = H + n_steps + 1

        def slot_of(idx):
            return idx + H
    else:
        D = H + 4

        def slot_of(idx):
            return (idx + H) % D

    if model is Model.STUART_LANDAU:
        buf_shape = (D, M, N)
        buf_dtype = complex
    else:
        buf_shape = (D, M, N, 3)
        buf_dtype = float
    Y = np.zeros(buf_shape, dtype=buf_dtype)
    F = np.zeros(buf_shape, dtype=buf_dtype)

    up = _EdgeLookup(delays.down, dt, roll_axis=0, M=M, N=N)
    left = _EdgeLookup(delays.right, dt, roll_axis=1, M=M, N=N)
    rhs = _make_rhs(spec)

    # prefill the history interval [-H*dt, 0]
    for n in range(-H, 1):
        t = n * dt
        Y[slot_of(n)] = _from_snapshot(init.state(t), model)
        if n < 0:
            F[slot_of(n)] = _from_snapshot(init.deriv(t), model)

    def coupling(stage: int, n: int):
        return (up.gather(stage, n, slot_of, Y, F)
                + left.gather(stage, n, slot_of, Y, F))

    y = Y[slot_of(0)].copy()
    F[slot_of(0)] = rhs(y, coupling(0, 0))

    rec_times = [0.0]
    rec_snaps = [_to_snapshot(y, model)]

    k1 = F[slot_of(0)].copy()
    for n in range(n_steps):
        w_half = coupling(1, n)
        w_one = coupling(2, n)
        k2 = rhs(y + 0.5 * dt * k1, w_half)
        k3 = rhs(y + 0.5 * dt * k2, w_half)
        k4 = rhs(y + dt * k3, w_one)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        Y[slot_of(n + 1)] = y
        k1 = rhs(y, w_one)   # derivative at t_{n+1}; reused as next k1
        F[slot_of(n + 1)] = k1

        if (n + 1) % 64 == 0:
            finite = np.isfinite(np.abs(y).reshape(M, N, -1)).all(axis=-1)
            if not finite.all():
                node = tuple(int(i) for i in np.argwhere(~finite)[0])
                raise SimulationError(
                    f"non-finite state at t={(n + 1) * dt:.6g}, node {node}")
        if (n + 1) % record_every == 0 or n + 1 == n_steps:
            rec_times.append((n + 1) * dt)
            rec_snaps.append(_to_snapshot(y, model))

    dense = None
    if store_full:
        dense = DenseOutput(t0=-H * dt, dt=dt, states=Y, derivs=F)
    return Trajectory(times=np.array(rec_times),
                      snapshots=np.array(rec_snaps),
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
    out = []
    for m in range(M):
        row = []
        for n in range(N):
            x = traj.snapshots[:, m, n, component]
            below = x[:-1] <= threshold
            above = x[1:] > threshold
            idx = np.flatnonzero(below & above)
            if len(idx) == 0:
                row.append(np.array([]))
                continue
            frac = (threshold - x[idx]) / (x[idx + 1] - x[idx])
            times = t[idx] + frac * (t[idx + 1] - t[idx])
            events = []
            for ev in times:
                if not events or ev - events[-1] >= refractory:
                    events.append(ev)
            row.append(np.array(events))
        out.append(row)
    traj.spikes = out
    return out


class InsufficientDataError(RuntimeError):
    pass


def estimate_period(traj: Trajectory, t_discard: float,
                    node: tuple = (0, 0), component: int = 0,
                    threshold: float = 0.0) -> tuple:
    """Mean inter-event interval of the reference node after the transient,
    with the standard deviation of the intervals. Needs >= 3 events."""
    if traj.spikes is None:
        detect_spikes(traj, component=component, threshold=threshold)
    events = np.asarray(traj.spikes[node[0]][node[1]])
    events = events[events >= t_discard]
    if len(events) < 3:
        raise InsufficientDataError(
            f"only {len(events)} events after t={t_discard}; need >= 3")
    intervals = np.diff(events)
    return float(np.mean(intervals)), float(np.std(intervals))


def estimate_orbit_period(traj: Trajectory, t_discard: float,
                          node: tuple = (0, 0), component: int = 0,
                          threshold: float = 0.0, tol: float = 0.02) -> float:
    """Full orbit period of a possibly multi-pulse periodic orbit.

    The mean inter-event interval is wrong for orbits with several spikes
    per period at unequal spacing; here the smallest block length p with a
    p-periodic interval sequence is found and the period is the mean sum of
    p consecutive intervals."""
    if traj.spikes is None:
        detect_spikes(traj, component=component, threshold=threshold)
    events = np.asarray(traj.spikes[node[0]][node[1]])
    events = events[events >= t_discard]
    if len(events) < 4:
        raise InsufficientDataError(
            f"only {len(events)} events after t={t_discard}; need >= 4")
    isis = np.diff(events)
    for p in range(1, len(isis) // 2 + 1):
        if np.max(np.abs(isis[p:] - isis[:-p])) < tol:
            blocks = [isis[i:i + p].sum() for i in range(0, len(isis) - p + 1, p)]
            return float(np.mean(blocks))
    raise InsufficientDataError(
        "interval sequence shows no periodic block structure")
