"""Fixed-step RK4 integrator for the delay-coupled lattice.

Delayed neighbor values are read through cubic Hermite interpolation of
(value, derivative) samples at uniform step dt, which keeps the scheme 4th
order for smooth history. Per-edge heterogeneous delays are supported.

The samples live in one store shaped (S, 2, c, M, N): slot, value or
derivative, component, node; slot (n + H) % S holds time n*dt, for
H = ceil(max_delay/dt) + 2. By default it is a ring of S = H + 4 slots of
the one channel the coupling reads (z for Stuart-Landau, the gate s for
FitzHugh-Nagumo); with ``store_full`` it holds every component of every
step instead, S = H + n_steps + 1, and is the run's ``DenseOutput``. As
delays are constant, the flat index and Hermite weight of every read are
precomputed for the RK4 stage offsets 1/2 and 1; each step makes one
wrapped ``take`` and a weighted sum. A history answers ``state(t)`` and
``deriv(t)`` for times t of any shape, with that shape prepended to the
sample's; ``simulate`` reads it in at least ``HISTORY_SPLIT`` blocks of
at most about ``HISTORY_BLOCK`` node-times. One FitzHugh-Nagumo node (a
reference orbit) steps in Python floats with the same store, reads and
arithmetic, bit for bit, as ufunc dispatch sets the cost of its steps.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import astuple, dataclass
from functools import partialmethod
from typing import Callable, Optional

import numpy as np

from .core import DelayMap, FHNParams, LatticeSpec, Model, SLParams
from .fhn import gate_rate

DEFAULT_DT_CAP = 0.01
SPIKE_COMPONENT = 0
SPIKE_THRESHOLD = 0.0
SPIKE_REFRACTORY = 1.0
HISTORY_BLOCK = 2 ** 14      # node-times per history read, at most
HISTORY_SPLIT = 8            # history reads per interval, at least


class SimulationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# history initializers

class ConstantHistory:
    """Constant state and zero derivative, as read-only broadcast views."""

    def __init__(self, state: np.ndarray):
        self._state = np.asarray(state)
        self._zero = np.zeros((), dtype=self._state.dtype)

    def state(self, t) -> np.ndarray:
        return np.broadcast_to(self._state, np.shape(t) + self._state.shape)

    def deriv(self, t) -> np.ndarray:
        return np.broadcast_to(self._zero, np.shape(t) + self._state.shape)


class FunctionHistory:
    """History from callables f(t) -> (M, N, d) array and its derivative
    df(t) of one scalar time, called once per time as a Python float."""

    def __init__(self, f: Callable, df: Callable):
        self._f, self._df = f, df

    def _read(self, t, deriv: bool) -> np.ndarray:
        f = self._df if deriv else self._f
        out = np.array([f(s) for s in np.ravel(t).astype(float).tolist()])
        return out.reshape(np.shape(t) + out.shape[1:])

    state = partialmethod(_read, deriv=False)
    deriv = partialmethod(_read, deriv=True)


class ShiftedReplayHistory:
    """History replayed from the dense output of a reference run, with a
    per-node time shift: state(t)[m,n] = ref(t_align + t + eta[m,n])[m,n],
    for times t of any shape in one lookup. A (1, 1)-node reference (e.g. a
    synchronized orbit of one self-coupled node) is broadcast over the
    lattice, and each distinct shift (at most 256 from an 8-bit image) is
    looked up once."""

    def __init__(self, dense: "DenseOutput", t_align: float, eta: np.ndarray):
        self._dense, self._t0 = dense, t_align
        self._eta, self._node = np.asarray(eta, dtype=float), None
        if dense.samples.shape[-2:] == (1, 1):
            self._eta, node = np.unique(self._eta, return_inverse=True)
            self._node = node.reshape(np.shape(eta))

    def _read(self, t, deriv: bool) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = self._dense.eval_shifted(np.add.outer(self._t0 + t, self._eta),
                                       deriv)
        return out if self._node is None else out.take(self._node, axis=t.ndim)

    state = partialmethod(_read, deriv=False)
    deriv = partialmethod(_read, deriv=True)


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

def _grid_split(p):
    """Step k and fraction th of grid positions p = t/dt, for every read
    and the step count. A position just below or a hair above a grid point
    is on it: th = 0, an exact read."""
    k = np.floor(p + 1e-12).astype(int)
    th = p - k
    return k, np.where(th < 1e-9, 0.0, th)


def _hermite_weights(th, dt: float, deriv: bool = False):
    """Weights of y0, f0, y1, f1 in the cubic Hermite interpolant through
    (y0, f0) and (y1, f1) one step dt apart, at fraction th of the step;
    with ``deriv`` the weights of its time derivative."""
    t2 = th * th
    if deriv:
        d00 = (6 * t2 - 6 * th) / dt
        return d00, 3 * t2 - 4 * th + 1, -d00, 3 * t2 - 2 * th
    t3 = t2 * th
    return (2 * t3 - 3 * t2 + 1, (t3 - 2 * t2 + th) * dt,
            -2 * t3 + 3 * t2, (t3 - t2) * dt)


def _read_index(k, at, stride: int):
    """Flat store index of y0, f0, y1, f1 (stacked first) for step k: slot k
    starts at 2*k*stride, its derivative half at stride after, and ``at``
    adds the component and node."""
    r = np.arange(4).reshape((4,) + (1,) * np.ndim(k))
    return (2 * k + r) * stride + at


class DenseOutput:
    """Cubic Hermite interpolant over the (S, 2, c, M, N) sample store of a
    whole run, from time t0 in steps of dt. A one-component store (the
    complex z of Stuart-Landau) is read without the component axis.
    Evaluations outside the stored range raise."""

    def __init__(self, t0: float, dt: float, samples: np.ndarray):
        self.t0 = t0
        self.dt = dt
        self.samples = samples

    @property
    def t_end(self) -> float:
        return self.t0 + (len(self.samples) - 1) * self.dt

    def eval_shifted(self, times: np.ndarray, deriv: bool = False):
        """Vectorized per-node lookup: times is an (..., M, N) array and
        node (m, n) is evaluated at times[..., m, n]. A stored (1, 1)
        lattice is broadcast over the requested shape."""
        times = np.asarray(times, dtype=float)
        S, _, c, M, N = self.samples.shape
        k, th = _grid_split((times - self.t0) / self.dt)
        end = (k == S - 1) & (th == 0)   # the last sample ends the last step
        k, th = k - end, np.where(end, 1.0, th)
        if np.any(k < 0) or np.any(k + 1 >= S):
            raise SimulationError(
                f"dense output lookup outside [{self.t0}, {self.t_end}]")
        if (M, N) == times.shape[-2:]:
            node = np.arange(M * N).reshape(M, N)
        elif (M, N) == (1, 1):
            node = 0
        else:
            raise SimulationError(
                f"cannot broadcast stored lattice {(M, N)} to {times.shape}")
        # gathered component-major, so every loop runs along the nodes
        comp = np.arange(c).reshape((c,) + (1,) * k.ndim) * (M * N)
        y0, f0, y1, f1 = self.samples.reshape(-1).take(
            _read_index(k[None], comp + node, c * M * N))
        w0, w1, w2, w3 = _hermite_weights(th, self.dt, deriv)
        out = w0 * y0 + w1 * f0 + w2 * y1 + w3 * f1
        return out[0] if c == 1 else np.moveaxis(out, 0, -1)


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
# Small lattices pay for ufunc dispatch: ufuncs are local names, constants
# are 0-d arrays, and no output overlaps an input (numpy's path for that is
# slower) except in the final y update. v**3 is two multiplies: np.power
# is tens of times slower on a row of doubles. One FHN node skips dispatch
# with the same operations on Python floats, but numpy's exp: math.exp
# rounds 1 argument in 20 differently from numpy's AVX-512 exp.


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
    I, a, b, eps, v_r, half_C, three, one, decay = (np.array(float(c)) for c in
        (p.I, p.a, p.b, p.eps, p.v_r, 0.5 * C, 3.0, 1.0, 0.6))
    t, u, r = np.empty((3, spec.rows * spec.cols))
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide

    def rhs(y, x, out):
        v, w, s = y
        dv, dw, ds = out
        # v - v**3/3 - w + I + C/2 (v_r - v) x
        div(mul(mul(v, v, u), v, t), three, u)
        add(sub(sub(v, u, t), w, u), I, t)
        mul(half_C, sub(v_r, v, u), r)
        add(t, mul(r, x, u), dv)
        # eps (v + a - b w)
        mul(sub(add(v, a, t), mul(b, w, u), r), eps, dw)
        # alpha(v) (1 - s) - 0.6 s
        mul(sub(one, s, t), gate_rate(v, u, r), r)
        sub(r, mul(decay, s, t), ds)

    return rhs


def _one_node_rhs(spec: LatticeSpec):
    """rhs(v, w, s, x) -> dy/dt of one FHN node in Python floats, given its
    state and delayed sum x: ``_make_rhs`` operation for operation."""
    I, a, b, eps, v_r, C = map(float, (*astuple(spec.params), spec.coupling))

    def rhs(v, w, s, x):
        alpha = 0.5 / (1.0 + float(np.exp(-5.0 * (v - 1.0))))
        return (v - v * v * v / 3.0 - w + I + 0.5 * C * (v_r - v) * x,
                (v + a - b * w) * eps, (1.0 - s) * alpha - 0.6 * s)

    return rhs


# ---------------------------------------------------------------------------
# the integrator

def _coupling_taps(store: np.ndarray, channel: int, delays: DelayMap,
                   dt: float, H: int):
    """(idx, wts): the flat index into the (S, 2, c, M, N) store and the
    Hermite weight of every delayed read of component ``channel``, shaped
    (read y0 f0 y1 f1, stage offset 1/2 or 1, edge up/left, node). A read at
    time j*dt sits in slot j + H at step 0; step n shifts it by n slots
    modulo the store size. Each sum is w0 y0 + w1 f0 + w2 y1 + w3 f1 per
    edge, added left to right as in ``DenseOutput``, then up + left."""
    MN = delays.down.size
    node = np.arange(MN).reshape(delays.down.shape)
    src = np.stack([np.roll(node, 1, axis) for axis in (0, 1)]).reshape(2, MN)
    tau = np.stack([delays.down, delays.right]).reshape(2, MN)
    base, th = _grid_split(np.array([0.5, 1.0])[:, None, None] - tau / dt)
    return (_read_index(base + H, channel * MN + src, store[0, 0].size),
            np.array(_hermite_weights(th, dt)))


def _coupling_reader(store: np.ndarray, idx: np.ndarray, wts: np.ndarray):
    """(read, x_half, x_one): read(phase) writes into the M*N arrays x_half
    and x_one the sums of the taps at the RK4 stage offsets 1/2 and 1 of
    step n, given its store phase n % S; phase S - 1 gives x_one at t = 0."""
    flat, shift = store.reshape(-1), store[0].size   # shift: one slot
    at = np.empty_like(idx)   # idx + shift < 2 * store size: one wrap at most
    g, gw = np.empty((2,) + idx.shape, dtype=store.dtype)
    y0, f0, y1, f1 = gw
    e, e2 = np.empty((2,) + y0.shape, dtype=store.dtype)
    out = np.empty_like(e[:, 0])
    add, mul = np.add, np.multiply

    def read(phase: int) -> None:
        flat.take(add(idx, phase * shift, at), out=g, mode="wrap")
        mul(g, wts, gw)
        add(add(add(y0, f0, e), y1, e2), f1, e)
        add(e[:, 0], e[:, 1], out)

    return read, out[0], out[1]


def _step_one_node(rhs, store, idx, wts, y, k1, dt, H, n_steps, settle):
    """The kernel's steps for one node in Python floats, operation for
    operation, from y and k1 at t = 0; each step writes store, then settles."""
    S, _, c = store.shape[:3]
    flat, L = memoryview(store.reshape(-1)), store.size
    taps = [*zip(*idx.reshape(4, 4).tolist(), *wts.reshape(4, 4).tolist())]
    for n in range(n_steps):
        o = 2 * c * n
        e = [w0 * flat[(i0 + o) % L] + w1 * flat[(i1 + o) % L]
             + w2 * flat[(i2 + o) % L] + w3 * flat[(i3 + o) % L]
             for i0, i1, i2, i3, w0, w1, w2, w3 in taps]
        x_half, x_one = e[0] + e[1], e[2] + e[3]
        k2 = rhs(*[u + 0.5 * dt * k for u, k in zip(y, k1)], x_half)
        k3 = rhs(*[u + 0.5 * dt * k for u, k in zip(y, k2)], x_half)
        k4 = rhs(*[u + dt * k for u, k in zip(y, k3)], x_one)
        y = [u + dt / 6.0 * (k + 2.0 * q + 2.0 * r + z)
             for u, k, q, r, z in zip(y, k1, k2, k3, k4)]
        k1 = rhs(*y, x_one)
        j = (n + 1 + H) % S * 2 * c
        flat[j:j + 2 * c] = array("d", (*y[3 - c:], *k1[3 - c:]))
        settle(n + 1, [[y]])


def step_size(dt: Optional[float], min_delay: float) -> float:
    """The RK4 step: min(DEFAULT_DT_CAP, min_delay/8) when ``dt`` is None,
    else ``dt``, which must satisfy 0 < dt <= min_delay/4."""
    if dt is None:
        return min(DEFAULT_DT_CAP, min_delay / 8.0)
    if not 0 < dt <= min_delay / 4.0:
        raise ValueError(
            f"dt={dt} invalid: need 0 < dt <= min_delay/4 = {min_delay / 4.0}")
    return dt


def simulate(spec: LatticeSpec, delays: DelayMap, init, t_end: float,
             dt: Optional[float] = None, record_every: int = 1,
             store_full: bool = False) -> Trajectory:
    """Integrate the lattice DDE from the given history up to t_end.

    ``init`` is a history on [-max_delay, 0] whose samples are (M, N)
    complex arrays for Stuart-Landau (a real one has Im z = 0) or (M, N, 3)
    arrays for FitzHugh-Nagumo. Snapshots are recorded every
    ``record_every`` steps, z as its (re, im) pair; with ``store_full`` the
    trajectory carries a dense interpolant over the whole run including
    the history interval.
    """
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end={t_end} invalid: need a finite t_end > 0")
    if record_every < 1:
        raise ValueError(f"record_every={record_every} invalid: need >= 1")
    if delays.down.shape != (spec.rows, spec.cols):
        raise ValueError("delay map shape does not match the lattice")
    dt = step_size(dt, delays.min_delay)

    M, N, model = spec.rows, spec.cols, spec.model
    MN = M * N
    dtype, d, ch = ((complex, 1, 0) if model is Model.STUART_LANDAU
                    else (float, 3, 2))
    k_end, th_end = _grid_split(t_end / dt)
    n_steps = int(k_end) + int(th_end > 0)
    H = int(math.ceil(delays.max_delay / dt)) + 2

    # the sample store: slot (n + H) % S holds time n*dt; the coupled
    # channel in a ring, or every component of the whole run
    S, chans = ((H + n_steps + 1, slice(None)) if store_full
                else (H + 4, slice(ch, ch + 1)))
    store = np.zeros((S, 2, d if store_full else 1, M, N), dtype=dtype)
    idx, wts = _coupling_taps(store, ch if store_full else 0, delays, dt, H)
    read, x_half, x_one = _coupling_reader(store, idx, wts)
    slots = store.reshape(S, 2, -1, MN)

    # kernel states, rows and an (M, N, d) view; y, k1 adjacent: one write
    bufs = np.empty((7, d, MN), dtype=dtype)
    y, k1, yt, k2, k3, k4, u = bufs
    Y, K1, YT, K2, K3, K4 = (tuple(b) for b in bufs[:6])
    y_lat = y.T.reshape(M, N, d)

    # prefill [-H*dt, 0] in blocks; the derivative at t = 0 comes from rhs
    block = max(1, min(HISTORY_BLOCK // MN,
                       math.ceil((H + 1) / HISTORY_SPLIT)))
    for i, (hist, end) in enumerate(((init.state, 1), (init.deriv, 0))):
        for lo in range(-H, end, block):
            hi = min(lo + block, end)
            sample = np.asarray(hist(np.arange(lo, hi) * dt),
                                dtype=dtype).reshape(hi - lo, M, N, d)
            store[lo + H:hi + H, i] = np.moveaxis(sample[..., chans], -1, 1)
        if end:   # the state block ends with the t = 0 sample
            y_lat[...] = sample[-1]
    rhs = _make_rhs(spec)
    read(S - 1)
    rhs(Y, x_one, K1)
    slots[H, 1] = k1[chans]

    rec_times = np.append(np.arange(0, n_steps, record_every), n_steps) * dt
    rec_snaps = np.empty((len(rec_times), M, N, d), dtype=dtype)
    rec_snaps[0] = y_lat

    def settle(n1: int, state) -> None:
        """Check and record the (M, N, d) state at t = n1*dt when due."""
        if n1 % 64 == 0 or n1 == n_steps:
            bad = np.argwhere(~np.isfinite(np.abs(state)).all(axis=-1))
            if len(bad):
                raise SimulationError(f"non-finite state at t={n1 * dt:.6g}, "
                                      f"node {tuple(bad[0].tolist())}")
        if n1 % record_every == 0 or n1 == n_steps:
            rec_snaps[-(-n1 // record_every)] = state

    if MN == 1 and model is Model.FITZHUGH_NAGUMO:
        _step_one_node(_one_node_rhs(spec), store, idx, wts,
                       *bufs[:2, :, 0].tolist(), dt, H, n_steps, settle)
    else:
        h2, h6, h1, two = map(np.array, (0.5 * dt, dt / 6.0, dt, 2.0))
        add, mul = np.add, np.multiply
        for n in range(n_steps):
            read(n % S)
            add(y, mul(h2, k1, u), yt)
            rhs(YT, x_half, K2)
            add(y, mul(h2, k2, u), yt)
            rhs(YT, x_half, K3)
            add(y, mul(h1, k3, u), yt)
            rhs(YT, x_one, K4)
            # y += dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
            add(k1, mul(two, k2, u), yt)
            add(yt, mul(two, k3, u), k2)
            add(k2, k4, yt)
            add(y, mul(h6, yt, u), y)
            rhs(Y, x_one, K1)   # derivative at t_{n+1}; reused as next k1
            slots[(n + 1 + H) % S] = bufs[:2, chans]
            settle(n + 1, y_lat)

    dense = DenseOutput(-H * dt, dt, store) if store_full else None
    return Trajectory(times=rec_times, snapshots=rec_snaps.view(float),
                      dt=dt, record_every=record_every, dense=dense)


# ---------------------------------------------------------------------------
# observables

def detect_spikes(traj: Trajectory) -> list:
    """Per-node upward crossings of ``SPIKE_THRESHOLD`` by component
    ``SPIKE_COMPONENT``, linearly interpolated between recorded samples,
    each at least ``SPIKE_REFRACTORY`` after the last one kept. Returns
    nested lists spikes[m][n] of event times and caches them as
    ``traj.spikes``."""
    t = traj.times
    M, N = traj.shape
    x = np.moveaxis(traj.snapshots[..., SPIKE_COMPONENT], 0, -1)  # (M, N, t)
    # crossings of all nodes at once, ordered by node and then by time
    m, n, k = np.nonzero((x[..., :-1] <= SPIKE_THRESHOLD)
                         & (x[..., 1:] > SPIKE_THRESHOLD))
    x0, x1 = x[m, n, k], x[m, n, k + 1]
    frac = (SPIKE_THRESHOLD - x0) / (x1 - x0)
    times = t[k] + frac * (t[k + 1] - t[k])
    ends = np.cumsum(np.bincount(m * N + n, minlength=M * N))
    runs = iter(np.split(times, ends[:-1]))
    traj.spikes = [[_refractory_filter(next(runs)) for _ in range(N)]
                   for _ in range(M)]
    return traj.spikes


def _refractory_filter(events: np.ndarray) -> np.ndarray:
    """Drop each event closer than ``SPIKE_REFRACTORY`` to the last one
    kept."""
    kept = events[:1].tolist()
    for ev in events[1:].tolist():
        if ev - kept[-1] >= SPIKE_REFRACTORY:
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
