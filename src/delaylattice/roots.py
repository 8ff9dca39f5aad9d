"""Root-finding utilities: one Newton iteration, which runs the sweeps
for quasi-polynomials, polishes real roots and solves the log form of
Lambert W; one bracket refiner for real roots; the Kepler equation for
plane-wave frequencies; and real cubics via the companion matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import check_delay

DEDUP_RADIUS = 1e-8
RESIDUAL_TOL = 1e-10
KEPLER_RESIDUAL_TOL = 1e-12
SWEEP_BLOCK = 2 ** 13        # seeds per block of a stacked Newton sweep, at most
SEED_GRID = (40, 40)         # Newton seeds along Re and Im of a sweep's window


@dataclass
class RootSet:
    """Deduplicated characteristic roots. A Newton sweep also reports its
    number of seeds and how many of them converged; both are 0 where no
    sweep ran."""
    roots: np.ndarray
    tolerance: float
    seeds: int = 0
    converged: int = 0

    def __len__(self):
        return len(self.roots)

    def max_real(self) -> float:
        return float(np.max(self.roots.real, initial=-np.inf))


def _dedup_sorted(roots: np.ndarray, radius: float = DEDUP_RADIUS) -> np.ndarray:
    """The roots, real or complex, in (Re, Im) order, each kept unless it
    lies within ``radius`` of a root kept before it.

    The sorted roots split into runs whose consecutive real parts are at
    most ``radius`` apart. Roots of two runs lie farther apart than that,
    in floating point too, since subtraction and hypot are monotone. So
    each run's first root is kept and strikes the roots near it; the roots
    it leaves go through the strike loop, where every kept root precedes
    all the roots it strikes, so striking them at once keeps the same
    roots as testing each root against all kept ones."""
    roots = roots[np.lexsort((roots.imag, roots.real))]
    keep = np.r_[True, np.diff(roots.real) > radius][:len(roots)]
    first = roots[keep][np.cumsum(keep) - 1]
    rest = np.flatnonzero(np.abs(roots - first) > radius)
    while rest.size:
        keep[rest[0]] = True
        rest = rest[1:][np.abs(roots[rest[1:]] - roots[rest[0]]) > radius]
    return roots[keep]


def newton(fdf: Callable, z: np.ndarray, cap: float = np.inf):
    """Newton's method on every entry of the array ``z`` at once, with
    numpy's float warnings off. ``fdf(z, i)`` returns ``(f, f')`` at the
    entries still iterating, whose flat indices into ``z`` are ``i``. A
    step of non-finite f/f' counts as 0, and one longer than ``cap`` is cut
    to that length. An entry stops once its step is at most 1e-14 (1 + |z|),
    z after the step; none takes more than 80 steps. Returns the values (an
    entry that never stops keeps its start), whether each entry stopped,
    and |f| at the starts, flat (None for an empty ``z``)."""
    z = np.array(z, order="C")
    flat = z.reshape(-1)     # a view of z
    # the entries still iterating: their flat indices into z and values
    idx, za = np.arange(z.size), flat
    f_start = None
    with np.errstate(all="ignore"):
        for _ in range(80):
            if not idx.size:
                break
            fz, dfz = fdf(za, idx)
            if f_start is None:
                f_start = np.abs(fz)
            step = fz / dfz
            step = np.where(np.isfinite(step), step, 0.0)
            mag = np.abs(step)
            big = mag > cap
            if big.any():
                step[big] *= cap / mag[big]
            za = za - step
            done = np.abs(step) <= 1e-14 * (1.0 + np.abs(za))
            flat[idx[done]] = za[done]
            going = ~done
            idx, za = idx[going], za[going]
    stopped = np.ones(z.shape, dtype=bool)
    stopped.flat[idx] = False
    return z, stopped, f_start


def find_roots_quasipoly(fdf: Callable, window: tuple) -> RootSet:
    """Newton iteration from the ``SEED_GRID`` of seeds over the window.

    ``fdf(z)`` returns the pair ``(f(z), f'(z))`` for a complex numpy array
    ``z``, elementwise. Converged roots are kept if they lie inside the
    window and pass the residual test on f. Duplicates are merged in
    (Re, Im) order: a root is dropped when it lies within 1e-8 of a root
    kept before it, so a chain of roots 0.9e-8 apart keeps every other one.
    An empty result is not an error.
    """
    return find_roots_stacked(lambda z, k: fdf(z), 1, window)[0]


def find_roots_stacked(fdf: Callable, n_sets: int, window: tuple) -> list[RootSet]:
    """``find_roots_quasipoly`` for ``n_sets`` functions at once, all on
    one window and one seed grid: ``fdf(z, k)`` returns ``(f_k(z),
    f_k'(z))`` elementwise, where the integer array ``k`` gives the set of
    each point of ``z``. Each set gets the root set that a sweep of its
    function alone gives, bit for bit.

    The sets run in blocks of whole sets of at most ``SWEEP_BLOCK`` seeds
    (at least one set), which bounds the work arrays."""
    re_min, re_max, im_min, im_max = window
    if not (re_max > re_min and im_max > im_min):
        raise ValueError(f"degenerate window {window}")

    re = np.linspace(re_min, re_max, SEED_GRID[0])
    im = np.linspace(im_min, im_max, SEED_GRID[1])
    seeds = (re[:, None] + 1j * im[None, :]).ravel()
    # limit huge steps to keep seeds from shooting off
    cap = 0.5 * max(re_max - re_min, im_max - im_min)
    per_block = max(1, SWEEP_BLOCK // seeds.size)
    out = []
    for first in range(0, n_sets, per_block):
        sets = np.arange(first, min(first + per_block, n_sets))
        z = np.tile(seeds, sets.size)
        k = np.repeat(sets, seeds.size)
        z, converged, f_seeds = newton(lambda z, i: fdf(z, k[i]), z, cap)

        # keep converged roots in the window with small residual; the
        # window test also drops any root with a NaN or infinite part
        scale = np.fmax(1.0, np.nanmedian(f_seeds.reshape(sets.size, -1),
                                          axis=1))
        tol = RESIDUAL_TOL * scale
        zc, kc = z[converged], k[converged]
        # residual alone is not enough: quasi-polynomials are exponentially
        # flat along dense spectrum curves, so demand Newton convergence too
        with np.errstate(all="ignore"):
            ok = np.abs(fdf(zc, kc)[0]) <= tol[kc - first]
        ok &= (zc.real >= re_min - 1e-9) & (zc.real <= re_max + 1e-9)
        ok &= (zc.imag >= im_min - 1e-9) & (zc.imag <= im_max + 1e-9)
        n_conv = np.bincount(kc - first, minlength=sets.size)
        for j in range(sets.size):
            out.append(RootSet(roots=_dedup_sorted(zc[ok & (kc == first + j)]),
                               tolerance=float(tol[j]),
                               seeds=seeds.size, converged=int(n_conv[j])))
    return out


def bisect_sign_changes(g: Callable, x: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """The real roots of g that its samples ``gx = g(x)`` on the ascending
    grid ``x`` show, in ascending order: the grid points where gx is exactly
    0, and one root in every step where gx changes sign.

    ``g`` must accept float arrays. All brackets are bisected at once until
    each midpoint rounds to an end, i.e. the ends are adjacent doubles; the
    root is the end with the smaller |g|.
    """
    i = np.flatnonzero(np.sign(gx[:-1]) * np.sign(gx[1:]) < 0)
    lo, hi, s_lo = x[i], x[i + 1], np.sign(gx[i])
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((mid != lo) & (mid != hi)):
            break
        s_mid = np.sign(g(mid))
        # closed brackets stay put; an exact zero closes onto mid
        lo, hi = (np.where(s_mid != -s_lo, mid, lo),
                  np.where(s_mid != s_lo, mid, hi))
    roots = np.where(np.abs(g(lo)) <= np.abs(g(hi)), lo, hi)
    return np.sort(np.concatenate([roots, x[gx == 0.0]]))


def solve_kepler(beta: float, R: float, k_plus: float, tau: float) -> np.ndarray:
    """All real solutions Omega of Omega = beta + R*sin(k_plus - Omega*tau)
    that the sampling finds, with |residual| <= 1e-12.

    Solutions lie in [beta-|R|, beta+|R|]. The interval is sampled at
    step min(pi/(4(1+|R|tau)), 0.01); every sign change is bisected, and
    sampled local minima of |g| below |R|*1e-3 + 1e-9 are polished by
    Newton to catch tangencies. Two roots inside one step with the same
    sign of g at both ends can still be missed when the minimum of |g|
    between them is not small enough to be a candidate.
    """
    check_delay(tau)
    R = float(R)
    if R == 0.0:
        return np.array([beta])

    def g(om):
        return om - beta - R * np.sin(k_plus - om * tau)

    def g_dg(om, i):
        return g(om), 1.0 + R * tau * np.cos(k_plus - om * tau)

    step = min(math.pi / (4.0 * (1.0 + abs(R) * tau)), 1e-2)
    lo = beta - abs(R) - step
    hi = beta + abs(R) + step
    n = int(math.ceil((hi - lo) / step)) + 1
    om = np.linspace(lo, hi, n)
    val = g(om)

    # tangential roots: polish the small sampled local minima of |g|
    mag = np.abs(val)
    interior = np.flatnonzero((mag[1:-1] <= mag[:-2]) & (mag[1:-1] <= mag[2:])) + 1
    tangent = newton(g_dg, om[interior[mag[interior] < abs(R) * 1e-3 + 1e-9]])[0]
    tangent = tangent[np.abs(g(tangent)) <= KEPLER_RESIDUAL_TOL]

    roots = _dedup_sorted(np.concatenate([bisect_sign_changes(g, om, val),
                                          tangent]), 1e-9)
    return roots[np.abs(g(roots)) <= KEPLER_RESIDUAL_TOL]


def solve_cubic_real(c3: float, c2: float, c1: float, c0: float) -> np.ndarray:
    """Real roots of c3*x^3 + c2*x^2 + c1*x + c0 via the companion matrix.

    Roots within 1e-8 of each other are reported once (multiplicity-aware).
    """
    if c3 == 0:
        raise ValueError("leading coefficient c3 must be nonzero")
    coeffs = np.array([c3, c2, c1, c0], dtype=float)
    scale = np.max(np.abs(coeffs))
    r = np.roots(coeffs)
    x = r.real[np.abs(r.imag) <= 1e-8 * (1.0 + np.abs(r))]

    def p(x):
        return ((c3 * x + c2) * x + c1) * x + c0

    x = newton(lambda x, i: (p(x), (3 * c3 * x + 2 * c2) * x + c1), x)[0]
    return _dedup_sorted(x[np.abs(p(x)) <= RESIDUAL_TOL * scale
                           * np.maximum(1.0, np.abs(x)) ** 3], 1e-8)
