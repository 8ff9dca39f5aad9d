"""Root-finding utilities: one Newton iteration, which runs the seeded
sweeps for quasi-polynomials, polishes real roots and solves the log form
of Lambert W; one residual test for a swept root, the backward error of f
against the sum of the moduli of its terms; a root count right of a
vertical line by the argument principle; one bracket refiner for real
roots; the Kepler equation for plane-wave frequencies; and real cubics via
the companion matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import check_delay

DEDUP_RADIUS = 1e-8
RESIDUAL_TOL = 1e-12         # a swept root's |f| over the sum of |f's terms|
CUBIC_RESIDUAL_TOL = 1e-10
KEPLER_RESIDUAL_TOL = 1e-12
SEED_GRID = (40, 40)         # Newton seeds along Re and Im of a sweep's window


@dataclass
class RootSet:
    """Deduplicated characteristic roots. A Newton sweep also reports its
    number of seeds and how many of them converged; both are 0 where no
    sweep ran."""
    roots: np.ndarray
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
    entry that never stops keeps its start) and whether each entry stopped,
    which a step of 0/0 or f/0 does too: a stop is not yet a root."""
    z = np.array(z, order="C")
    flat = z.reshape(-1)     # a view of z
    # the entries still iterating: their flat indices into z and values
    idx, za = np.arange(z.size), flat
    with np.errstate(all="ignore"):
        for _ in range(80):
            if not idx.size:
                break
            fz, dfz = fdf(za, idx)
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
    return z, stopped


def find_roots_quasipoly(fdf: Callable, window: tuple, *,
                         terms: Callable) -> RootSet:
    """``find_roots_seeded`` for one function from the ``SEED_GRID`` of
    seeds over the window, Re-major: ``fdf(z)`` returns ``(f(z), f'(z))``
    and ``terms(z)`` the sum of the moduli of f's terms, elementwise.
    Duplicates are merged in (Re, Im) order: a root is dropped when it lies
    within 1e-8 of a root kept before it, so a chain of roots 0.9e-8 apart
    keeps every other one. An empty result is not an error."""
    re_min, re_max, im_min, im_max = window
    if not (re_max > re_min and im_max > im_min):
        raise ValueError(f"degenerate window {window}")
    re = np.linspace(re_min, re_max, SEED_GRID[0])
    im = np.linspace(im_min, im_max, SEED_GRID[1])
    seeds = (re[:, None] + 1j * im[None, :]).ravel()
    return find_roots_seeded(lambda z, k: fdf(z), seeds,
                             np.zeros(seeds.size, dtype=int), 1, window,
                             lambda z, k: terms(z))[0]


def find_roots_seeded(fdf: Callable, seeds: np.ndarray, k: np.ndarray,
                      n_sets: int, window: tuple,
                      terms: Callable) -> list[RootSet]:
    """Newton from each seed ``seeds[i]`` on the function f_k, k = ``k[i]``,
    of ``fdf(z, k)``, which returns ``(f_k(z), f_k'(z))`` elementwise, each
    step capped at half the window's longer side. A converged root is kept
    if it lies in the window and passes the backward-error test
    |f_k| <= ``RESIDUAL_TOL`` * ``terms(z, k)``, the sum of the moduli of
    f_k's terms (|z|^2 + 1 for z^2 + 1; 0 <= 0 keeps a root where all
    vanish, and an infinite |f_k| fails). The roots kept for each set go
    through ``_dedup_sorted``; set j reports its seeds and converged ones."""
    re_min, re_max, im_min, im_max = window
    cap = 0.5 * max(re_max - re_min, im_max - im_min)
    z, converged = newton(lambda z, i: fdf(z, k[i]), seeds, cap)
    zc, kc = z[converged], k[converged]
    # residual alone is not enough: quasi-polynomials are exponentially
    # flat along dense spectrum curves, so demand Newton convergence too;
    # the window test also drops any root with a NaN or infinite part
    with np.errstate(all="ignore"):
        res = np.abs(fdf(zc, kc)[0])
        ok = (res <= RESIDUAL_TOL * terms(zc, kc)) & (res < np.inf)
    ok &= (zc.real >= re_min - 1e-9) & (zc.real <= re_max + 1e-9)
    ok &= (zc.imag >= im_min - 1e-9) & (zc.imag <= im_max + 1e-9)
    n_seeds = np.bincount(k, minlength=n_sets)
    n_conv = np.bincount(kc, minlength=n_sets)
    return [RootSet(roots=_dedup_sorted(zc[ok & (kc == j)]),
                    seeds=int(n_seeds[j]), converged=int(n_conv[j]))
            for j in range(n_sets)]


def count_roots_right(fdf: Callable, n_sets: int, sigma: float,
                      zeros: np.ndarray, W: np.ndarray, step: float):
    """The number of roots right of the line Re z = ``sigma`` of each
    function f_k of ``fdf(z, k)``, by the argument principle; the number
    of points of the line where f was evaluated; and Newton seeds for the
    roots near the line: the points of the first pass where |f_k| has a
    local minimum along it, with their sets.

    Let p be the monic polynomial with the roots ``zeros``. Each f_k must
    tend to p right of the line as |z| grows, with |f_k/p - 1| < 1/2 on
    the line where |Im z| >= ``W[k]``. The arg of f_k/p then changes over
    the tails by its principal values at Im z = -+W[k], and the count is
    that of p's roots right of the line minus the change along the whole
    line over 2 pi. Dividing by p rather than by z^deg p keeps a double
    pole at 0 off the line.

    The first pass samples the line from -W[k] to W[k] at an even step of
    at most ``step``. A step is halved while f/p turns by more than pi/4
    over it, or while a root of f may lie nearer the line than the step:
    step * max |f'| > max |f| / 2 at its ends. A step that has to fall
    below 1e-13 means a root on the line, and raises ArithmeticError, as
    does a W that is not finite."""
    if not np.all(np.isfinite(W)):
        raise ArithmeticError(
            f"no finite tail bound on the line Re z = {sigma!r}: W = {W!r}")
    zeros = np.asarray(zeros, dtype=complex)

    def sample(y, k):
        z = sigma + 1j * y
        f, df = fdf(z, k)
        return f / np.prod(z[:, None] - zeros, axis=1), np.abs(f), np.abs(df)

    n = np.maximum(1, np.ceil(2.0 * W / step)).astype(int)
    k = np.repeat(np.arange(n_sets), n + 1)
    i = np.arange(k.size) - np.repeat(np.cumsum(n + 1) - n - 1, n + 1)
    y = W[k] * (2.0 * i / np.repeat(n, n + 1) - 1.0)
    g, f, df = sample(y, k)
    last = np.r_[k[1:] != k[:-1], True]
    first = np.r_[True, last[:-1]]
    mid = np.flatnonzero(~first & ~last)
    mid = mid[(f[mid] <= f[mid - 1]) & (f[mid] <= f[mid + 1])]
    # the tails: from 0 at -i infinity to Arg g(-W), from Arg g(W) to 0
    turn = np.bincount(k[first], np.angle(g[first]), n_sets) \
        - np.bincount(k[last], np.angle(g[last]), n_sets)
    n_samples = y.size
    # the steps: (lower y, upper y, set, then g, |f|, |f'| at both ends)
    lo, hi = np.flatnonzero(~last), np.flatnonzero(~first)
    steps = (y[lo], y[hi], k[lo], g[lo], g[hi], f[lo], f[hi], df[lo], df[hi])
    while steps[0].size:
        a, b, ks, ga, gb, fa, fb, dfa, dfb = steps
        d = np.angle(gb / ga)
        split = ((np.abs(d) > 0.25 * math.pi)
                 | ((b - a) * np.fmax(dfa, dfb) > 0.5 * np.fmax(fa, fb)))
        turn += np.bincount(ks[~split], d[~split], n_sets)
        a, b, ks, ga, gb, fa, fb, dfa, dfb = (x[split] for x in steps)
        if np.any(b - a < 2e-13):
            i = int(np.argmin(b - a))
            raise ArithmeticError(
                f"set {ks[i]} has a root on the line Re z = {sigma!r} "
                f"near Im z = {float(a[i])!r}: its step would fall below "
                f"1e-13")
        m = 0.5 * (a + b)
        gm, fm, dfm = sample(m, ks)
        n_samples += m.size
        steps = tuple(np.concatenate(pair) for pair in (
            (a, m), (m, b), (ks, ks), (ga, gm), (gm, gb), (fa, fm),
            (fm, fb), (dfa, dfm), (dfm, dfb)))
    counts = (np.count_nonzero(zeros.real > sigma)
              - np.rint(turn / (2.0 * math.pi)).astype(int))
    return counts, n_samples, sigma + 1j * y[mid], k[mid]


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
    return _dedup_sorted(x[np.abs(p(x)) <= CUBIC_RESIDUAL_TOL * scale
                           * np.maximum(1.0, np.abs(x)) ** 3], 1e-8)
