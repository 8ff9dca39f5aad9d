"""Multi-branch complex Lambert W function of a log-form argument.

Every entry of the broadcast of the branches j and the arguments log z is
its own run of ``roots.newton`` (Corless et al., Adv. Comput. Math. 5,
1996), so its value does not depend on which entries share the call.
Where L = log z + 2*pi*i*j is large, on every branch |j| >= 2 and wherever
|z| is large or (for j != 0) small, Newton solves the log form
w + Log w = L, so z may lie beyond the double range. Near 0 and -1/e, for
W_0 of |z| < 1 and wherever |L| < 5, Halley's method solves w e^w = z.
"""

from __future__ import annotations

import math

import numpy as np

from .roots import RESIDUAL_TOL, newton

MAX_BRANCH = 64
_SWITCH = 5.0       # |L| from which the log form is solved


class LambertWError(ArithmeticError):
    pass


def lambert_w_log(j, log_z) -> np.ndarray:
    """W_j at z = exp(log_z), elementwise over the broadcast of the integer
    branches j and log_z.

    Returns an array of the broadcast shape, a scalar for scalar arguments;
    the branch is the standard one of z for any phase Im log_z, with Im W_j
    near 2*pi*j for large |z|. z may lie beyond the double range; z = 0
    (Re log_z = -inf) has W_0 = 0, and the other branches raise there.
    """
    j = np.asarray(j, dtype=int)
    if np.abs(j).max(initial=0) > MAX_BRANCH:
        raise ValueError(f"branch index |j| <= {MAX_BRANCH} required, got {j}")
    log_z = np.array(log_z, dtype=complex)     # a copy: the phase is reduced
    if np.count_nonzero(np.isfinite(log_z)) < log_z.size:   # or z = 0
        bad = ~((log_z.real < np.inf) & np.isfinite(log_z.imag)) | (
            (log_z.real == -np.inf) & (j != 0))
        if bad.any():
            at = complex(np.broadcast_to(log_z, bad.shape)[bad][0])
            raise LambertWError(f"z = exp({at}) is NaN or infinite, its phase "
                                f"is not finite, or z = 0 off W_0")
    # set in place: re + 1j * im would lose the sign of a zero phase
    log_z.imag.flat = [math.remainder(y, math.tau) for y in log_z.imag.flat]
    L = log_z + 2j * np.pi * j
    j = np.zeros(L.shape, dtype=int) + j
    direct = (np.abs(L) < _SWITCH) | ((j == 0) & (log_z.real < 0.0))
    w = np.empty(L.shape, dtype=complex)
    if direct.any():
        w[direct] = _direct_form(
            j[direct], np.broadcast_to(log_z, L.shape)[direct], L[direct])
    if not direct.all():
        w[~direct] = _log_form(j[~direct], L[~direct])
    return w[()]    # a scalar for scalar arguments


def _solve(fdf, seed: np.ndarray, scale, j, at, form: str):
    """``roots.newton`` from ``seed``; raises unless every entry stops at
    a w with |f(w)| <= ``roots.RESIDUAL_TOL`` * ``scale``."""
    w, stopped = newton(fdf, seed)
    with np.errstate(all="ignore"):
        f = fdf(w, np.arange(w.size))[0]
    ok = stopped & (np.abs(f) <= RESIDUAL_TOL * scale)
    if np.count_nonzero(ok) < ok.size:
        raise LambertWError(f"{form} = {at[~ok]} did not converge on "
                            f"branches {j[~ok]}")
    return w


def _log_form(j: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Newton on w + Log w = L from the asymptotic seed
    L - l + l/L + l(l - 2)/(2 L^2), l = Log L.

    For |z| >= 1, w lies away from the negative real axis, the cut of the
    principal logarithm. For |z| < 1 and j != 0, w lies in the left
    half-plane with sign(Im w) = sign(j) (Im w -> 0- for j = -1 as z nears
    the negative real axis from above, the standard branch's value on the
    cut). There Log w = log(-w) + i*pi*sign(j), and Newton solves
    w + log(-w) = L - i*pi*sign(j) (L is shifted in place), off the cut.
    """
    flip = L.real < 0.0
    np.subtract(L.imag, np.copysign(np.pi, j), out=L.imag, where=flip)
    sign = np.where(flip, -1.0, 1.0)
    l = np.log(sign * L)
    r = 1.0 / L
    seed = L - l + l * r * (1.0 + 0.5 * (l - 2.0) * r)
    return _solve(lambda w, i: (w + np.log(sign[i] * w) - L[i], 1.0 + 1.0 / w),
                  seed, np.abs(L), j, L.real, "log form at Re log z")


def _direct_form(j, log_z, L) -> np.ndarray:
    """Halley's method on w e^w = z, as Newton on f/sqrt(f'): Newton alone,
    from L - Log L at z = -0.71 + 0.14i, lands on W_-1 for W_0. Seeds:
    within 0.3 of -1/e, Corless' branch-point series in
    p = +-sqrt(2(1 + e z)) for W_0 and for the branch that meets it across
    the cut (W_-1 where Im z >= 0, W_1 below); for W_0 elsewhere in the
    region where scipy seeds with a Pade approximant, the (3, 2) Pade
    approximant at 0; else L - Log L."""
    z = np.exp(log_z)
    s = np.copysign(1.0, log_z.imag)
    # d = 1 + e z from log z keeps its digits near -1/e, log z = -1 +- i pi;
    # Im d has the sign of Im z, also where it rounds to 0 on the cut
    d = -np.expm1(log_z + 1.0 - 1j * s * math.pi)
    d.imag = np.copysign(d.imag, z.imag)
    near = (np.abs(d) < 0.3 * math.e) & ((j == 0) | (j == -s))
    p = np.where(j == 0, 1.0, -1.0) * np.sqrt(2.0 * d)
    x, y = z.real, np.abs(z.imag)
    pade = ((j == 0) & ~near & (-1.0 < x) & (x < 1.5) & (-2.5 * y - 0.2 < x)
            & (y < 1.0))
    with np.errstate(all="ignore"):     # Log L at z = 0 or 1, Pade's poles
        seed = np.where(near, -1.0 + p * (1.0 - p / 3.0 + 11.0 / 72.0 * p * p),
                        L - np.log(L))
        seed = np.where(pade, z * (60.0 + z * (114.0 + 17.0 * z))
                        / (60.0 + z * (174.0 + 101.0 * z)), seed)

    def fdf(w, i):
        u, e = w + 1.0, np.exp(w)
        # near -1/e, f in u = 1 + w and d, which do not cancel there
        f = np.where(near[i], (u * np.exp(u) - np.expm1(u) - d[i]) / math.e,
                     w * e - z[i])
        return f, u * e - (w + 2.0) * f / (2.0 * u)
    return _solve(fdf, seed, np.maximum(np.abs(z), 1.0), j, log_z,
                  "w e^w = z at log z")
