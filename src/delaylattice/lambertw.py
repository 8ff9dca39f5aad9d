"""Multi-branch complex Lambert W function of a log-form argument.

Branches are evaluated with ``scipy.special.lambertw`` (Corless et al.,
Adv. Comput. Math. 5, 1996). Only arguments whose modulus leaves the
double range are solved here, by the Newton iteration of ``roots.newton``
on the log form of the defining relation: z beyond overflow on every
branch, and z at or below the subnormal range on the branches j != 0.
Each branch value is its own Newton run, so it does not depend on which
other branches share the call.
"""

from __future__ import annotations

import math

import numpy as np

from .roots import newton

MAX_BRANCH = 64
_RESIDUAL_TOL = 1e-12
# Re log z outside this range is solved in log form
_OVERFLOW = 500.0
_UNDERFLOW = -700.0


class LambertWError(ArithmeticError):
    pass


def lambert_w_log(j, log_z: complex) -> np.ndarray:
    """W_j at z = exp(log_z) for an integer array of branches j.

    Returns an array shaped like j; the branch is the standard one of z for
    any phase Im log_z, with Im W_j near 2*pi*j for large |z|. Where z would
    overflow a double (Re log_z > 500), or on the branches j != 0 where it
    underflows or loses precision as a subnormal (Re log_z < -700), the
    relation w + Log w = log_z + 2*pi*i*j is solved, Im log_z in [-pi, pi].
    """
    j = np.asarray(j, dtype=int)
    if np.any(np.abs(j) > MAX_BRANCH):
        raise ValueError(f"branch index |j| <= {MAX_BRANCH} required, got {j}")
    from scipy.special import lambertw   # loaded late: slow to import
    log_z = complex(log_z)
    # Re log z = -inf is z = 0; W_0(0) = 0 and the other branches raise
    if not (math.isfinite(log_z.imag) and log_z.real < math.inf):
        raise LambertWError(f"z = exp({log_z}) is NaN or infinite, or its "
                            f"phase is not finite")
    log_z = complex(log_z.real, math.remainder(log_z.imag, math.tau))
    if log_z.real > _OVERFLOW:
        return _log_form(j, log_z)
    direct = (j == 0) | (log_z.real >= _UNDERFLOW)
    w = np.empty(j.shape, dtype=complex)
    w[direct] = lambertw(np.exp(log_z), j[direct])
    if not np.all(np.isfinite(w[direct])):
        raise LambertWError(f"W_j(exp({log_z})) is not finite on branches "
                            f"{j[direct][~np.isfinite(w[direct])]}")
    if not direct.all():
        if log_z.real == -np.inf:
            raise LambertWError(f"W_j(0) is -inf on branches {j[~direct]}")
        w[~direct] = _log_form(j[~direct], log_z)
    return w[()]    # a scalar for a scalar j


def _log_form(j: np.ndarray, log_z: complex) -> np.ndarray:
    """Newton on w + Log w = log_z + 2*pi*i*j, vectorized over j.

    For large |z|, w lies deep in the right half-plane, where the principal
    logarithm is smooth. For tiny |z| and j != 0, w lies deep in the left
    half-plane with sign(Im w) = sign(j) (Im w -> 0- for j = -1 as z nears
    the negative real axis from above, the standard branch's value on the
    cut). There Log w = log(-w) + i*pi*sign(j), and solving with log(-w)
    keeps Newton off the cut of Log along the negative real axis.
    """
    L = log_z + 2j * np.pi * j
    if log_z.real < 0.0:
        L = L - 1j * np.pi * np.sign(j)

        def log(w):
            return np.log(-w)
    else:
        log = np.log
    w, stopped = newton(
        lambda w, i: (w + log(w) - L.flat[i], 1.0 + 1.0 / w), L - log(L))
    if not stopped.all():
        raise LambertWError(
            f"no convergence in log form for j={j[~stopped]}, log_z={log_z}")
    residual = np.abs(w + log(w) - L) / np.maximum(np.abs(L), 1.0)
    if not np.all(residual <= _RESIDUAL_TOL):
        raise LambertWError(
            f"log-form residual {residual.max():.3e} above tolerance for "
            f"j={j}, log_z={log_z}")
    return w
