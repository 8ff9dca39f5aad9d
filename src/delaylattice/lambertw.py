"""Multi-branch complex Lambert W function of a log-form argument.

Branches are evaluated with ``scipy.special.lambertw`` (Corless et al.,
Adv. Comput. Math. 5, 1996). Only arguments whose modulus overflows a
double are solved here, by Newton iteration on the log form of the
defining relation.
"""

from __future__ import annotations

import numpy as np
from scipy.special import lambertw

MAX_BRANCH = 64
_MAX_ITER = 60
_STEP_TOL = 1e-13
_RESIDUAL_TOL = 1e-12


class LambertWError(ArithmeticError):
    pass


def lambert_w_log(j, log_z: complex) -> np.ndarray:
    """W_j at z = exp(log_z) for an integer array of branches j.

    Returns an array shaped like j; the branch is the standard one with
    Im W_j near 2*pi*j for large |z|. For Re log_z beyond 500, where z
    would overflow a double, the defining relation is solved in log form,
    w + Log w = log_z + 2*pi*i*j, which is well conditioned because w then
    lies deep in the right half-plane where the principal logarithm is
    smooth.
    """
    j = np.asarray(j, dtype=int)
    if np.any(np.abs(j) > MAX_BRANCH):
        raise ValueError(f"branch index |j| <= {MAX_BRANCH} required, got {j}")
    log_z = complex(log_z)
    if log_z.real <= 500.0:
        w = lambertw(np.exp(log_z), j)
        if not np.all(np.isfinite(w)):
            # z underflowed to 0 on a branch j != 0, or scipy did not converge
            raise LambertWError(f"W_j(exp({log_z})) is not finite on "
                                f"branches {j[~np.isfinite(w)]}")
        return w

    L = log_z + 2j * np.pi * j
    w = L - np.log(L)
    for _ in range(_MAX_ITER):
        step = (w + np.log(w) - L) / (1.0 + 1.0 / w)
        w = w - step
        if np.all(np.abs(step) <= _STEP_TOL * (1.0 + np.abs(w))):
            break
    else:
        raise LambertWError(
            f"no convergence in log form for j={j}, log_z={log_z}")
    residual = np.abs(w + np.log(w) - L) / np.maximum(np.abs(L), 1.0)
    if np.any(residual > _RESIDUAL_TOL):
        raise LambertWError(
            f"log-form residual {residual.max():.3e} above tolerance for "
            f"j={j}, log_z={log_z}")
    return w
