"""FitzHugh-Nagumo lattice analytics: steady states of the synaptically
coupled model, the linearization matrices, exact characteristic roots,
the delay-free strong spectrum, the hybrid dispersion relation, and the
location of Hopf points."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import FHNParams, WaveVector, check_coupling, check_delay
from .roots import (RootSet, _dedup_sorted, bisect_sign_changes,
                    find_roots_quasipoly)


CHAR_ROOT_WINDOW = (-2.0, 1.0, -4.0, 4.0)  # Re min, Re max, Im min, Im max
# 0-d arrays are cheaper ufunc operands than Python floats
_MINUS_FIVE, _ONE, _HALF = np.array(-5.0), np.array(1.0), np.array(0.5)


def gate_rate(v, out=None, tmp=None):
    """Synaptic activation rate alpha(v) = 1/2 * [1 + exp(-5(v-1))]^-1,
    written into ``out`` when one is given. The chain alternates between
    ``out`` and the scratch row ``tmp``, so no step writes over its own
    input; without buffers each step allocates, with the same arithmetic."""
    e = np.exp(np.multiply(_MINUS_FIVE, np.subtract(v, _ONE, out), tmp), out)
    return np.divide(_HALF, np.add(_ONE, e, tmp), out)


def gate_rate_deriv(v):
    al = gate_rate(v)
    return 5.0 * al * (1.0 - 2.0 * al)


def synaptic_gate(v):
    """Steady-state gating value s(v) = alpha(v) / (alpha(v) + 0.6)."""
    al = gate_rate(v)
    return al / (al + 0.6)


@dataclass(frozen=True)
class FhnSteadyState:
    v: float
    w: float
    s: float


@dataclass(frozen=True)
class LinearizationPair:
    """Instantaneous Jacobian A, 3x3 or a stack of shape (..., 3, 3), and
    the one nonzero entry b13 of the rank-one delayed-coupling matrix B,
    a number or an array of the stack's leading shape."""
    A: np.ndarray
    b13: np.ndarray


def _stst_residual(v, params: FHNParams, C: float):
    v = np.asarray(v, dtype=float)
    return (v - v ** 3 / 3.0 - (v + params.a) / params.b + params.I
            + C * (params.v_r - v) * synaptic_gate(v))


def fhn_steady_states(params: FHNParams, C: float) -> list[FhnSteadyState]:
    """All homogeneous steady states with v in [-5, 5]: real roots of the
    scalar rest-state equation, bracketed on a grid of step 1e-3 and
    bisected."""
    check_coupling(C)
    v = np.linspace(-5.0, 5.0, 10001)
    roots = bisect_sign_changes(lambda x: _stst_residual(x, params, C), v,
                                _stst_residual(v, params, C))
    return [FhnSteadyState(v=vb, w=(vb + params.a) / params.b,
                           s=float(synaptic_gate(vb)))
            for vb in _dedup_sorted(roots, 1e-9).tolist()]


def stst_current(v, params: FHNParams, C: float):
    """The injected current I that makes v, a number or an array, a rest
    potential."""
    check_coupling(C)
    return params.I - _stst_residual(v, params, C)


def _fold_coupling(v, params: FHNParams):
    """C at which the rest-state equation has vanishing v-derivative at v
    (the current I drops out of the derivative)."""
    v = np.asarray(v, dtype=float)
    phi_prime = (-synaptic_gate(v)
                 + (params.v_r - v) * _gate_deriv_of_s(v))
    num = v * v - 1.0 + 1.0 / params.b
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(phi_prime > 0, num / phi_prime, np.inf)


def _gate_deriv_of_s(v):
    # d/dv [alpha/(alpha+0.6)] = 0.6 alpha' / (alpha+0.6)^2
    al = gate_rate(v)
    return 0.6 * gate_rate_deriv(v) / (al + 0.6) ** 2


def fhn_saddle_node_C(params: FHNParams = FHNParams()) -> float:
    """Smallest coupling strength at which the rest-state equation first
    admits a fold (double root) in (v, I)."""
    # C(v) = (v^2 - 1 + 1/b) / phi'(v) where phi(v) = (v_r - v) s(v);
    # the fold first appears at the minimum of C(v) over v with phi' > 0
    v = np.linspace(-3.0, 3.0, 60001)
    Cv = _fold_coupling(v, params)
    i = int(np.argmin(Cv))
    if not np.isfinite(Cv[i]):
        raise ArithmeticError("no fold point found in the scanned v range")
    # rescan the bracket around the discrete minimum: each pass shrinks it
    # 500-fold, so four take it from 2e-4 to about 1e-12
    for _ in range(4):
        v = np.linspace(v[max(i - 1, 0)], v[min(i + 1, len(v) - 1)], 1001)
        Cv = _fold_coupling(v, params)
        i = int(np.argmin(Cv))
    return float(Cv[i])


def fhn_linearization(stst: FhnSteadyState, params: FHNParams,
                      C: float) -> LinearizationPair:
    """A and b13 at a rest state whose v and s are numbers, or arrays of
    one shape that give A of shape (..., 3, 3) and b13 of that shape."""
    check_coupling(C)
    v = np.asarray(stst.v, dtype=float)
    s = np.asarray(stst.s, dtype=float)
    A = np.zeros(v.shape + (3, 3))
    A[..., 0, 0] = 1.0 - v ** 2 - C * s
    A[..., 0, 1] = -1.0
    A[..., 1, 0] = params.eps
    A[..., 1, 1] = -params.b * params.eps
    A[..., 2, 0] = gate_rate_deriv(v) * (1.0 - s)
    A[..., 2, 2] = -gate_rate(v) - 0.6
    return LinearizationPair(A=A, b13=0.5 * C * (params.v_r - v))


def _coupling_factor(b13, k_minus, k_plus=0.0):
    """2 b13 cos(k_minus) e^{i k_plus}: the delayed coupling of one mode,
    the factor of e^{-lambda tau} in its characteristic function."""
    return 2.0 * b13 * np.cos(k_minus) * np.exp(1j * k_plus)


def _char_coeffs(A, coup, lam):
    """The diagonal d_i = a_ii - lambda and the coefficients P and Q of the
    characteristic function f = P(lambda) - Q(lambda) e^{-lambda tau},
    P = d1 d2 d3 - a12 a21 d3 and Q = a31 d2 coup."""
    d1, d2, d3 = A[..., 0, 0] - lam, A[..., 1, 1] - lam, A[..., 2, 2] - lam
    P = d1 * d2 * d3 - A[..., 0, 1] * A[..., 1, 0] * d3
    return d1, d2, d3, P, A[..., 2, 0] * d2 * coup


def fhn_char_function(lin: LinearizationPair, tau: float, wv: WaveVector):
    """The scalar characteristic function det(-lambda*Id + A + 2B cos(k_minus)
    e^{i k_plus} e^{-lambda tau}) expanded using the rank-1 structure of B.
    Returns two callables that accept complex arrays: lambda ->
    (f(lambda), f'(lambda)), and lambda -> |d1 d2 d3| + |a12 a21||d3| +
    |a31 d2 coup||e^{-lambda tau}|, the sum of the moduli of f's terms
    (``_char_coeffs``); for a stacked linearization they broadcast against
    its leading shape."""
    check_delay(tau)
    A = lin.A
    a12a21, a31 = A[..., 0, 1] * A[..., 1, 0], A[..., 2, 0]
    coup = _coupling_factor(lin.b13, wv.k_minus, wv.k_plus)

    def fdf(lam):
        lam = np.asarray(lam, dtype=complex)
        e = np.exp(-lam * tau)
        d1, d2, d3, P, Q = _char_coeffs(A, coup, lam)
        f = P - Q * e
        df = (-d2 * d3 - d1 * d3 - d1 * d2 + a12a21
              + a31 * coup * e * (1.0 + tau * d2))
        return f, df

    def terms(lam):
        d1, d2, d3, _, Q = _char_coeffs(A, coup, lam)
        return (np.abs(d1 * d2 * d3) + np.abs(a12a21 * d3)
                + np.abs(Q) * np.exp(-lam.real * tau))

    return fdf, terms


def fhn_char_roots(stst: FhnSteadyState, params: FHNParams, C: float,
                   tau: float, wv: WaveVector) -> RootSet:
    """Steady-state characteristic roots of mode wv in ``CHAR_ROOT_WINDOW``."""
    check_delay(tau)
    lin = fhn_linearization(stst, params, C)
    coup = _coupling_factor(lin.b13, wv.k_minus, wv.k_plus)
    if lin.b13 == 0.0 or abs(math.cos(wv.k_minus)) < 1e-12:
        # decoupled: A stays real, eigvals of its complex cast can differ
        coup = 0.0
    elif tau > 0.0:
        fdf, terms = fhn_char_function(lin, tau, wv)
        return find_roots_quasipoly(fdf, CHAR_ROOT_WINDOW, terms=terms)
    # no delayed term: the roots are the eigenvalues of A plus the coupling
    Mat = lin.A.astype(np.result_type(lin.A, coup))
    Mat[0, 2] += coup
    lam = np.linalg.eigvals(Mat)
    re_min, re_max, im_min, im_max = CHAR_ROOT_WINDOW
    keep = ((lam.real >= re_min) & (lam.real <= re_max)
            & (lam.imag >= im_min) & (lam.imag <= im_max))
    return RootSet(roots=lam[keep])


def fhn_strong_spectrum(stst: FhnSteadyState, params: FHNParams, C: float):
    """Delay-free spectrum (lambda0, lambda+, lambda-) of the steady state.

    lambda0 = a33 is always real and <= -0.6. The strong (delay-surviving)
    unstable spectrum exists iff a11 > b*eps; the pair is complex iff
    a11 < 2*sqrt(eps) - b*eps."""
    A = fhn_linearization(stst, params, C).A
    # the roots of the delay-free part: a33, and those of d1 d2 - a12 a21
    half_trace = 0.5 * (A[0, 0] + A[1, 1])
    root = 0.5 * cmath.sqrt((A[0, 0] - A[1, 1]) ** 2 + 4.0 * A[0, 1] * A[1, 0])
    return float(A[2, 2]), half_trace + root, half_trace - root


def fhn_strong_spectrum_present(stst: FhnSteadyState, params: FHNParams,
                                C: float) -> bool:
    lin = fhn_linearization(stst, params, C)
    return lin.A[0, 0] > params.b * params.eps


def fhn_hybrid_dispersion(stst: FhnSteadyState, params: FHNParams, C: float,
                          Omega, k_minus):
    """Hybrid dispersion relation gamma(Omega, k_minus) of the steady state
    in the large-delay limit: gamma = -log|Y|, where Y = P(i Omega)/Q(i Omega)
    is the value of e^{-lambda tau} that makes f vanish at i Omega."""
    lin = fhn_linearization(stst, params, C)
    Omega = np.asarray(Omega, dtype=float)
    k_minus = np.asarray(k_minus, dtype=float)
    if lin.A[2, 0] * lin.b13 == 0.0 or np.any(np.abs(np.cos(k_minus)) < 1e-12):
        raise ValueError("mode decoupled: a31*b13*cos(k_minus) vanishes")
    _, _, _, P, Q = _char_coeffs(lin.A, _coupling_factor(lin.b13, k_minus),
                                 1j * Omega)
    gamma = -np.log(np.abs(P / Q))
    return gamma if gamma.ndim else float(gamma)


def fhn_hopf_points(params: FHNParams, C: float, tau: float, wv: WaveVector,
                    *, n_seeds: tuple = (50, 50)) -> list[tuple]:
    """Hopf points (I, Omega) of the steady state for one Fourier mode,
    with I in [-4, 4].

    Solves F(v, Omega) = f(i*Omega) = 0 by a 2D Newton iteration over
    (v, Omega), run on all seeds at once from the grid of v in
    [-2.5, 2.5] by Omega in [1e-3, 3]; the current I follows from the
    rest-state equation. dF/dOmega = i f'(i*Omega) is exact, dF/dv a
    central difference. A seed is dropped, without a report, when its
    Jacobian is singular, when it leaves |v| <= 10, |Omega| <= 50, or when
    it has not converged in 50 iterations. Points within 1e-7 of one kept
    before them in (I, Omega) order are dropped."""
    h = 1e-7

    def F(v, om):
        """F and dF/dOmega at arrays of (v, Omega)."""
        stst = FhnSteadyState(v=v, w=(v + params.a) / params.b,
                              s=synaptic_gate(v))
        val, dval = fhn_char_function(fhn_linearization(stst, params, C),
                                      tau, wv)[0](1j * om)
        return val, 1j * dval

    v, om = (g.ravel() for g in np.meshgrid(
        np.linspace(-2.5, 2.5, n_seeds[0]), np.linspace(1e-3, 3.0, n_seeds[1]),
        indexing="ij"))
    live = np.arange(v.size)            # seeds still iterating
    converged = np.zeros(v.size, dtype=bool)
    for _ in range(50):
        x_v, x_om = v[live], om[live]
        val, d_om = F(np.stack([x_v, x_v + h, x_v - h]), x_om)
        val, d_om, d_v = val[0], d_om[0], (val[1] - val[2]) / (2 * h)
        # Cramer's rule on Re and Im of d_v * s_v + d_om * s_om = val
        det = (d_v.conj() * d_om).imag
        with np.errstate(divide="ignore", invalid="ignore"):
            s_v = (val.conj() * d_om).imag / det
            s_om = (d_v.conj() * val).imag / det
        v[live] = x_v = x_v - s_v
        om[live] = x_om = x_om - s_om
        ok = ((det != 0.0) & np.isfinite(x_v) & np.isfinite(x_om)
              & (np.abs(x_v) <= 10.0) & (np.abs(x_om) <= 50.0))
        done = ok & (np.maximum(np.abs(s_v), np.abs(s_om))
                     < 1e-13 * (1.0 + np.maximum(np.abs(x_v), np.abs(x_om))))
        converged[live[done]] = True
        live = live[ok & ~done]
        if not live.size:
            break
    v, om = v[converged], om[converged]
    val = F(v, om)[0]
    I = stst_current(v, params, C)
    # Omega -> 0 is a fold, not a Hopf point
    keep = ((om > 1e-6) & (np.maximum(np.abs(val.real), np.abs(val.imag))
                           <= 1e-10) & (I >= -4.0) & (I <= 4.0))
    return [(z.real, z.imag)
            for z in _dedup_sorted(I[keep] + 1j * om[keep], 1e-7).tolist()]
