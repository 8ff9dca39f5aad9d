"""FitzHugh-Nagumo lattice analytics: steady states of the synaptically
coupled model, the linearization matrices, exact characteristic roots,
the delay-free strong spectrum, the hybrid dispersion relation, and the
location of Hopf points."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .core import FHNParams, WaveVector, check_coupling, check_delay, mode_cos
from .roots import (RESIDUAL_TOL, RootSet, _dedup_sorted,
                    bisect_sign_changes, find_roots_quasipoly, newton)


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
    rest-state residual r, bisected between neighbouring points of a grid
    of step 1e-3 joined with the sign changes of r' = 1 - v^2 - 1/b +
    C phi'(v), themselves bisected on that grid. r is monotone between
    neighbouring points, so two states inside one step, near a fold, are
    both found."""
    check_coupling(C)

    def dr(x):
        return 1.0 - x * x - 1.0 / params.b + C * _phi_prime(x, params)

    v = np.linspace(-5.0, 5.0, 10001)
    v = np.union1d(v, bisect_sign_changes(dr, v, dr(v)))
    roots = bisect_sign_changes(lambda x: _stst_residual(x, params, C), v,
                                _stst_residual(v, params, C))
    return [FhnSteadyState(v=vb, w=(vb + params.a) / params.b,
                           s=float(synaptic_gate(vb)))
            for vb in _dedup_sorted(roots).tolist()]


def stst_current(v, params: FHNParams, C: float):
    """The injected current I that makes v, a number or an array, a rest
    potential."""
    check_coupling(C)
    return params.I - _stst_residual(v, params, C)


def _phi_prime(v: np.ndarray, params: FHNParams):
    """phi'(v) = -s(v) + (v_r - v) s'(v) of the rest-state residual's
    coupling term phi(v) = (v_r - v) s(v), s' = 0.6 alpha' / (alpha+0.6)^2,
    evaluated as ``synaptic_gate`` and ``gate_rate_deriv`` do."""
    al = gate_rate(v)
    return -(al / (al + 0.6)) + (params.v_r - v) * (
        0.6 * (5.0 * al * (1.0 - 2.0 * al)) / (al + 0.6) ** 2)


def _fold_coupling(v, params: FHNParams):
    """C at which the rest-state equation has vanishing v-derivative at v
    (the current I drops out of the derivative)."""
    v = np.asarray(v, dtype=float)
    phi_prime = _phi_prime(v, params)
    num = v * v - 1.0 + 1.0 / params.b
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(phi_prime > 0, num / phi_prime, np.inf)


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
    """2 b13 mode_cos(k_minus) e^{i k_plus}: the delayed coupling of one
    mode, the factor of e^{-lambda tau} in its characteristic function."""
    return 2.0 * b13 * mode_cos(k_minus) * np.exp(1j * k_plus)


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
    if coup == 0:   # decoupled: keep A real, eigvals of a complex A can differ
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
    in the large-delay limit, elementwise: gamma = -log|Y|, where
    Y = P(i Omega)/Q(i Omega) is the value of e^{-lambda tau} that makes f
    vanish at i Omega, and -inf where a31*coup = 0 (a decoupled mode)."""
    lin = fhn_linearization(stst, params, C)
    Omega = np.asarray(Omega, dtype=float)
    coup = _coupling_factor(lin.b13, np.asarray(k_minus, dtype=float))
    _, _, _, P, Q = _char_coeffs(lin.A, coup, 1j * Omega)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(lin.A[2, 0] * coup == 0.0, -np.inf,
                         -np.log(np.abs(P / Q)))
    return gamma if gamma.ndim else float(gamma)


def fhn_hopf_points(params: FHNParams, C: float, tau: float, wv: WaveVector,
                    *, n_seeds: tuple = (50, 50)) -> list[tuple]:
    """Hopf points (I, Omega) of the steady state for one Fourier mode,
    with I in [-4, 4].

    Solves F(v, Omega) = f(i*Omega) = 0 by ``roots.newton`` on
    z = v + i*Omega, run on all seeds at once from the grid of v in
    [-2.5, 2.5] by Omega in [1e-3, 3]; the current I follows from the
    rest-state equation. dF/dOmega = i f'(i*Omega) is exact, dF/dv a
    central difference, and each step solves Re and Im of
    dF/dv s_v + dF/dOmega s_Omega = F by Cramer's rule. A seed stops where
    it leaves |v| <= 10, |Omega| <= 50 (its determinant is NaN there). A
    seed is dropped, without a report, when it stops outside that box,
    does not stop, or stops where |F| exceeds ``roots.RESIDUAL_TOL`` times
    the sum of the moduli of f's terms at i*Omega (``fhn_char_function``).
    Points within ``roots.DEDUP_RADIUS`` of one kept before them in
    (I, Omega) order are dropped."""
    h = 1e-7

    def char(v):
        """``fhn_char_function`` of the rest states at the array v."""
        stst = FhnSteadyState(v=v, w=(v + params.a) / params.b,
                              s=synaptic_gate(v))
        return fhn_char_function(fhn_linearization(stst, params, C), tau, wv)

    def in_box(z):
        return (np.abs(z.real) <= 10.0) & (np.abs(z.imag) <= 50.0)

    def cramer(z, i):
        """The numerator s_v det + i s_Omega det of the step, and det."""
        v = z.real
        val, d_om = char(np.stack([v, v + h, v - h]))[0](1j * z.imag)
        val, d_om, d_v = val[0], 1j * d_om[0], (val[1] - val[2]) / (2 * h)
        det = np.where(in_box(z), (d_v.conj() * d_om).imag, np.nan)
        return ((val.conj() * d_om).imag + 1j * (d_v.conj() * val).imag,
                det)

    v, om = np.meshgrid(np.linspace(-2.5, 2.5, n_seeds[0]),
                        np.linspace(1e-3, 3.0, n_seeds[1]), indexing="ij")
    z, stopped = newton(cramer, (v + 1j * om).ravel())
    # F outside the box can overflow exp in gate_rate
    z = z[stopped & in_box(z)]
    fdf, terms = char(z.real)
    lam, I = 1j * z.imag, stst_current(z.real, params, C)
    # Omega -> 0 is a fold, not a Hopf point
    keep = ((z.imag > 1e-6) & (I >= -4.0) & (I <= 4.0)
            & (np.abs(fdf(lam)[0]) <= RESIDUAL_TOL * terms(lam)))
    return [(p.real, p.imag)
            for p in _dedup_sorted(I[keep] + 1j * z.imag[keep]).tolist()]
