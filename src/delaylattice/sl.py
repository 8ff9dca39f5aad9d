"""Stuart-Landau lattice analytics.

Covers the steady-state spectrum (exact Lambert-W form and the large-delay
asymptotic curve), enumeration of the plane-wave family via the Kepler
equation, and plane-wave Floquet stability: the exact quasi-polynomial,
its roots seeded on the multiplier branches and certified by a root count,
the delay-free strong spectrum, the asymptotic two-branch growth curves,
the neutral-stability cubic and the Hessian test at the trivial exponent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (TWO_PI, LatticeSpec, SLParams, WaveVector, check_coupling,
                   check_delay, enumerate_mode_classes, enumerate_modes)
from .lambertw import MAX_BRANCH, lambert_w_log
# find_roots_quasipoly is not called here; perfbench/tracing.py looks it
# up through this module
from .roots import (RootSet, count_roots_right, find_roots_quasipoly,
                    find_roots_seeded, solve_cubic_real, solve_kepler)

TRIVIAL_EXCLUSION_RADIUS = 1e-6
STABILITY_TOL = 1e-6
LINE_GAP = 1e-6      # the certificate counts right of max_growth + LINE_GAP
BRANCH_OFFSETS = (-1.0, -0.5, 0.0, 0.5, 1.0)   # Re of a branch's seeds
BRANCH_STEPS = 6     # fixed-point steps of the branch map before Newton


@dataclass(frozen=True)
class PlaneWave:
    """Travelling-wave solution a*exp(i(Omega*t - k1*m - k2*n)).

    ``k_tau = k_plus - Omega*tau`` is the phase picked up over one delay,
    ``R = C*cos(k_minus)`` the effective coupling of the mode.
    """
    a: float
    Omega: float
    wv: WaveVector
    k_tau: float
    R: float

    @property
    def a2(self) -> float:
        return self.a * self.a


class StabilityClass(Enum):
    STABLE = "stable"
    STRONG_UNSTABLE = "strong"
    UNIFORM_UNSTABLE = "uniform"
    MODULATIONAL_UNSTABLE = "modulational"


@dataclass(frozen=True)
class StabilityVerdict:
    cls: StabilityClass
    max_growth: float
    witness: tuple  # (omega, q_minus, q_plus) of the most unstable perturbation
    # the Newton sweep's work, summed over the perturbation modes it swept
    # (branch seeds and any refinement seeds), and the number of points of
    # its certificate's line Re lambda = max_growth + LINE_GAP, or the
    # window's left edge + LINE_GAP where no root but the trivial one is
    # kept, that were sampled
    seeds: int = 0
    converged: int = 0
    kept: int = 0
    line_samples: int = 0


def _branch_range(beta: float, C: float, tau: float) -> range:
    # pseudo-continuous roots near Im lambda in beta +- C need branches
    # around j ~ Omega*tau/(2*pi), plus 6 on either side
    span = (abs(beta) + C + 1.0) * tau / TWO_PI
    J = min(MAX_BRANCH, int(math.ceil(span)) + 6)
    return range(-J, J + 1)


def sl_stst_eigenvalues(params: SLParams, C: float, tau: float,
                        wv: WaveVector) -> RootSet:
    """Exact eigenvalues of the zero steady state for one Fourier mode.

    lambda_j = alpha + i*beta + W_j(tau*R*exp(i*k_plus - (alpha+i*beta)*tau))/tau
    with R = C*cos(k_minus). When the delayed term vanishes (R = 0) the
    single instantaneous eigenvalue alpha + i*beta is returned.
    """
    check_delay(tau)
    check_coupling(C)
    if tau == 0:
        raise ValueError("tau must be > 0")
    alpha, beta = params.alpha, params.beta
    mu = complex(alpha, beta)
    R = C * math.cos(wv.k_minus)
    if R == 0.0:
        return RootSet(roots=np.array([mu]))
    # work with log z: for strongly stable alpha the argument of W exceeds
    # the double-precision exponent range
    log_z = (math.log(tau * abs(R)) - alpha * tau
             + 1j * (wv.k_plus - beta * tau + (math.pi if R < 0 else 0.0)))
    w = lambert_w_log(np.array(_branch_range(beta, C, tau)), log_z)
    lam = mu + w / tau
    # factor of the characteristic product for this mode
    resid = np.abs(-lam + mu + np.exp(log_z - w) / tau)
    roots = lam[resid <= 1e-10 * np.maximum(1.0, np.abs(lam))]
    return RootSet(roots=roots)


def sl_stst_pcs(params: SLParams, C: float, k_minus: float,
                Omega) -> np.ndarray:
    """Asymptotic growth curve of the steady state:
    gamma = -1/2 * log[(alpha^2 + (beta-Omega)^2) / (C^2 cos^2 k_minus)].
    """
    check_coupling(C)
    R2 = (C * math.cos(k_minus)) ** 2
    # cos(pi/2) rounds to ~6e-17, so compare with a tolerance
    if R2 < 1e-24:
        raise ValueError("C*cos(k_minus) vanishes: the mode is decoupled, "
                         "gamma = -inf")
    Omega = np.asarray(Omega, dtype=float)
    gamma = -0.5 * np.log((params.alpha ** 2 + (params.beta - Omega) ** 2) / R2)
    return gamma if gamma.ndim else float(gamma)


def sl_hopf_threshold(params: SLParams, C: float, tau: float,
                      spec: LatticeSpec) -> float:
    """The alpha at which the rightmost steady-state eigenvalue over all
    modes crosses zero, by bisection on alpha in -C +- max(2, C) to a
    bracket width of 1e-6. Each alpha, the two ends too, asks whether
    some mode is unstable."""
    check_delay(tau)
    check_coupling(C)
    if tau == 0.0:
        # instantaneous eigenvalue alpha + C cos(k_minus) e^{i k_plus};
        # most unstable mode is k_plus = k_minus = 0
        return -C
    lo, hi = -C - max(2.0, C), -C + max(2.0, C)
    modes = enumerate_modes(spec)

    def unstable_mode(alpha, first):
        # the first mode with Re(lambda) >= 0, trying `first` before the rest
        prm = SLParams(alpha, params.beta)
        order = [first] + [i for i in range(len(modes)) if i != first]
        return next((i for i in order if sl_stst_eigenvalues(
            prm, C, tau, modes[i]).max_real() >= 0), None)

    last = unstable_mode(hi, 0)
    if last is None or unstable_mode(lo, 0) is not None:
        end = f"alpha={hi} stable" if last is None else f"alpha={lo} unstable"
        raise ArithmeticError(f"no sign change of the rightmost eigenvalue "
                              f"on alpha in [{lo}, {hi}]: {end}")
    # try the mode that was unstable last time first
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        hit = unstable_mode(mid, last)
        if hit is None:
            lo = mid
        else:
            hi, last = mid, hit
    return 0.5 * (lo + hi)


def sl_enumerate_plane_waves(params: SLParams, C: float, tau: float,
                             spec: LatticeSpec) -> list[PlaneWave]:
    """All plane waves of the lattice: one per Kepler root with positive
    squared amplitude. Zero-amplitude solutions (the Hopf points) are
    dropped. Output is sorted by mode index, then frequency."""
    check_delay(tau)
    check_coupling(C)
    alpha, beta = params.alpha, params.beta
    waves = []
    for wv in enumerate_modes(spec):
        R = C * math.cos(wv.k_minus)
        for Om in solve_kepler(beta, R, wv.k_plus, tau):
            k_tau = wv.k_plus - Om * tau
            a2 = alpha + R * math.cos(k_tau)
            if a2 > 0.0:
                waves.append(PlaneWave(a=math.sqrt(a2), Omega=float(Om),
                                       wv=wv, k_tau=float(k_tau), R=R))
    return waves


def sl_floquet_chi(wave: PlaneWave, lam, q_plus: float, q_minus: float,
                   C: float, tau: float):
    """Exact Floquet characteristic function chi(lambda; q_minus, q_plus)
    of a plane wave. Accepts scalar or array lambda."""
    check_coupling(C)
    val, _ = _chi_and_deriv(wave, C, tau, q_plus, q_minus)[0](
        np.asarray(lam, dtype=complex), 0)
    return val if val.ndim else complex(val)


def _chi_coeffs(wave: PlaneWave, C: float, q_minus):
    """Coefficients (P, c, G, Q, Rp, Rm) of the Floquet function of the
    perturbation mode q_minus, a number or an array:
    chi = lambda^2 + 2 P lambda + c - ((P + lambda) G - Q) e1 + Rp Rm e1^2
    with e1 = exp(-lambda tau + i q_plus)."""
    a2, R, kt = wave.a2, wave.R, wave.k_tau
    # cos(+-pi/2) rounds to +-6e-17, with a sign that differs between q
    # and -q; a coupling that vanishes is exactly 0, so that
    # chi(lambda; -q) = conj chi(conj lambda; q) holds on even tori too
    cp, cm = np.cos(wave.wv.k_minus + q_minus), np.cos(wave.wv.k_minus - q_minus)
    Rp = np.where(np.abs(cp) < 1e-12, 0.0, C * cp)
    Rm = np.where(np.abs(cm) < 1e-12, 0.0, C * cm)
    P = a2 + R * math.cos(kt)
    G = Rp * cmath.exp(1j * kt) + Rm * cmath.exp(-1j * kt)
    Hd = Rp * cmath.exp(1j * kt) - Rm * cmath.exp(-1j * kt)
    const = R * R + 2.0 * R * a2 * math.cos(kt)
    Q = 1j * R * math.sin(kt) * Hd
    return P, const, G, Q, Rp, Rm


def _chi_and_deriv(wave: PlaneWave, C: float, tau: float, q_plus, q_minus):
    """Two callables of the perturbation modes (q_plus[k], q_minus[k]),
    elementwise: (lambda, k) -> (chi, d chi / d lambda), and (lambda, k) ->
    |lambda|^2 + 2|P||lambda| + |c| + |S||e1|^2 + (|P| + |lambda|)|G||e1|
    + |Q||e1|, the sum of the moduli of chi's terms (``_chi_coeffs``).
    q_plus and q_minus are numbers or arrays of one length."""
    check_delay(tau)
    q_plus, q_minus = np.atleast_1d(q_plus), np.atleast_1d(q_minus)
    P, const, G, Q, Rp, Rm = _chi_coeffs(wave, C, q_minus)
    # where both couplings vanish chi is p: e1 = 0 there, so that no
    # overflow of e1 far left turns 0 * e1 into NaN
    iqp = np.where((Rp == 0.0) & (Rm == 0.0), -np.inf, 0.0) + 1j * q_plus
    # complex tables: a real one times a complex array is much slower;
    # each product keeps the grouping of the one-mode formula
    S = (Rp * Rm).astype(complex)
    T = (2.0 * tau * Rp * Rm).astype(complex)

    def fdf(lam, k):
        e1 = np.exp(-lam * tau + iqp[k])
        G_k = G[k]
        lin = (P + lam) * G_k - Q[k]
        chi = lam * lam + 2.0 * P * lam + const + S[k] * e1 * e1 - lin * e1
        dchi = (2.0 * lam + 2.0 * P - T[k] * e1 * e1
                - G_k * e1 + tau * lin * e1)
        return chi, dchi

    def terms(lam, k):
        e = np.exp(-lam.real * tau + iqp[k].real)     # |e1|
        m = np.abs(lam)
        return (m * m + 2.0 * abs(P) * m + abs(const) + (
            np.abs(S[k]) * e + (abs(P) + m) * np.abs(G[k]) + np.abs(Q[k])) * e)

    return fdf, terms


def sl_strong_spectrum(wave: PlaneWave, params: SLParams, C: float):
    """Delay-free strong spectrum of a plane wave and the amplitude
    threshold a_S below which at least one strong eigenvalue is unstable."""
    check_coupling(C)
    # the roots of chi's delay-free part lambda^2 + 2 P lambda + c
    P, const = _chi_coeffs(wave, C, 0.0)[:2]
    root = cmath.sqrt(P * P - const)
    lam_p, lam_m = -P + root, -P - root
    alpha, R = params.alpha, wave.R
    if alpha <= math.sqrt(2.0) * abs(R):
        a_s2 = alpha / 2.0
    else:
        a_s2 = 0.5 * (alpha + math.sqrt(alpha * alpha - 2.0 * R * R))
    a_s = math.sqrt(max(a_s2, 0.0))
    return lam_p, lam_m, a_s


def _multipliers(wave: PlaneWave, C: float, lam, q_minus):
    """The two roots e1 = Y+-(lambda) of chi(lambda; q_minus) = 0 read as a
    quadratic in e1 = exp(-lambda tau + i q_plus): S e1^2 - 2 h e1 + p = 0
    with S = Rp Rm, h = ((P + lambda) G - Q)/2, p the delay-free part of
    chi and root the principal square root of h^2 - S p. The root of
    larger modulus comes from this formula, the other from Vieta's
    Y+ Y- = p/S, so it keeps its digits where h +- root cancels. Where a
    coupling vanishes (S = 0) the quadratic is linear, and both are its
    one root p/(2h); where h = 0 too, chi = p has no root in e1, and both
    are inf (gamma = -inf). Elementwise over lam and q_minus."""
    P, const, G, Q, Rp, Rm = _chi_coeffs(wave, C, q_minus)
    S = Rp * Rm
    h = 0.5 * ((P + lam) * G - Q)
    p = lam * lam + 2.0 * P * lam + const
    root = np.sqrt(h * h - S * p)
    plus = np.abs(h + root) >= np.abs(h - root)
    big = np.where(plus, h + root, h - root)
    # big = 0 only where h = S p = 0: no root if S = 0, else a double 0
    none = big == 0.0
    small = np.where(none, np.where(S == 0.0, np.inf, 0.0),
                     p / np.where(none, 1.0, big))
    far = np.where(S == 0.0, small, big / np.where(S == 0.0, 1.0, S))
    return np.where(plus, far, small), np.where(plus, small, far)


def sl_floquet_pcs_Y(wave: PlaneWave, C: float, omega, q_minus):
    """The two multiplier branches Y+-(omega, q_minus) of the asymptotic
    Floquet spectrum: the roots of chi(i omega) in e1 (``_multipliers``
    at lambda = i omega)."""
    check_coupling(C)
    if C == 0.0:
        raise ValueError("C = 0: every mode is decoupled, gamma = -inf")
    return _multipliers(wave, C, 1j * np.asarray(omega, dtype=float),
                        np.asarray(q_minus, dtype=float))


def sl_floquet_pcs(wave: PlaneWave, C: float, omega, q_minus):
    """Asymptotic growth rates (gamma_plus, gamma_minus) of perturbations
    with temporal frequency omega and spatial mode q_minus."""
    Yp, Ym = sl_floquet_pcs_Y(wave, C, omega, q_minus)
    with np.errstate(divide="ignore"):
        gp = -np.log(np.abs(Yp))
        gm = -np.log(np.abs(Ym))
    if gp.ndim == 0:
        return float(gp), float(gm)
    return gp, gm


def _branch_seeds(wave: PlaneWave, C: float, tau: float, q_plus, q_minus,
                  window: tuple, strong):
    """Newton seeds for the roots of chi in the window, for the modes
    (q_plus[k], q_minus[k]). Every root lies on a branch
    lambda = (i q_plus - Log Y+-(lambda) - 2 pi i j)/tau. Each branch
    (j, +-) starts at s + i (q_plus - 2 pi j)/tau for each of the
    ``BRANCH_OFFSETS`` s, over the j whose starts span Im of the window and
    3 more on either side, and takes ``BRANCH_STEPS`` fixed-point steps of
    its map. The roots of chi's delay-free part (``strong``) seed every
    mode too; they are all the roots of a mode whose two couplings vanish
    (chi = p), which has no branches. Returns the seeds and their modes."""
    _, _, im_min, im_max = window
    j_lo = np.floor((q_plus - im_max * tau) / TWO_PI).astype(int) - 3
    j_hi = np.ceil((q_plus - im_min * tau) / TWO_PI).astype(int) + 3
    Rp, Rm = _chi_coeffs(wave, C, q_minus)[4:]
    n_j = np.where((Rp == 0.0) & (Rm == 0.0), 0, j_hi - j_lo + 1)
    k = np.repeat(np.arange(q_plus.size), n_j)
    j = np.arange(k.size) - np.repeat(np.cumsum(n_j) - n_j - j_lo, n_j)
    shift = 1j * (q_plus[k] - TWO_PI * j)
    # (multiplier +-, offset, branch)
    lam = np.array(BRANCH_OFFSETS)[:, None] + shift / tau
    lam = np.stack([lam, lam])
    for _ in range(BRANCH_STEPS):
        Yp, Ym = _multipliers(wave, C, lam, q_minus[k])
        lam = (shift - np.log(np.stack([Yp[0], Ym[1]]))) / tau
    return (np.concatenate([lam.ravel(), np.tile(strong, q_plus.size)]),
            np.concatenate([np.tile(k, 2 * len(BRANCH_OFFSETS)),
                            np.repeat(np.arange(q_plus.size), strong.size)]))


def _tail_bound(wave: PlaneWave, C: float, tau: float, q_minus, sigma: float,
                strong) -> np.ndarray:
    """W per mode with |chi/p - 1| < 1/2 on Re lambda = sigma wherever
    |Im lambda| >= W. There |e1| = E = e^{-sigma tau},
    |chi - p| <= |S| E^2 + ((|P| + |sigma| + |Im lambda|) |G| + |Q|) E, and
    |p| >= u^2 with u = |Im lambda| - b, b the largest |Im| of p's roots
    ``strong``; W = b + u at the largest root of u^2/2 = |chi - p|. A
    coefficient that vanishes adds nothing, even where E overflows; where
    one that does not vanishes meets an overflow, W is inf."""
    P, _, G, Q, Rp, Rm = _chi_coeffs(wave, C, q_minus)
    b = float(np.max(np.abs(strong.imag)))
    with np.errstate(over="ignore", invalid="ignore"):
        E = np.exp(-sigma * tau)
        gE, qE, sE = (np.where(c == 0.0, 0.0, c * E) for c in (
            np.abs(G), np.abs(Q), np.sqrt(np.abs(Rp * Rm))))
        K = sE * sE + (abs(P) + abs(sigma) + b) * gE + qE
        return b + gE + np.sqrt(gE * gE + 2.0 * K)


def _rightmost(modes: list, sets: list) -> tuple:
    """The largest real part over the root sets of the modes, excluding the
    trivial root at (lambda=0, q=0), and (omega, q_minus, q_plus) of the
    first root in mode-then-root order that attains it."""
    max_growth = -np.inf
    witness = (0.0, 0.0, 0.0)
    for q, rs in zip(modes, sets):
        lam = rs.roots
        if (q.k1, q.k2) == (0, 0):
            lam = lam[np.abs(lam) >= TRIVIAL_EXCLUSION_RADIUS]
        if lam.size and lam.real.max() > max_growth:
            i = int(np.argmax(lam.real))
            max_growth = float(lam[i].real)
            witness = (float(lam[i].imag), q.k_minus, q.k_plus)
    return max_growth, witness


def sl_floquet_exact(wave: PlaneWave, params: SLParams, C: float, tau: float,
                     spec: LatticeSpec) -> StabilityVerdict:
    """Stability verdict of a plane wave from the exact quasi-polynomial,
    certified by a root count.

    One Newton sweep from the branch seeds (``_branch_seeds``) locates the
    characteristic roots in the window Re in [-2, max(1, 2*alpha)],
    Im in [-(3|beta|+3), 3|beta|+3] of one perturbation mode
    q = (q_plus, q_minus) of each pair {q, -q} of the lattice
    (``enumerate_mode_classes``): chi(lambda; -q) = conj chi(conj lambda; q),
    so the roots of -q are the conjugates of those of q, with the same real
    parts. The verdict follows from the maximal real part, excluding the
    trivial root at (lambda=0, q=0); its witness names the representative
    mode.

    The certificate counts the roots of each mode right of
    Re lambda = max(max_growth, Re min of the window) + ``LINE_GAP``
    (``count_roots_right``): none, but for the trivial root in q = 0 when
    that line lies left of 0. On any other count one refinement pass adds
    Newton seeds at the minima of |chi| on the line in the modes that
    failed, takes the maximum again and counts again; a count still wrong
    raises ArithmeticError.
    The verdict reports the seeds, converged seeds and kept roots, summed
    over the modes swept, and the points of the line sampled."""
    check_delay(tau)
    check_coupling(C)
    if tau == 0.0:
        raise ValueError("tau must be > 0: the Floquet branches need a delay")
    alpha, beta = params.alpha, params.beta
    window = (-2.0, max(1.0, 2.0 * alpha), -(3.0 * abs(beta) + 3.0),
              3.0 * abs(beta) + 3.0)
    modes = enumerate_mode_classes(spec)
    q_plus = np.array([q.k_plus for q in modes])
    q_minus = np.array([q.k_minus for q in modes])
    fdf, terms = _chi_and_deriv(wave, C, tau, q_plus, q_minus)
    lam_p, lam_m, a_s = sl_strong_spectrum(wave, params, C)
    strong = np.array([lam_p, lam_m])
    trivial = np.array([(q.k1, q.k2) == (0, 0) for q in modes])
    seeds, k = _branch_seeds(wave, C, tau, q_plus, q_minus, window, strong)
    step = math.pi / (8.0 * tau)
    line_samples = 0
    for refined in (False, True):
        sets = find_roots_seeded(fdf, seeds, k, len(modes), window, terms)
        max_growth, witness = _rightmost(modes, sets)
        # a window with no root but the trivial one has max_growth -inf
        sigma = max(max_growth, window[0]) + LINE_GAP
        W = _tail_bound(wave, C, tau, q_minus, sigma, strong)
        counts, n, z, kz = count_roots_right(fdf, len(modes), sigma, strong,
                                             W, step)
        line_samples += n
        expected = (trivial & (sigma < 0.0)).astype(int)
        wrong = np.flatnonzero(counts != expected)
        if not wrong.size:
            break
        if refined:
            i = wrong[0]
            raise ArithmeticError(
                f"Floquet certificate: mode (k1, k2) = ({modes[i].k1}, "
                f"{modes[i].k2}) has {counts[i]} roots right of Re lambda = "
                f"{sigma!r}, expected {expected[i]}; counts of all modes "
                f"{counts.tolist()}")
        fail = np.isin(kz, wrong)
        seeds = np.concatenate([seeds, z[fail]])
        k = np.concatenate([k, kz[fail]])

    if max_growth <= STABILITY_TOL:
        cls = StabilityClass.STABLE
    elif wave.a < a_s - 1e-12:
        cls = StabilityClass.STRONG_UNSTABLE
    elif math.cos(wave.k_tau) < 0.0:
        cls = StabilityClass.UNIFORM_UNSTABLE
    else:
        cls = StabilityClass.MODULATIONAL_UNSTABLE
    return StabilityVerdict(cls=cls, max_growth=max_growth, witness=witness,
                            seeds=sum(rs.seeds for rs in sets),
                            converged=sum(rs.converged for rs in sets),
                            kept=sum(len(rs) for rs in sets),
                            line_samples=line_samples)


def sl_neutral_amplitude(alpha: float, C: float, k_minus: float) -> np.ndarray:
    """Real roots a^2 of the neutral-stability cubic for waves with spatial
    mode k_minus. The largest root is the sideband (Eckhaus-type) threshold."""
    check_coupling(C)
    R = C * math.cos(k_minus)
    s2 = math.sin(k_minus) ** 2
    c2 = -2.5 * alpha
    c1 = 2.0 * alpha * alpha - 0.5 * R * R * (1.0 + 2.0 * s2)
    c0 = -0.5 * alpha ** 3 + 0.5 * R * R * alpha * (1.0 + s2)
    return solve_cubic_real(1.0, c2, c1, c0)


def sl_alpha0(k_minus: float, k_tau: float, C: float) -> float:
    """Minimal alpha at which a wave with given (k_minus, k_tau) stabilizes."""
    check_coupling(C)
    R = C * math.cos(k_minus)
    denom = math.cos(k_minus) ** 2 - math.sin(k_tau) ** 2
    if denom == 0.0:
        raise ZeroDivisionError(
            f"pole: cos^2(k_minus) = sin^2(k_tau) at k_minus={k_minus}, "
            f"k_tau={k_tau}")
    return R * math.cos(k_tau) * (1.0 - 2.0 * denom) / denom


def sl_hessian_at_trivial(wave: PlaneWave) -> np.ndarray:
    """Closed-form Hessian of the trivial-branch growth surface at
    (omega, q_minus) = (0, 0). Only valid for cos(k_tau) > 0; the regime
    cos(k_tau) <= 0 is uniformly unstable and rejected."""
    a2, R, kt = wave.a2, wave.R, wave.k_tau
    km = wave.wv.k_minus
    ck = math.cos(kt)
    if ck <= 0.0:
        raise ValueError("uniform-instability regime: cos(k_tau) <= 0")
    sk = math.sin(kt)
    h_ww = ((R / a2) * (sk * sk / ck) - 1.0) / (R * R * ck * ck)
    h_qq = (-1.0 + R * math.tan(km) ** 2 / (a2 * ck ** 3)
            + math.tan(km) ** 2 * math.tan(kt) ** 2)
    h_wq = math.tan(km) * math.tan(kt) / (a2 * ck * ck)
    return np.array([[h_ww, h_wq], [h_wq, h_qq]])


def hessian_negative_definite(H: np.ndarray) -> bool:
    return H[0, 0] < 0.0 and float(np.linalg.det(H)) > 0.0


def plane_wave_invariant_residuals(wave: PlaneWave, params: SLParams) -> tuple:
    """Residuals of the defining relations of a plane wave: amplitude,
    frequency, and the circle identity."""
    r_a = wave.a2 - (params.alpha + wave.R * math.cos(wave.k_tau))
    r_om = wave.Omega - (params.beta + wave.R * math.sin(wave.k_tau))
    r_circ = ((wave.a2 - params.alpha) ** 2
              + (wave.Omega - params.beta) ** 2 - wave.R ** 2)
    return r_a, r_om, r_circ
