import cmath
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from delaylattice import sl
from delaylattice.core import (LatticeSpec, Model, SLParams, WaveVector,
                              enumerate_mode_classes, enumerate_modes)
from delaylattice.roots import (RootSet, count_roots_right,
                                find_roots_seeded, newton)
from delaylattice.sl import (_chi_and_deriv, hessian_negative_definite,
                             plane_wave_invariant_residuals, sl_alpha0,
                             sl_enumerate_plane_waves, sl_floquet_chi,
                             sl_floquet_exact, sl_floquet_pcs,
                             sl_floquet_pcs_Y,
                             sl_hessian_at_trivial, sl_hopf_threshold,
                             sl_neutral_amplitude, sl_stst_eigenvalues,
                             sl_stst_pcs, sl_strong_spectrum)


def make_spec(M, N, alpha, beta, C):
    return LatticeSpec(rows=M, cols=N, model=Model.STUART_LANDAU,
                       params=SLParams(alpha=alpha, beta=beta), coupling=C)


HOMOG = WaveVector(0.0, 0.0)


# ---------------------------------------------------------------------------
# steady-state spectrum

def test_stst_zero_coupling():
    rs = sl_stst_eigenvalues(SLParams(-2.0, 0.5), 0.0, 20.0, HOMOG)
    assert len(rs) == 1
    assert rs.roots[0] == pytest.approx(-2.0 + 0.5j, abs=1e-14)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: sl_stst_eigenvalues treats a mode as decoupled only "
    "when R == 0.0 exactly; at k_minus = pi/2, R = C*6.1e-17 and the "
    "Lambert-W branches run on; perfbench/reference.json stores the "
    "129 roots of 6 such spectrum modes"))
def test_stst_decoupled_mode_at_half_pi_has_one_eigenvalue():
    # mode (pi, 0) of the 6x6 torus of the stability-sweep spectrum gives
    # 129 roots, the rightmost at Re -0.18738548999825166
    rs = sl_stst_eigenvalues(SLParams(-2.5, 0.5), 2.0, 200.0,
                             WaveVector(math.pi, 0.0))
    assert rs.roots.tolist() == [-2.5 + 0.5j]


@pytest.mark.xfail(strict=True, reason=(
    "known defect: MAX_BRANCH = 64 caps the Lambert-W branches, so at "
    "tau = 1000 only 129 of the 636 roots of the pseudo-continuous band "
    "|Im lambda - beta| <= |R| come back (ROADMAP item 14)"))
def test_stst_returns_the_whole_band_at_long_delay():
    # the band holds about 2|R| tau / (2 pi) roots, one per branch
    rs = sl_stst_eigenvalues(SLParams(-2.5, 0.5), 2.0, 1000.0, HOMOG)
    assert np.count_nonzero(np.abs(rs.roots.imag - 0.5) <= 2.0) == 636


def test_stst_critical_case():
    # alpha = -C is the critical point in the large-delay limit
    rs = sl_stst_eigenvalues(SLParams(-2.0, 0.5), 2.0, 20.0, HOMOG)
    assert abs(rs.max_real()) < 5e-3


def test_stst_stable_case():
    rs = sl_stst_eigenvalues(SLParams(-2.5, 0.5), 2.0, 20.0, HOMOG)
    assert rs.max_real() < 0.0


def test_stst_roots_satisfy_characteristic_factor():
    params = SLParams(-2.0, 0.5)
    wv = WaveVector(2 * math.pi / 3, 4 * math.pi / 3)
    rs = sl_stst_eigenvalues(params, 2.0, 20.0, wv)
    mu = complex(params.alpha, params.beta)
    R = 2.0 * math.cos(wv.k_minus)
    for lam in rs.roots:
        resid = -lam + mu + R * cmath.exp(1j * wv.k_plus - lam * 20.0)
        assert abs(resid) < 1e-9


def test_stst_finds_every_branch_root_near_branch_point():
    # alpha=0.5, beta=0, C=2, tau=0.5, (k1, k2)=(pi/2, pi): W_{-1} once
    # converged onto W_0's root, so the spectrum held a duplicate and
    # missed the unstable root, and the rest state looked stable
    rs = sl_stst_eigenvalues(SLParams(0.5, 0.0), 2.0, 0.5,
                             WaveVector(math.pi / 2, math.pi))
    assert len(rs) == 15
    gaps = np.abs(rs.roots[:, None] - rs.roots[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > 1e-8
    assert rs.max_real() == pytest.approx(0.27928805037412, abs=1e-9)


def test_stst_keeps_every_branch_where_z_underflows():
    # alpha=2, tau=400: log z = log(800) - 800, so exp(log z) underflows to
    # 0 and every branch j != 0 needs the log form of W; one root per
    # branch j = -64..64 passes the residual filter
    rs = sl_stst_eigenvalues(SLParams(2.0, 0.0), 2.0, 400.0, HOMOG)
    assert len(rs) == 129
    # every root solves lambda = mu + R exp(-lambda tau) on its own
    lam = rs.roots
    resid = np.abs(-lam + 2.0 + 2.0 * np.exp(-lam * 400.0))
    assert np.all(resid <= 1e-10 * np.abs(lam))


def test_stst_pcs_zero_at_threshold():
    assert sl_stst_pcs(SLParams(-2.0, 0.5), 2.0, 0.0, 0.5) == pytest.approx(
        0.0, abs=1e-14)


def test_stst_pcs_stable_value():
    got = sl_stst_pcs(SLParams(-2.5, 0.5), 2.0, 0.0, 0.5)
    assert got == pytest.approx(-math.log(1.25), abs=1e-12)


def test_stst_pcs_maximal_at_beta():
    params = SLParams(-1.7, 0.3)
    peak = sl_stst_pcs(params, 2.0, 0.0, params.beta)
    omegas = np.linspace(-3, 3, 101)
    assert np.all(sl_stst_pcs(params, 2.0, 0.0, omegas) <= peak + 1e-12)
    assert sl_stst_pcs(params, 2.0, 0.4, params.beta) <= peak


def test_stst_pcs_decoupled_mode():
    with pytest.raises(ValueError):
        sl_stst_pcs(SLParams(-2.0, 0.5), 2.0, math.pi / 2, 0.5)


def test_stst_pcs_at_zero_coupling_says_the_coupling_vanishes():
    with pytest.raises(ValueError, match=r"C\*cos\(k_minus\) vanishes"):
        sl_stst_pcs(SLParams(-2.0, 0.5), 0.0, 0.3, 0.5)


def test_hopf_threshold_zero_delay():
    spec = make_spec(3, 3, -2.0, 0.5, 2.0)
    assert sl_hopf_threshold(spec.params, 2.0, 0.0, spec) == -2.0


def test_hopf_threshold_matches_asymptote():
    spec = make_spec(3, 3, -2.0, 0.5, 2.0)
    alpha_h = sl_hopf_threshold(spec.params, 2.0, 20.0, spec)
    assert abs(alpha_h + 2.0) < 0.1


def _full_maximum_hopf_bisection(params, C, tau, spec):
    """The bisection that takes the maximum over every mode at every
    midpoint: the reference for the early stop."""
    modes = enumerate_modes(spec)

    def rightmost(alpha):
        return max(sl_stst_eigenvalues(SLParams(alpha, params.beta), C, tau,
                                       wv).max_real() for wv in modes)

    lo, hi = -C - max(2.0, C), -C + max(2.0, C)
    assert rightmost(lo) < 0 < rightmost(hi)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if rightmost(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_hopf_threshold_stops_at_first_unstable_mode(monkeypatch):
    spec = make_spec(6, 6, -2.5, 0.5, 2.0)
    want = _full_maximum_hopf_bisection(spec.params, 2.0, 200.0, spec)
    calls = []

    def count(*args):
        calls.append(args)
        return sl_stst_eigenvalues(*args)

    monkeypatch.setattr(sl, "sl_stst_eigenvalues", count)
    got = sl_hopf_threshold(spec.params, 2.0, 200.0, spec)
    assert got == want == -1.9999985694885254
    # 2 end points and the stable midpoints over all 36 modes, the
    # unstable ones mostly at their first try
    assert len(calls) < 300


def test_hopf_threshold_at_long_delay_keeps_branch_zero():
    # at tau = 1000, Im log z = -beta tau = -500: branches labelled by the
    # unreduced phase miss W_0, which holds the rightmost root, and give
    # the threshold -1.9978556632995605
    rs = sl_stst_eigenvalues(SLParams(-2.5, 0.5), 2.0, 1000.0, HOMOG)
    assert rs.max_real() == pytest.approx(-2.23054888875307e-4, rel=1e-9)
    spec = make_spec(6, 6, -2.5, 0.5, 2.0)
    assert sl_hopf_threshold(spec.params, 2.0, 1000.0, spec) == -1.9999995231628418


@pytest.mark.parametrize("growth, end", [(-1.0, "alpha=0.0 stable"),
                                          (1.0, "alpha=-4.0 unstable")])
def test_hopf_threshold_names_the_end_without_a_sign_change(monkeypatch,
                                                            growth, end):
    monkeypatch.setattr(sl, "sl_stst_eigenvalues", lambda *args: RootSet(
        roots=np.array([complex(growth, 0.5)])))
    spec = make_spec(2, 2, -2.5, 0.5, 2.0)
    with pytest.raises(ArithmeticError, match=r"on alpha in \[-4.0, 0.0\]: "
                       + end):
        sl_hopf_threshold(spec.params, 2.0, 200.0, spec)


def test_large_delay_roots_approach_pcs_curve():
    params = SLParams(-2.0, 0.5)
    dists = []
    for tau in (20.0, 100.0):
        rs = sl_stst_eigenvalues(params, 2.0, tau, HOMOG)
        roots = rs.roots[np.abs(rs.roots.imag) <= 2.0]
        gam = sl_stst_pcs(params, 2.0, 0.0, roots.imag)
        dists.append(np.max(np.abs(roots.real - gam / tau)))
    assert dists[1] < dists[0]


# ---------------------------------------------------------------------------
# plane-wave family

def test_enumeration_empty_below_circle():
    spec = make_spec(3, 3, -3.0, 0.5, 2.0)
    assert sl_enumerate_plane_waves(spec.params, 2.0, 20.0, spec) == []


def test_enumeration_count_estimate_3x3():
    # expected count ~ (2 C tau / pi) * N * cot(pi / (2N)) for odd N;
    # the closed form itself carries ~15% error against the exact mode sum
    # (2 C tau / pi) * sum |cos k_minus| even as tau grows, so 16% margin
    C, tau, N = 2.0, 20.0, 3
    spec = make_spec(N, N, 3.0, 0.5, C)
    waves = sl_enumerate_plane_waves(spec.params, C, tau, spec)
    estimate = (2.0 * C * tau / math.pi) * N / math.tan(math.pi / (2 * N))
    assert abs(len(waves) / estimate - 1.0) < 0.16
    exact_sum = (2.0 * C * tau / math.pi) * sum(
        abs(math.cos(math.pi * (l - j) / N))
        for l in range(N) for j in range(N))
    assert abs(len(waves) / exact_sum - 1.0) < 0.02


def test_enumerated_wave_invariants():
    spec = make_spec(4, 5, 1.5, 0.5, 2.0)
    waves = sl_enumerate_plane_waves(spec.params, 2.0, 20.0, spec)
    assert waves
    for w in waves:
        r_a, r_om, r_circ = plane_wave_invariant_residuals(w, spec.params)
        assert abs(r_a) < 1e-12
        assert abs(r_om) < 1e-12
        assert abs(r_circ) < 1e-10
        assert w.a > 0.0


# ---------------------------------------------------------------------------
# exact Floquet quasi-polynomial

def _sample_waves(n, seed=0, alpha=3.0, beta=0.5, C=2.0, tau=20.0, M=5, N=5):
    spec = make_spec(M, N, alpha, beta, C)
    waves = sl_enumerate_plane_waves(spec.params, C, tau, spec)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(waves), size=min(n, len(waves)), replace=False)
    return [waves[i] for i in idx], spec


def _chi_determinant_oracle(wave, params, C, tau, lam, q1, q2):
    """Independent evaluation of chi as the 2x2 determinant of the Bloch
    ansatz system, written directly from the linearized equations."""
    mu = complex(params.alpha, params.beta)
    Om = wave.Omega
    a2 = wave.a2
    k1, k2 = wave.wv.k1, wave.wv.k2
    m11 = (mu - 1j * Om - lam - 2.0 * a2
           + 0.5 * C * cmath.exp(-(lam + 1j * Om) * tau)
           * (cmath.exp(1j * (k1 + q1)) + cmath.exp(1j * (k2 + q2))))
    m22 = (mu.conjugate() + 1j * Om - lam - 2.0 * a2
           + 0.5 * C * cmath.exp(-(lam - 1j * Om) * tau)
           * (cmath.exp(-1j * (k1 - q1)) + cmath.exp(-1j * (k2 - q2))))
    return m11 * m22 - a2 * a2


def test_chi_trivial_exponent_vanishes():
    waves, spec = _sample_waves(30)
    for w in waves:
        val = sl_floquet_chi(w, 0.0, 0.0, 0.0, 2.0, 20.0)
        scale = max(1.0, w.a2 ** 2, w.R ** 2)
        assert abs(val) <= 1e-12 * scale


def test_chi_matches_determinant_oracle():
    waves, spec = _sample_waves(10, seed=3)
    rng = np.random.default_rng(11)
    for w in waves:
        for _ in range(5):
            lam = complex(rng.uniform(-1, 1), rng.uniform(-3, 3))
            q1 = rng.uniform(0, 2 * math.pi)
            q2 = rng.uniform(0, 2 * math.pi)
            qp, qm = 0.5 * (q1 + q2), 0.5 * (q1 - q2)
            got = sl_floquet_chi(w, lam, qp, qm, 2.0, 20.0)
            want = _chi_determinant_oracle(w, spec.params, 2.0, 20.0,
                                           lam, q1, q2)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_chi_derivative_matches_central_difference():
    # the derivative half of the one chi callable against its value half
    waves, _ = _sample_waves(8, seed=7)
    rng = np.random.default_rng(13)
    h = 1e-6
    for w in waves:
        qp, qm = rng.uniform(0, 2 * math.pi, 2)
        fdf = _chi_and_deriv(w, 2.0, 20.0, qp, qm)[0]
        lam = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-3, 3, 6)
        _, dchi = fdf(lam, 0)
        central = (fdf(lam + h, 0)[0] - fdf(lam - h, 0)[0]) / (2 * h)
        assert np.all(np.abs(dchi - central) <= 1e-6 * np.abs(dchi))


def test_chi_conjugation_symmetry():
    # chi*(lam*, q-, -q+) at -k_tau equals chi(lam, q-, q+) at +k_tau
    from dataclasses import replace
    waves, _ = _sample_waves(8, seed=5)
    rng = np.random.default_rng(2)
    for w in waves:
        mirrored = replace(w, k_tau=-w.k_tau)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
        qp, qm = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
        lhs = sl_floquet_chi(mirrored, lam.conjugate(), -qp, qm,
                             2.0, 20.0).conjugate()
        rhs = sl_floquet_chi(w, lam, qp, qm, 2.0, 20.0)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@functools.lru_cache(maxsize=None)
def _torus_wave(n, wave_index):
    spec = make_spec(n, n, 3.0, 0.5, 2.0)
    return sl_enumerate_plane_waves(spec.params, 2.0, 20.0,
                                    spec)[wave_index], spec


# the window of sl_floquet_exact at alpha=3, beta=0.5
FLOQUET_WINDOW = (-2.0, 6.0, -4.5, 4.5)


def _mode_arrays(wave, spec, modes):
    """(q_plus, q_minus) of the modes and the two roots of chi's
    delay-free part, at C=2."""
    lam_p, lam_m, _ = sl_strong_spectrum(wave, spec.params, 2.0)
    return (np.array([q.k_plus for q in modes]),
            np.array([q.k_minus for q in modes]), np.array([lam_p, lam_m]))


def _branch_seeds(wave, spec, modes):
    """The Floquet verdict's branch seeds and their modes, at C=2, tau=20."""
    q_plus, q_minus, strong = _mode_arrays(wave, spec, modes)
    return sl._branch_seeds(wave, 2.0, 20.0, q_plus, q_minus, FLOQUET_WINDOW,
                            strong)


def _line_counts(wave, spec, modes, sigma):
    """The certificate's count of the roots right of Re lambda = sigma in
    each of the modes, at C=2, tau=20."""
    q_plus, q_minus, strong = _mode_arrays(wave, spec, modes)
    return count_roots_right(
        _chi_and_deriv(wave, 2.0, 20.0, q_plus, q_minus)[0], len(modes), sigma,
        strong, sl._tail_bound(wave, 2.0, 20.0, q_minus, sigma, strong),
        math.pi / (8.0 * 20.0))[0]


def test_floquet_verdict_reports_its_sweep_counts():
    # wave 100 of the 5x5 torus: the branch seeds of its 13 classes, with
    # no refinement seeds, and the samples of one count
    wave, spec = _torus_wave(5, 100)
    v = sl_floquet_exact(wave, spec.params, 2.0, 20.0, spec)
    assert (v.seeds, v.converged, v.kept) == (4786, 4773, 753)
    assert v.seeds == _branch_seeds(wave, spec,
                                    enumerate_mode_classes(spec))[0].size
    assert v.line_samples == 400
    # the grid sweep read 0.48339366557540064
    assert v.max_growth == 0.4833936655754007
    assert abs(v.max_growth - 0.48339366557540064) <= 1e-15


# (torus side, wave, lowest Re lambda). On the 4x4 torus some
# cos(k_minus +- q_minus) are cos(+-pi/2); their couplings are exactly 0,
# so the symmetry holds over the whole window there too
SYMMETRY_CASES = [(5, 100, -2.0), (5, 395, -2.0), (4, 125, -2.0)]


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(SYMMETRY_CASES), mode=st.integers(0, 24),
       re=st.floats(0.0, 1.0), im=st.floats(-4.5, 4.5))
@example(case=SYMMETRY_CASES[0], mode=7, re=0.3, im=-2.0)
def test_chi_of_the_negative_mode_is_the_conjugate(case, mode, re, im):
    # chi(lambda; -q) = conj chi(conj lambda; q), where -q is the lattice
    # mode ((-l) mod M, (-j) mod N) of q = (l, j)
    n, wave_index, re_min = case
    wave, spec = _torus_wave(n, wave_index)
    modes = enumerate_modes(spec)
    l, j = divmod(mode % len(modes), n)
    q, neg = modes[l * n + j], modes[(-l) % n * n + (-j) % n]
    lam = complex(re_min + re * (6.0 - re_min), im)
    lhs = sl_floquet_chi(wave, lam, neg.k_plus, neg.k_minus, 2.0, 20.0)
    rhs = sl_floquet_chi(wave, lam.conjugate(), q.k_plus, q.k_minus,
                         2.0, 20.0).conjugate()
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("wave_index, cls", [
    (100, "strong"), (258, "modulational"), (339, "strong"), (395, "strong"),
    (194, "stable"), (350, "uniform")])
def test_floquet_verdict_over_classes_matches_all_modes(
        monkeypatch, wave_index, cls):
    # the verdict from one mode of each pair {q, -q} against the one from
    # the maximum over every mode's roots
    wave, spec = _torus_wave(5, wave_index)
    v = sl_floquet_exact(wave, spec.params, 2.0, 20.0, spec)
    monkeypatch.setattr(sl, "enumerate_mode_classes", enumerate_modes)
    full = sl_floquet_exact(wave, spec.params, 2.0, 20.0, spec)
    modes = enumerate_modes(spec)
    per_mode = np.bincount(_branch_seeds(wave, spec, modes)[1])
    reps = [modes.index(q) for q in enumerate_mode_classes(spec)]
    assert v.seeds == per_mode[reps].sum() and full.seeds == per_mode.sum()
    assert v.cls.value == full.cls.value == cls
    assert abs(v.max_growth - full.max_growth) <= 1e-13


# ---------------------------------------------------------------------------
# the certificate: a root count right of a vertical line

def test_count_right_of_the_axis_of_wave_395():
    # the unstable roots at sigma = 1e-7: 170 over the 13 classes, 321 over
    # the 25 modes (a root of a class off its own mirror counts once there,
    # twice over the modes)
    wave, spec = _torus_wave(5, 395)
    assert _line_counts(wave, spec, enumerate_mode_classes(spec),
                        1e-7).sum() == 170
    assert _line_counts(wave, spec, enumerate_modes(spec),
                        1e-7).sum() == 321


@pytest.mark.parametrize("wave_index", [100, 395])
def test_count_right_of_the_maximum_is_zero(wave_index):
    wave, spec = _torus_wave(5, wave_index)
    v = sl_floquet_exact(wave, spec.params, 2.0, 20.0, spec)
    assert _line_counts(wave, spec, enumerate_mode_classes(spec),
                        v.max_growth + sl.LINE_GAP).tolist() == [0] * 13


def test_count_of_a_stable_wave_holds_the_trivial_root():
    # wave 194 is stable, so its line lies left of 0: the class q = 0
    # counts the trivial root lambda = 0, every other class nothing
    wave, spec = _torus_wave(5, 194)
    v = sl_floquet_exact(wave, spec.params, 2.0, 20.0, spec)
    assert v.cls is sl.StabilityClass.STABLE and v.max_growth < -sl.LINE_GAP
    counts = _line_counts(wave, spec, enumerate_mode_classes(spec),
                          v.max_growth + sl.LINE_GAP)
    assert counts.tolist() == [1] + [0] * 12


def test_count_left_of_the_maximum_matches_the_located_roots(monkeypatch):
    # wave 258 at max_growth - 1e-3: 4 roots, each one the verdict located
    wave, spec = _torus_wave(5, 258)
    sweeps = []

    def record(*args):
        sweeps.append(find_roots_seeded(*args))
        return sweeps[-1]

    monkeypatch.setattr(sl, "find_roots_seeded", record)
    v = sl_floquet_exact(wave, spec.params, 2.0, 20.0, spec)
    sigma = v.max_growth - 1e-3
    counts = _line_counts(wave, spec, enumerate_mode_classes(spec), sigma)
    assert len(sweeps) == 1 and counts.sum() == 4
    assert counts.tolist() == [int(np.sum(rs.roots.real > sigma))
                               for rs in sweeps[0]]


def test_count_raises_on_a_root_on_the_line():
    # the trivial root lambda = 0 of the class q = 0 lies on Re lambda = 0
    wave, spec = _torus_wave(5, 258)
    with pytest.raises(ArithmeticError, match="root on the line"):
        _line_counts(wave, spec, enumerate_mode_classes(spec), 0.0)


def _lose_the_top_root(monkeypatch, wave, spec):
    """Make the verdict's seeder drop every seed whose Newton iteration
    ends at a root of the wave's maximal real part."""
    top = sl_floquet_exact(wave, spec.params, 2.0, 20.0, spec).max_growth
    seeder = sl._branch_seeds

    def losing(wave, C, tau, q_plus, q_minus, window, strong):
        seeds, k = seeder(wave, C, tau, q_plus, q_minus, window, strong)
        fdf = _chi_and_deriv(wave, C, tau, q_plus, q_minus)[0]
        # the cap of the verdict's sweep, half the window's longer side
        end = newton(lambda z, i: fdf(z, k[i]), seeds, 4.5)[0]
        keep = np.abs(end.real - top) > 1e-9
        assert not keep.all()
        return seeds[keep], k[keep]

    monkeypatch.setattr(sl, "_branch_seeds", losing)
    return top


def test_refinement_recovers_a_root_the_seeds_lose(monkeypatch):
    # wave 258: without its top root the count right of the next one
    # fails, and Newton from the minima of |chi| on that line finds it
    wave, spec = _torus_wave(5, 258)
    top = _lose_the_top_root(monkeypatch, wave, spec)
    v = sl_floquet_exact(wave, spec.params, 2.0, 20.0, spec)
    assert v.cls is sl.StabilityClass.MODULATIONAL_UNSTABLE
    assert abs(v.max_growth - top) <= 1e-13


@pytest.mark.parametrize("wave_index", [127, 207])
def test_refinement_finds_the_root_the_branch_seeds_miss(wave_index):
    # 4x4 torus, waves (pi/2, 3pi/2) and (3pi/2, pi/2): the branch seeds
    # miss the real root 0.11152 of the class (pi, 0), resp. (0, pi), and
    # reach only 0.10776; the count right of that fails in that class, and
    # the refinement pass finds the root the grid sweep found
    wave, spec = _torus_wave(4, wave_index)
    v = sl_floquet_exact(wave, spec.params, 2.0, 20.0, spec)
    assert v.seeds > _branch_seeds(wave, spec,
                                   enumerate_mode_classes(spec))[0].size
    assert v.cls is sl.StabilityClass.MODULATIONAL_UNSTABLE
    assert abs(v.max_growth - 0.11152038268403382) <= 1e-13


def test_certificate_that_fails_twice_raises(monkeypatch):
    # the same loss, with no refinement seeds: the count stays wrong
    wave, spec = _torus_wave(5, 258)
    _lose_the_top_root(monkeypatch, wave, spec)

    def no_minima(*args):
        counts, samples, _, _ = count_roots_right(*args)
        return counts, samples, np.zeros(0, complex), np.zeros(0, int)

    monkeypatch.setattr(sl, "count_roots_right", no_minima)
    with pytest.raises(ArithmeticError, match="Floquet certificate"):
        sl_floquet_exact(wave, spec.params, 2.0, 20.0, spec)


@pytest.mark.parametrize("wave_index, cls, grid_growth", [
    (128, "uniform", 0.12815495253580161),
    (70, "stable", -8.402947038683004e-05)])
def test_floquet_verdict_where_couplings_vanish_stays_silent(
        wave_index, cls, grid_growth):
    # 4x4 torus. Wave 128, mode (pi, 0), has cos k_minus = cos(pi/2): in the
    # class q = 0 both couplings vanish and chi is its delay-free part, with
    # no branches. Wave 70, mode (pi/2, 0), has one vanishing coupling in
    # some classes (S = 0, one multiplier). The grid sweep's verdicts
    wave, spec = _torus_wave(4, wave_index)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = sl_floquet_exact(wave, spec.params, 2.0, 20.0, spec)
    assert v.cls.value == cls and abs(v.max_growth - grid_growth) <= 1e-13
    assert v.seeds == _branch_seeds(wave, spec,
                                    enumerate_mode_classes(spec))[0].size


def test_multipliers_where_couplings_vanish_stay_silent():
    # 4x4 torus. Wave 128 at q_minus = 0: both couplings vanish, chi = p
    # has no root in e1, so both multipliers are inf and both growth rates
    # -inf. Wave 70 at q_minus = pi/4: one coupling vanishes (S = 0), and
    # both multipliers are the root p/(2h) of the linear equation
    omega = np.array([0.0, 0.5, -1.0])
    lam = 1j * omega
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        wave, _ = _torus_wave(4, 128)
        Yp, Ym = sl_floquet_pcs_Y(wave, 2.0, omega, 0.0)
        gp, gm = sl_floquet_pcs(wave, 2.0, omega, 0.0)
        assert np.all(np.isinf(Yp)) and np.all(np.isinf(Ym))
        assert np.all(gp == -np.inf) and np.all(gm == -np.inf)
        assert sl_floquet_pcs(wave, 2.0, 0.3, 0.0) == (-np.inf, -np.inf)
        wave, _ = _torus_wave(4, 70)
        Yp, Ym = sl_floquet_pcs_Y(wave, 2.0, omega, math.pi / 4)
    P, const, G, Q, Rp, Rm = sl._chi_coeffs(wave, 2.0, math.pi / 4)
    assert Rp * Rm == 0.0 and G != 0.0
    want = (lam * lam + 2.0 * P * lam + const) / ((P + lam) * G - Q)
    assert np.array_equal(Yp, Ym)
    assert np.allclose(Yp, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("C, tau", [
    (2.0, 0.05),    # the roots but the trivial one lie far left of -2
    (0.0, 400.0)])  # e^{-lambda tau} overflows on the line Re lambda = -2
def test_floquet_verdict_with_only_the_trivial_root_is_stable(C, tau):
    # 1x1 torus: the window keeps the trivial root alone, so max_growth is
    # -inf, and the count at the window's left edge finds that root only
    spec = make_spec(1, 1, 3.0, 0.5, C)
    wave = sl_enumerate_plane_waves(spec.params, C, tau, spec)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = sl_floquet_exact(wave, spec.params, C, tau, spec)
    assert (v.cls, v.max_growth, v.kept) == (
        sl.StabilityClass.STABLE, -np.inf, 1)
    assert v.line_samples > 0


# ---------------------------------------------------------------------------
# delays: one rule, finite and >= 0

def _one_wave():
    spec = make_spec(1, 1, 3.0, 0.5, 2.0)
    return sl_enumerate_plane_waves(spec.params, 2.0, 20.0, spec)[0], spec


@pytest.mark.parametrize("tau", [math.nan, math.inf, -5.0])
def test_floquet_verdict_rejects_bad_delay(tau):
    # NaN and inf gave STABLE with max_growth -inf; -5 gave a verdict
    wave, spec = _one_wave()
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        sl_floquet_exact(wave, spec.params, 2.0, tau, spec)
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        sl_floquet_chi(wave, 0.1j, 0.0, 0.0, 2.0, tau)


def test_floquet_verdict_needs_a_delay():
    # the branches lambda = (i q_plus - Log Y - 2 pi i j)/tau need tau > 0
    wave, spec = _one_wave()
    with pytest.raises(ValueError, match="tau must be > 0"):
        sl_floquet_exact(wave, spec.params, 2.0, 0.0, spec)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -5.0])
@pytest.mark.parametrize("call", ["stst", "hopf", "waves"])
def test_steady_state_and_wave_analytics_reject_bad_delay(call, tau):
    # NaN ended in "cannot convert float NaN to integer", inf in an
    # OverflowError or a ZeroDivisionError
    spec = make_spec(2, 2, -2.5, 0.5, 2.0)
    run = {"stst": lambda: sl_stst_eigenvalues(spec.params, 2.0, tau, HOMOG),
           "hopf": lambda: sl_hopf_threshold(spec.params, 2.0, tau, spec),
           "waves": lambda: sl_enumerate_plane_waves(spec.params, 2.0, tau,
                                                     spec)}[call]
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        run()


def test_stst_eigenvalues_need_a_positive_delay():
    with pytest.raises(ValueError, match="tau must be > 0"):
        sl_stst_eigenvalues(SLParams(-2.5, 0.5), 2.0, 0.0, HOMOG)


# ---------------------------------------------------------------------------
# couplings: one rule, finite and >= 0

def _sl_coupling_calls(C):
    """Each public function of sl.py that takes a coupling C, called with
    C at beta=0.5, tau=20; at C = 0 the wave is one of the uncoupled 1x1
    torus, elsewhere of the one at C=2."""
    spec = make_spec(2, 2, -2.5, 0.5, 2.0)
    wave_spec = make_spec(1, 1, 3.0, 0.5, 0.0 if C == 0.0 else 2.0)
    wave = sl_enumerate_plane_waves(wave_spec.params, wave_spec.coupling,
                                    20.0, wave_spec)[0]
    return {
        "stst": lambda: sl_stst_eigenvalues(spec.params, C, 20.0, HOMOG),
        "stst_pcs": lambda: sl_stst_pcs(spec.params, C, 0.0, 0.5),
        "hopf": lambda: sl_hopf_threshold(spec.params, C, 20.0, spec),
        "waves": lambda: sl_enumerate_plane_waves(spec.params, C, 20.0, spec),
        "chi": lambda: sl_floquet_chi(wave, 0.1j, 0.0, 0.0, C, 20.0),
        "strong": lambda: sl_strong_spectrum(wave, wave_spec.params, C),
        "pcs_Y": lambda: sl_floquet_pcs_Y(wave, C, 0.5, 0.3),
        "pcs": lambda: sl_floquet_pcs(wave, C, 0.5, 0.3),
        "floquet": lambda: sl_floquet_exact(wave, wave_spec.params, C, 20.0,
                                            wave_spec),
        "neutral": lambda: sl_neutral_amplitude(3.0, C, 0.0),
        "alpha0": lambda: sl_alpha0(0.0, 0.0, C),
    }


# at C = 0 every mode is decoupled, where these raise on purpose
SL_DECOUPLED_AT_ZERO = {"stst_pcs", "pcs_Y", "pcs"}


@pytest.mark.parametrize("call", sorted(_sl_coupling_calls(0.0)))
def test_sl_entry_points_reject_bad_coupling(call):
    # NaN gave "cannot convert float NaN to integer" and inf an
    # OverflowError in sl_stst_eigenvalues; C = -1 gave 17 roots there
    for C in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError,
                           match="coupling C must be finite and >= 0"):
            _sl_coupling_calls(C)[call]()
    if call in SL_DECOUPLED_AT_ZERO:
        with pytest.raises(ValueError, match="decoupled"):
            _sl_coupling_calls(0.0)[call]()
    else:
        _sl_coupling_calls(0.0)[call]()


# ---------------------------------------------------------------------------
# the steady state's rightmost root is the one of branch W_0, certified by
# a root count (beta=0.5, C=2)

@pytest.mark.parametrize("n, alpha, tau", [(6, -2.5, 200.0), (5, 3.0, 20.0),
                                           (4, -1.0, 50.0), (3, 0.5, 5.0)])
def test_stst_rightmost_root_is_w0_by_a_count(n, alpha, tau):
    # in every coupled mode of the n x n torus, f = lambda - mu - R e^{i k+}
    # e^{-lambda tau} tends to p = lambda - mu, with |f/p - 1| < 1/2 where
    # |Im lambda| >= W = |beta| + 2|R| e^{-sigma tau} + 1; the count right
    # of the maximum is 0, and just left of it at least 1
    beta, C = 0.5, 2.0
    mu = complex(alpha, beta)
    spec = make_spec(n, n, alpha, beta, C)
    coupled = [wv for wv in enumerate_modes(spec)
               if abs(math.cos(wv.k_minus)) >= 1e-12]
    assert len(coupled) == {6: 30, 5: 25, 4: 12, 3: 9}[n]
    for wv in coupled:
        R = C * math.cos(wv.k_minus)
        c = R * cmath.exp(1j * wv.k_plus)
        top = sl_stst_eigenvalues(spec.params, C, tau, wv).max_real()
        w0 = mu + complex(lambertw(tau * c * cmath.exp(-mu * tau), 0)) / tau
        assert w0.real == pytest.approx(top, abs=1e-12)

        def fdf(z, k):
            e = c * np.exp(-z * tau)
            return z - mu - e, 1.0 + tau * e

        counts = [count_roots_right(
            fdf, 1, sigma, [mu],
            np.array([abs(beta) + 2.0 * abs(R) * math.exp(-sigma * tau) + 1.0]),
            math.pi / (8.0 * tau))[0][0] for sigma in (top + 1e-6, top - 1e-6)]
        assert counts[0] == 0 and counts[1] >= 1, (wv, top, counts)


# ---------------------------------------------------------------------------
# strong spectrum

def test_strong_threshold_at_alpha_zero():
    waves, spec = _sample_waves(1, alpha=3.0)
    from dataclasses import replace
    w = waves[0]
    params = SLParams(0.0, 0.5)
    _, _, a_s = sl_strong_spectrum(w, params, 2.0)
    assert a_s == 0.0


def test_strong_complex_pair():
    # small-amplitude waves (alpha below C) put the discriminant negative
    waves, spec = _sample_waves(40, seed=9, alpha=0.5)
    found = False
    for w in waves:
        disc = w.a2 ** 2 + (w.a2 - spec.params.alpha) ** 2 - w.R ** 2
        lam_p, lam_m, _ = sl_strong_spectrum(w, spec.params, 2.0)
        if disc < 0:
            found = True
            assert lam_p == pytest.approx(lam_m.conjugate(), abs=1e-12)
            assert lam_p.real == pytest.approx(
                spec.params.alpha - 2.0 * w.a2, abs=1e-12)
    assert found, "sample contained no complex-pair case"


def test_strong_threshold_case_two():
    # alpha > sqrt(2)|R|: a_S^2 = (alpha + sqrt(alpha^2 - 2 R^2)) / 2, the
    # larger root of the reduced quadratic in a^2 at lambda = 0
    alpha, R = 2.0 * math.sqrt(2.0), 1.0
    waves, _ = _sample_waves(1)
    from dataclasses import replace
    w = replace(waves[0], R=R)
    _, _, a_s = sl_strong_spectrum(w, SLParams(alpha, 0.0), 2.0)
    a2 = a_s ** 2
    # at a = a_S the larger strong eigenvalue touches zero
    assert a2 ** 2 + (a2 - alpha) ** 2 - R ** 2 == pytest.approx(
        (alpha - 2 * a2) ** 2, abs=1e-10)


def test_strong_real_parts_match_scan():
    waves, spec = _sample_waves(20, seed=13)
    for w in waves:
        lam_p, lam_m, a_s = sl_strong_spectrum(w, spec.params, 2.0)
        # roots of the reduced quadratic
        # (lam - alpha + 2a^2)^2 = a^4 + (a^2-alpha)^2 - R^2
        for lam in (lam_p, lam_m):
            lhs = (lam - spec.params.alpha + 2.0 * w.a2) ** 2
            rhs = w.a2 ** 2 + (w.a2 - spec.params.alpha) ** 2 - w.R ** 2
            assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# asymptotic Floquet (PCS) branches

def test_pcs_trivial_branch_at_origin():
    waves, _ = _sample_waves(30, seed=21)
    for w in waves:
        gp, gm = sl_floquet_pcs(w, 2.0, 0.0, 0.0)
        # one branch is the trivial multiplier, the other Y = 1 + 2a^2 cos(k_tau)/R
        assert min(abs(gp), abs(gm)) < 1e-10
        want = -math.log(abs(1.0 + 2.0 * (w.a2 / w.R) * math.cos(w.k_tau)))
        assert min(abs(gp - want), abs(gm - want)) < 1e-10
        if math.cos(w.k_tau) >= 0.0 and w.R > 0.0:
            # inside the paper's wedge the minus branch is the trivial one
            assert gm == pytest.approx(0.0, abs=1e-10)
            assert gp == pytest.approx(want, abs=1e-10)


def test_pcs_symmetries():
    waves, _ = _sample_waves(10, seed=8)
    # generic sample points: at exactly q- = +-pi/2 the quadratic is
    # ill-conditioned (cos underflows without a sign flip under q- -> q- + pi)
    om = np.linspace(-2.0, 2.0, 17) + 0.0131
    qm = np.linspace(-math.pi, math.pi, 17) + 0.0177
    OM, QM = np.meshgrid(om, qm)
    for w in waves:
        Yp, Ym = sl_floquet_pcs_Y(w, 2.0, OM, QM)
        Yp_s, Ym_s = sl_floquet_pcs_Y(w, 2.0, OM, QM + math.pi)
        assert np.max(np.abs(Yp_s + Ym) / (1.0 + np.abs(Ym))) < 1e-12
        assert np.max(np.abs(Ym_s + Yp) / (1.0 + np.abs(Yp))) < 1e-12
        Yp_r, Ym_r = sl_floquet_pcs_Y(w, 2.0, -OM, -QM)
        assert np.max(np.abs(Yp_r - np.conj(Yp)) / (1.0 + np.abs(Yp))) < 1e-12
        assert np.max(np.abs(Ym_r - np.conj(Ym)) / (1.0 + np.abs(Ym))) < 1e-12


def test_pcs_growth_symmetry():
    waves, _ = _sample_waves(5, seed=30)
    for w in waves:
        gp, gm = sl_floquet_pcs(w, 2.0, 0.7, 1.1)
        gp_r, gm_r = sl_floquet_pcs(w, 2.0, -0.7, -1.1)
        assert gp_r == pytest.approx(gp, abs=1e-12)
        assert gm_r == pytest.approx(gm, abs=1e-12)
        gp_s, gm_s = sl_floquet_pcs(w, 2.0, 0.7, 1.1 + math.pi)
        assert gp_s == pytest.approx(gm, abs=1e-12)
        assert gm_s == pytest.approx(gp, abs=1e-12)


def test_pcs_small_root_keeps_its_digits_where_a_coupling_vanishes():
    # 4x4 torus, mode (pi/2, 0), q_minus = pi/4: cos(k_minus + q_minus) is
    # cos(pi/2) = 6e-17, so S = Rp Rm is rounding noise and h - root
    # cancels. gamma_minus from a 50-digit evaluation of the same quadratic
    spec = make_spec(4, 4, 3.0, 0.5, 2.0)
    waves = sl_enumerate_plane_waves(spec.params, 2.0, 20.0, spec)
    w = next(w for w in waves if (w.wv.k1, w.wv.k2) == (math.pi / 2, 0.0))
    assert w.Omega == -0.8408444013287657
    om, qm = np.array([0.0, 0.3, 1.0]), math.pi / 4
    _, gm = sl_floquet_pcs(w, 2.0, om, qm)
    want = [0.48019706606898371, 0.37796410553377202, -0.11831840175117947]
    assert np.max(np.abs(gm - want)) < 1e-12
    # S Y^2 - 2 h Y + p = 0, the coefficients written out as in
    # _expanded_pcs_Y
    a2, R, kt, km = w.a2, w.R, w.k_tau, w.wv.k_minus
    S = 4.0 * math.cos(km + qm) * math.cos(km - qm)
    h = 2.0 * ((R + a2 * math.cos(kt)) * math.cos(km) * math.cos(qm)
               + om * math.sin(kt) * math.sin(km) * math.sin(qm)
               + 1j * (-a2 * math.sin(kt) * math.sin(km) * math.sin(qm)
                       + om * math.cos(kt) * math.cos(km) * math.cos(qm)))
    p = (R * R - om * om + 2.0 * R * a2 * math.cos(kt)
         + 2j * om * (a2 + R * math.cos(kt)))
    for Y in sl_floquet_pcs_Y(w, 2.0, om, qm):
        terms = np.abs([S * Y * Y, 2.0 * h * Y, p])
        assert np.all(np.abs(S * Y * Y - 2.0 * h * Y + p)
                      <= 1e-12 * terms.max(axis=0))


def test_pcs_at_zero_coupling_is_decoupled():
    waves, _ = _sample_waves(1, seed=3)
    with pytest.raises(ValueError, match="decoupled"):
        sl_floquet_pcs_Y(waves[0], 0.0, 0.5, 0.3)


# ---------------------------------------------------------------------------
# hand expansions of chi, kept as oracles of the values the package now
# reads off chi's coefficients

def _expanded_pcs_Y(wave, C, omega, q_minus):
    """Y+- as roots of S Y^2 - 2 (A + iB) Y + (D + iE) = 0, with chi(i omega)
    written out as five real arrays."""
    a2, R, kt = wave.a2, wave.R, wave.k_tau
    km = wave.wv.k_minus
    S = C * C * np.cos(km + q_minus) * np.cos(km - q_minus)
    A = C * ((R + a2 * math.cos(kt)) * math.cos(km) * np.cos(q_minus)
             + omega * math.sin(kt) * math.sin(km) * np.sin(q_minus))
    B = C * (-a2 * math.sin(kt) * math.sin(km) * np.sin(q_minus)
             + omega * math.cos(kt) * math.cos(km) * np.cos(q_minus))
    D = R * R - omega * omega + 2.0 * R * a2 * math.cos(kt)
    E = 2.0 * omega * (a2 + R * math.cos(kt))
    AB = A + 1j * B
    root = np.sqrt(A * A - B * B - S * D + 1j * (2.0 * A * B - S * E))
    return (AB + root) / S, (AB - root) / S


def test_pcs_Y_matches_hand_expansion():
    # grids offset from the branch cut of the principal square root
    om = np.linspace(-3.0, 3.0, 61) + 0.0131
    qm = np.linspace(-math.pi, math.pi, 60, endpoint=False) + 0.0177
    OM, QM = np.meshgrid(om, qm, indexing="ij")
    for alpha, C in ((3.0, 2.0), (0.5, 2.0), (1.5, 0.7)):
        waves, _ = _sample_waves(10, seed=5, alpha=alpha, C=C)
        for w in waves:
            for got, want in zip(sl_floquet_pcs_Y(w, C, OM, QM),
                                 _expanded_pcs_Y(w, C, OM, QM)):
                assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


def test_strong_spectrum_matches_hand_expansion():
    for alpha in (3.0, 0.5, -0.2):
        waves, spec = _sample_waves(20, seed=9, alpha=alpha)
        for w in waves:
            # lambda+- = alpha - 2a^2 +- sqrt(a^4 + (a^2 - alpha)^2 - R^2)
            root = cmath.sqrt(w.a2 ** 2 + (w.a2 - alpha) ** 2 - w.R ** 2)
            lam_p, lam_m, _ = sl_strong_spectrum(w, spec.params, 2.0)
            for got, want in ((lam_p, alpha - 2.0 * w.a2 + root),
                              (lam_m, alpha - 2.0 * w.a2 - root)):
                assert abs(got - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# neutral curve, alpha0, Hessian

def test_neutral_amplitude_eckhaus_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(20):
        alpha = rng.uniform(0.1, 5.0)
        C = rng.uniform(0.1, 4.0)
        roots = sl_neutral_amplitude(alpha, C, 0.0)
        closed = (3.0 * alpha + math.sqrt(alpha ** 2 + 8.0 * C ** 2)) / 4.0
        assert abs(roots[-1] - closed) < 1e-9


def test_neutral_amplitude_residuals():
    rng = np.random.default_rng(23)
    for _ in range(20):
        alpha = rng.uniform(-2.0, 4.0)
        C = rng.uniform(0.1, 3.0)
        km = rng.uniform(-1.2, 1.2)
        R = C * math.cos(km)
        s2 = math.sin(km) ** 2
        for a2 in sl_neutral_amplitude(alpha, C, km):
            resid = (a2 ** 3 - 2.5 * alpha * a2 ** 2
                     + (2 * alpha ** 2 - 0.5 * R ** 2 * (1 + 2 * s2)) * a2
                     - 0.5 * alpha ** 3 + 0.5 * R ** 2 * alpha * (1 + s2))
            assert abs(resid) < 1e-10 * max(1.0, abs(a2) ** 3)


def test_alpha0_synchronous_value():
    assert sl_alpha0(0.0, 0.0, 2.0) == pytest.approx(-2.0, abs=1e-14)


def test_alpha0_even_in_ktau():
    for km, kt in [(0.2, 0.4), (0.5, 1.0), (-0.3, 0.8)]:
        assert sl_alpha0(km, kt, 2.0) == pytest.approx(
            sl_alpha0(km, -kt, 2.0), abs=1e-14)


def test_alpha0_pole_reported():
    with pytest.raises(ZeroDivisionError):
        sl_alpha0(0.0, math.pi / 2, 2.0)


def test_hessian_offdiagonal_vanishes_at_km_zero():
    waves, _ = _sample_waves(40, seed=40)
    checked = 0
    for w in waves:
        if abs(w.wv.k_minus) > 1e-12 or math.cos(w.k_tau) <= 0.1:
            continue
        H = sl_hessian_at_trivial(w)
        assert H[0, 1] == 0.0
        checked += 1
    assert checked > 0


def test_hessian_matches_finite_differences():
    waves, _ = _sample_waves(40, seed=51)
    h = 1e-4
    checked = 0
    for w in waves:
        if math.cos(w.k_tau) <= 0.3 or abs(abs(w.wv.k_minus) - math.pi / 2) < 0.3:
            continue

        def gamma(om, qm):
            _, gm = sl_floquet_pcs(w, 2.0, om, qm)
            return gm

        H = sl_hessian_at_trivial(w)
        f_ww = (gamma(h, 0) - 2 * gamma(0, 0) + gamma(-h, 0)) / h ** 2
        f_qq = (gamma(0, h) - 2 * gamma(0, 0) + gamma(0, -h)) / h ** 2
        f_wq = (gamma(h, h) - gamma(h, -h) - gamma(-h, h)
                + gamma(-h, -h)) / (4 * h ** 2)
        scale = max(1.0, abs(H[0, 0]), abs(H[1, 1]))
        assert abs(H[0, 0] - f_ww) < 1e-4 * scale
        assert abs(H[1, 1] - f_qq) < 1e-4 * scale
        assert abs(H[0, 1] - f_wq) < 1e-4 * scale
        checked += 1
        if checked >= 8:
            break
    assert checked > 0


def test_hessian_regime_error():
    from dataclasses import replace
    waves, _ = _sample_waves(40, seed=60)
    bad = next((w for w in waves if math.cos(w.k_tau) < 0), None)
    if bad is None:
        bad = replace(waves[0], k_tau=math.pi)
    with pytest.raises(ValueError):
        sl_hessian_at_trivial(bad)


def test_hessian_negative_definite_helper():
    assert hessian_negative_definite(np.array([[-1.0, 0.0], [0.0, -2.0]]))
    assert not hessian_negative_definite(np.array([[1.0, 0.0], [0.0, -2.0]]))
    assert not hessian_negative_definite(np.array([[-1.0, 2.0], [2.0, -2.0]]))
