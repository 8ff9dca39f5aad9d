import cmath
import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import lambertw

from delaylattice import core, fhn, sl
from delaylattice.core import (FHNParams, LatticeSpec, Model, SLParams,
                               WaveVector)
from delaylattice.roots import (DEDUP_RADIUS, _dedup_sorted,
                                bisect_sign_changes, count_roots_right,
                                find_roots_quasipoly, find_roots_seeded,
                                newton, solve_cubic_real, solve_kepler)


def _square_plus_one(z):
    return z * z + 1.0, 2.0 * z


def _square_plus_one_terms(z):
    return np.abs(z) ** 2 + 1.0


def test_quadratic_roots():
    rs = find_roots_quasipoly(_square_plus_one, (-2, 2, -2, 2),
                              terms=_square_plus_one_terms)
    assert len(rs) == 2
    assert np.allclose(sorted(rs.roots, key=lambda r: r.imag), [-1j, 1j],
                       atol=1e-10)


def test_linear_root():
    rs = find_roots_quasipoly(lambda z: (-z + (-2.5 + 0.5j), -np.ones_like(z)),
                              (-4, 1, -2, 2),
                              terms=lambda z: np.abs(z) + abs(-2.5 + 0.5j))
    assert len(rs) == 1
    assert abs(rs.roots[0] - (-2.5 + 0.5j)) < 1e-12


def test_empty_result_is_not_error():
    rs = find_roots_quasipoly(lambda z: (np.exp(z) + 10.0, np.exp(z)),
                              (-1, 1, -1, 1),
                              terms=lambda z: np.abs(np.exp(z)) + 10.0)
    assert len(rs) == 0
    assert rs.max_real() == -np.inf


def test_degenerate_window_rejected():
    with pytest.raises(ValueError):
        find_roots_quasipoly(lambda z: (z, np.ones_like(z)), (1, 1, -1, 1),
                             terms=np.abs)


def test_sweep_reports_seeds_and_converged():
    rs = find_roots_quasipoly(_square_plus_one, (-2, 2, -2, 2),
                              terms=_square_plus_one_terms)
    assert rs.seeds == 40 * 40
    assert len(rs) <= rs.converged <= rs.seeds


# the residual test: |f| <= 1e-12 * the sum of the moduli of f's terms

def _sweep_from(seed, fdf, terms):
    """The root set of one seed on one function, in the window
    [-2, 2] x [-2, 2]."""
    return find_roots_seeded(lambda z, k: fdf(z), np.array([seed]),
                             np.array([0]), 1, (-2, 2, -2, 2),
                             lambda z, k: terms(z))[0]


def test_seed_that_stops_on_a_zero_slope_is_rejected():
    # at z = 0, z^2 + 1 has f' = 0 and f = 1: the step 1/0 counts as 0, so
    # Newton stops there, and only the residual 1 > 1e-12 * 1 rejects it
    rs = _sweep_from(0j, _square_plus_one, _square_plus_one_terms)
    assert rs.converged == 1 and len(rs) == 0


def test_root_where_every_term_vanishes_is_kept():
    # at z = 0, z^2 and all its terms vanish: 0 <= 1e-12 * 0
    rs = _sweep_from(0j, lambda z: (z * z, 2.0 * z), lambda z: np.abs(z) ** 2)
    assert rs.converged == 1 and rs.roots.tolist() == [0j]


def test_seed_where_f_overflows_is_rejected():
    # e^{-800 z} has no root; at z = -1.5 f and f' overflow, the step
    # inf/inf counts as 0, and |f| = inf is not below inf * 1e-12
    rs = _sweep_from(-1.5 + 0j, lambda z: (np.exp(-800.0 * z),
                                           -800.0 * np.exp(-800.0 * z)),
                     lambda z: np.abs(np.exp(-800.0 * z)))
    assert rs.converged == 1 and len(rs) == 0


# ---------------------------------------------------------------------------
# dedup: keep the first root in (Re, Im) order, drop all within the radius
# of a kept root

def _greedy_dedup(roots, radius=DEDUP_RADIUS):
    """The pairwise reference: a root is kept when it is farther than the
    radius from every root kept before it."""
    roots = roots[np.lexsort((roots.imag, roots.real))]
    kept = []
    for r in roots:
        if all(abs(r - k) > radius for k in kept):
            kept.append(r)
    return np.array(kept, dtype=complex)


def test_dedup_chain_keeps_first_and_third():
    # 0.9e-8 apart: the middle root is within the radius of both
    # neighbours, the outer two are not within it of each other
    got = _dedup_sorted(np.array([1.8e-8, 0.0, 0.9e-8], dtype=complex))
    assert np.array_equal(got, [0.0, 1.8e-8])


def test_dedup_orders_equal_real_parts_by_imaginary_part():
    roots = np.array([1.0 + 2j, 1.0 - 3j, 1.0 + 0j, 0.5 + 9j])
    assert np.array_equal(_dedup_sorted(roots),
                          [0.5 + 9j, 1.0 - 3j, 1.0 + 0j, 1.0 + 2j])


def test_dedup_of_nothing_is_empty_complex():
    got = _dedup_sorted(np.array([], dtype=complex))
    assert got.shape == (0,) and got.dtype == complex


@pytest.mark.parametrize("seed", range(20))
def test_dedup_matches_greedy_reference(seed):
    # clusters of near-duplicates at about the radius, a shared real part,
    # and exact repeats
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
    centres[:3] = centres[0].real + 1j * centres[:3].imag
    roots = np.repeat(centres, rng.integers(1, 30, 12))
    roots = roots + DEDUP_RADIUS * (rng.uniform(-1.5, 1.5, roots.shape)
                                    + 1j * rng.uniform(-1.5, 1.5, roots.shape))
    roots = np.concatenate([roots, roots[::7]])
    rng.shuffle(roots)
    got = _dedup_sorted(roots)
    assert got.dtype == complex
    assert np.array_equal(got, _greedy_dedup(roots))


# ---------------------------------------------------------------------------
# the sweep's roots, pinned bit for bit

def _root_digest(root_sets) -> str:
    h = hashlib.sha256()
    for rs in root_sets:
        roots = np.ascontiguousarray(rs.roots, dtype="<c16")
        h.update(np.array([len(roots)], dtype="<i8").tobytes())
        h.update(roots.tobytes())
    return h.hexdigest()


# the window of sl_floquet_exact at alpha=3, beta=0.5
FLOQUET_WINDOW = (-2.0, 6.0, -4.5, 4.5)


def _floquet_root_sets(wave_index):
    """A plane wave of the 5x5 torus at alpha=3, beta=0.5, C=2, tau=20,
    the torus' perturbation modes, and the root sets of one 40x40 grid
    sweep per mode in the Floquet verdict's window."""
    spec = LatticeSpec(5, 5, Model.STUART_LANDAU, SLParams(3.0, 0.5), 2.0)
    wave = sl.sl_enumerate_plane_waves(spec.params, 2.0, 20.0,
                                       spec)[wave_index]
    modes = core.enumerate_modes(spec)
    sets = []
    for q in modes:
        fdf, terms = sl._chi_and_deriv(wave, 2.0, 20.0, q.k_plus, q.k_minus)
        sets.append(find_roots_quasipoly(
            lambda z: fdf(z, 0), FLOQUET_WINDOW,
            terms=lambda z: terms(z, 0)))
    return wave, modes, sets


def _fhn_root_sets():
    """fhn_char_roots of every mode of the 3x3 torus, C=3, tau=50."""
    spec = LatticeSpec(3, 3, Model.FITZHUGH_NAGUMO, FHNParams(I=0.0), 3.0)
    stst = fhn.fhn_steady_states(spec.params, spec.coupling)[0]
    return [fhn.fhn_char_roots(stst, spec.params, spec.coupling, 50.0, wv)
            for wv in core.enumerate_modes(spec)]


# sha256 of (count, roots as little-endian complex128) per mode, recorded
# with the residual test against the grid median |f|; the sweep's
# arithmetic must stay the same operation for operation, and the test on
# the sum of f's terms must keep the same roots
PINNED_ROOTS = {
    "floquet-100": (lambda: _floquet_root_sets(100)[2],
                    "d7b82a235bc8aaf009052b0d9285af4138eba35fe855a356365957f16c0d5221"),
    "floquet-395": (lambda: _floquet_root_sets(395)[2],
                    "629b4857523514455a32b449ae2c73c127547400446d276d598917fb44bf703b"),
    "fhn-3x3": (_fhn_root_sets,
                "a264a6e1214cbb8e3acc680e5c8f8b7ba5fc83243d5f58ed6a4167f153b8b2ab"),
}


@pytest.mark.parametrize("case", sorted(PINNED_ROOTS))
def test_pinned_sweep_roots(case):
    run, digest = PINNED_ROOTS[case]
    assert _root_digest(run()) == digest


@pytest.mark.parametrize("wave_index", [100, 395])
def test_floquet_verdict_sweeps_the_pinned_sets_of_its_classes(wave_index):
    # the verdict seeds on the branches, not on the grid: its maximum is
    # the one over the pinned 25-mode sets, the trivial root excluded, and
    # its witness the top root of the representatives' sets
    spec = LatticeSpec(5, 5, Model.STUART_LANDAU, SLParams(3.0, 0.5), 2.0)
    wave, modes, all_sets = _floquet_root_sets(wave_index)
    v = sl.sl_floquet_exact(wave, spec.params, 2.0, 20.0, spec)

    def top(pairs):
        return max(((lam, q) for q, rs in pairs for lam in rs.roots
                    if (q.k1, q.k2) != (0, 0) or abs(lam) >= 1e-6),
                   key=lambda pair: pair[0].real)

    lam, _ = top(zip(modes, all_sets))
    assert abs(v.max_growth - lam.real) <= 1e-13
    classes = core.enumerate_mode_classes(spec)
    lam, q = top((q, all_sets[modes.index(q)]) for q in classes)
    assert v.witness[1:] == (q.k_minus, q.k_plus)
    assert abs(v.witness[0] - lam.imag) <= 1e-13


@pytest.mark.parametrize("roots, want", [
    ([1e-4 + 0.01j, 2e-4 + 0.01j], 2),
    ([-1e-4 + 0.01j, -2e-4 + 0.01j], 0),
    ([1e-4 + 0.01j, -1e-4 + 0.01j], 1)])
def test_count_resolves_roots_inside_one_step(roots, want):
    # f = (z - r1)(z - r2) over p = (z + 1)(z + 2): |f/p - 1| < 1/2 beyond
    # |Im z| = 10. Both roots lie between the samples Im z = 0 and 0.02,
    # where f turns by 2 pi, 0 or pi; the phase alone would alias the
    # 2 pi to nothing, the bound on |f'| splits the step
    r1, r2 = roots

    def fdf(z, k):
        return (z - r1) * (z - r2), 2.0 * z - r1 - r2

    counts, samples, _, _ = count_roots_right(fdf, 1, 0.0, [-1.0, -2.0],
                                              np.array([10.0]), 0.02)
    assert counts.tolist() == [want] and samples > 1001


def test_count_raises_without_a_finite_tail_bound():
    # a W that overflowed would turn into a negative sample count
    with pytest.raises(ArithmeticError, match="no finite tail bound"):
        count_roots_right(lambda z, k: (z, np.ones_like(z)), 1, 0.0, [0.5],
                          np.array([np.inf]), 0.1)


def test_sl_mode_factor_matches_lambert_w():
    # single factor of the steady-state characteristic function:
    # -lambda + alpha + i beta + C cos(k-) e^{i k+} e^{-lambda tau}
    alpha, beta, C, tau = -2.0, 0.5, 2.0, 20.0
    mu = complex(alpha, beta)

    def fdf(lam):
        e = C * np.exp(-lam * tau)
        return -lam + mu + e, -1.0 - tau * e

    rs = find_roots_quasipoly(
        fdf, (-0.5, 0.2, -1.0, 2.0),
        terms=lambda lam: np.abs(lam) + abs(mu) + C * np.exp(-lam.real * tau))
    assert len(rs) > 3
    z = tau * C * cmath.exp(-mu * tau)
    lw = mu + lambertw(z, np.arange(-30, 31)) / tau
    for lam in rs.roots:
        assert min(abs(lam - w) for w in lw) < 1e-8


def test_conjugate_closure_of_real_quasipoly():
    def fdf(lam):
        e = 0.5 * np.exp(-lam)
        return lam * lam + 0.3 * lam + 2.0 + e, 2.0 * lam + 0.3 - e

    def terms(lam):
        m = np.abs(lam)
        return m * m + 0.3 * m + 2.0 + 0.5 * np.exp(-lam.real)

    rs = find_roots_quasipoly(fdf, (-2, 1, -4, 4), terms=terms)
    assert len(rs) >= 2
    for lam in rs.roots:
        assert min(abs(lam.conjugate() - r) for r in rs.roots) < 1e-8


def test_kepler_zero_coupling():
    assert np.array_equal(solve_kepler(0.5, 0.0, 1.0, 20.0), [0.5])


@pytest.mark.parametrize("beta, R, k_plus", [(0.5, 2.0, 0.7),
                                              (-1.0, -3.0, 12.0),
                                              (0.2, 1e-6, -4.0)])
def test_kepler_zero_delay(beta, R, k_plus):
    got = solve_kepler(beta, R, k_plus, 0.0)
    assert len(got) == 1
    assert got[0] == pytest.approx(beta + R * math.sin(k_plus), abs=1e-14)


def test_kepler_count_matches_dense_sampling():
    beta, R, k_plus, tau = 0.5, 2.0, 0.0, 20.0
    roots = solve_kepler(beta, R, k_plus, tau)

    om = np.arange(beta - R - 0.1, beta + R + 0.1, 1e-5)
    g = om - beta - R * np.sin(k_plus - om * tau)
    crossings = np.count_nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)
    assert len(roots) == crossings
    # residuals and range
    resid = roots - beta - R * np.sin(k_plus - roots * tau)
    assert np.max(np.abs(resid)) <= 1e-12
    assert np.all(roots >= beta - abs(R) - 1e-12)
    assert np.all(roots <= beta + abs(R) + 1e-12)
    assert np.all(np.diff(roots) > 0)


@pytest.mark.xfail(strict=True, reason=(
    "known defect: solve_kepler samples g at step 0.01 and misses two roots "
    "0.0055 apart inside one step where g < 0 at both ends; both are real "
    "plane waves of mode (2pi/5, 2pi/5) of the 5x5, tau=20 lattice"))
def test_kepler_finds_close_pair_inside_one_sample_step():
    beta, R, k_plus, tau = 0.5, 2.0, 1.2566370614359172, 20.0
    roots = solve_kepler(beta, R, k_plus, tau)
    # a 4M-point sign scan of g over [beta-R, beta+R] finds 27 roots
    assert len(roots) == 27
    for want in (2.49354925200654, 2.4990815306023055):
        assert np.min(np.abs(roots - want)) < 1e-12


@pytest.mark.parametrize("tau", [math.nan, math.inf, -5.0])
def test_kepler_rejects_bad_delay(tau):
    # NaN ended in "cannot convert float NaN to integer", inf in a
    # ZeroDivisionError
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        solve_kepler(0.5, 2.0, 0.3, tau)


def test_kepler_invariant_under_kplus_shift():
    a = solve_kepler(0.3, 1.5, 0.4, 30.0)
    b = solve_kepler(0.3, 1.5, 0.4 + 2 * math.pi, 30.0)
    assert len(a) == len(b)
    assert np.allclose(a, b, atol=1e-9)


def test_cubic_single_real_root():
    assert np.allclose(solve_cubic_real(1, 0, 0, -1), [1.0], atol=1e-12)


def test_cubic_three_roots():
    assert np.allclose(solve_cubic_real(1, 0, -1, 0), [-1.0, 0.0, 1.0],
                       atol=1e-12)


def test_cubic_eckhaus_value():
    # neutral cubic at k-=0 factors; largest root is (3*alpha+sqrt(alpha^2+8C^2))/4
    alpha, C = 1.0, 2.0
    c2 = -2.5 * alpha
    c1 = 2.0 * alpha ** 2 - 0.5 * C ** 2
    c0 = -0.5 * alpha ** 3 + 0.5 * C ** 2 * alpha
    roots = solve_cubic_real(1.0, c2, c1, c0)
    assert roots[-1] == pytest.approx((3.0 + math.sqrt(33.0)) / 4.0, abs=1e-10)


def test_cubic_degree_error():
    with pytest.raises(ValueError):
        solve_cubic_real(0, 1, 1, 1)


def test_bisection_ends_on_adjacent_doubles():
    def g(x):
        return np.cos(x) - x / 8.0

    x = np.linspace(-10.0, 10.0, 41)
    roots = bisect_sign_changes(g, x, g(x))
    assert len(roots) == 5
    for r in roots:
        lo, hi = np.nextafter(r, -np.inf), np.nextafter(r, np.inf)
        # g changes sign within one double of the root, and the root has
        # the smaller |g| of the bracket it ended on
        assert (np.sign(g(lo)) != np.sign(g(hi))
                or g(r) == 0.0)
        assert abs(g(r)) <= min(abs(g(lo)), abs(g(hi)))
        ref = brentq(g, r - 0.1, r + 0.1, xtol=1e-15, rtol=8.9e-16)
        assert abs(r - ref) < 1e-14


def test_bisection_keeps_exact_grid_zeros():
    x = np.linspace(-2.0, 2.0, 5)
    # g = 0 exactly at the grid point 0 and at the midpoint 1.5 of [1, 2]
    roots = bisect_sign_changes(lambda v: v * (v - 1.5), x, x * (x - 1.5))
    assert np.array_equal(roots, [0.0, 1.5])


def test_bisection_without_sign_change_is_empty():
    x = np.linspace(-1.0, 1.0, 11)
    assert len(bisect_sign_changes(lambda v: v * v + 1.0, x, x * x + 1.0)) == 0


# ---------------------------------------------------------------------------
# the one Newton iteration

def _square_minus_two(x, i):
    return x * x - 2.0, 2.0 * x


def test_newton_stops_on_zero_slope():
    got = newton(_square_minus_two, np.array([1.0, -3.0, 0.0]))[0]
    assert got[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert got[1] == pytest.approx(-math.sqrt(2.0), abs=1e-15)
    assert got[2] == 0.0


def test_newton_entry_does_not_depend_on_its_batch():
    # each entry runs its own iteration: the same bits alone or in a batch
    # whose other entries need more or fewer steps
    starts = np.array([1.0 + 1.0j, 50.0 - 3.0j, 0.3 + 1e-3j, -2.0 + 0.5j,
                       1e6 + 1e6j])

    def fdf(z, i):
        return z ** 3 - 1.0 - 0.5j * i, 3.0 * z * z

    batch, stopped = newton(fdf, starts)
    assert stopped.all()
    for i, z0 in enumerate(starts):
        alone = newton(lambda z, _: fdf(z, i), z0)[0]
        assert alone.tobytes() == batch[i].tobytes()


def test_newton_cuts_a_long_step_to_the_cap():
    # from 0.5 the first step of x^2 - 2 is -1.75; cut to length 0.25
    # it lands on 0.75, and every later step is at most as long
    seen = []

    def fdf(x, i):
        seen.append(float(x[0]))
        return _square_minus_two(x, i)

    got, stopped = newton(fdf, np.array([0.5]), cap=0.25)
    assert seen[1] == 0.75
    assert np.all(np.abs(np.diff(seen)) <= 0.25)
    assert stopped[0] and got[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_newton_entry_that_never_stops_keeps_its_start():
    # x^2 + 1 has no real root: from 0.3 the real iteration wanders for
    # all 80 steps; the root of x^2 - 2 beside it still stops
    def fdf(x, i):
        return x * x + np.where(i == 0, 1.0, -2.0), 2.0 * x

    got, stopped = newton(fdf, np.array([0.3, 1.0]))
    assert got[0] == 0.3 and not stopped[0]
    assert stopped[1] and got[1] == pytest.approx(math.sqrt(2.0), abs=1e-15)


# Newton iterates that stray left of the window, where e^{-lambda tau}
# overflows, must stop without a numpy warning (the module's tests run
# with warnings as errors in CI; these cases also set it themselves)

def test_floquet_sweep_at_long_delay_stays_silent():
    spec = LatticeSpec(3, 3, Model.STUART_LANDAU, SLParams(1.0, 0.5), 1.0)
    wave = sl.sl_enumerate_plane_waves(spec.params, 1.0, 100.0, spec)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = sl.sl_floquet_exact(wave, spec.params, 1.0, 100.0, spec)
    assert (v.cls, v.max_growth, v.kept) == (
        sl.StabilityClass.MODULATIONAL_UNSTABLE, 0.0004121026347386332, 1435)


def test_fhn_sweep_at_long_delay_stays_silent():
    params = FHNParams()
    stst = fhn.fhn_steady_states(params, 3.0)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rs = fhn.fhn_char_roots(stst, params, 3.0, 400.0, WaveVector(0, 0))
    assert (len(rs), rs.max_real()) == (215, -0.016565931476303832)
