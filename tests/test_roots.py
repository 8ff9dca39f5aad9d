import cmath
import math

import numpy as np
import pytest
from scipy.special import lambertw

from delaylattice.roots import (find_roots_quasipoly, solve_cubic_real,
                                solve_kepler)


def test_quadratic_roots():
    rs = find_roots_quasipoly(lambda z: z * z + 1.0, (-2, 2, -2, 2),
                              grid=(10, 10))
    assert len(rs) == 2
    assert np.allclose(sorted(rs.roots, key=lambda r: r.imag), [-1j, 1j],
                       atol=1e-10)


def test_linear_root():
    rs = find_roots_quasipoly(lambda z: -z + (-2.5 + 0.5j), (-4, 1, -2, 2),
                              grid=(5, 5))
    assert len(rs) == 1
    assert abs(rs.roots[0] - (-2.5 + 0.5j)) < 1e-12


def test_empty_result_is_not_error():
    rs = find_roots_quasipoly(lambda z: np.exp(z) + 10.0, (-1, 1, -1, 1),
                              grid=(8, 8))
    assert len(rs) == 0
    assert rs.max_real() == -np.inf


def test_degenerate_window_rejected():
    with pytest.raises(ValueError):
        find_roots_quasipoly(lambda z: z, (1, 1, -1, 1))


def test_sl_mode_factor_matches_lambert_w():
    # single factor of the steady-state characteristic function:
    # -lambda + alpha + i beta + C cos(k-) e^{i k+} e^{-lambda tau}
    alpha, beta, C, tau = -2.0, 0.5, 2.0, 20.0
    mu = complex(alpha, beta)

    def f(lam):
        return -lam + mu + C * np.exp(-lam * tau)

    rs = find_roots_quasipoly(f, (-0.5, 0.2, -1.0, 2.0), grid=(60, 60))
    assert len(rs) > 3
    z = tau * C * cmath.exp(-mu * tau)
    lw = mu + lambertw(z, np.arange(-30, 31)) / tau
    for lam in rs.roots:
        assert min(abs(lam - w) for w in lw) < 1e-8


def test_conjugate_closure_of_real_quasipoly():
    def f(lam):
        return lam * lam + 0.3 * lam + 2.0 + 0.5 * np.exp(-lam)

    rs = find_roots_quasipoly(f, (-2, 1, -4, 4), grid=(30, 30))
    assert len(rs) >= 2
    for lam in rs.roots:
        assert min(abs(lam.conjugate() - r) for r in rs.roots) < 1e-8


def test_kepler_zero_coupling():
    assert np.array_equal(solve_kepler(0.5, 0.0, 1.0, 20.0), [0.5])


def test_kepler_zero_delay():
    got = solve_kepler(0.5, 2.0, 0.7, 0.0)
    assert len(got) == 1
    assert got[0] == pytest.approx(0.5 + 2.0 * math.sin(0.7), abs=1e-14)


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
