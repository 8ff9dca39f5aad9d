import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import lambertw as scipy_lambertw

from delaylattice import lambertw
from delaylattice.lambertw import MAX_BRANCH, LambertWError, lambert_w_log


def test_principal_branch_at_zero():
    assert lambert_w_log(0, complex(-np.inf, 0.0)) == 0.0


def test_principal_branch_at_e():
    assert abs(lambert_w_log(0, 1.0) - 1.0) < 1e-14


def test_branch_point():
    # W_{-1}(-1/e) = W_0(-1/e) = -1. exp(-1 + i*pi) is -1/e only to double
    # rounding (|dz| ~ 1e-16), and W has a square-root singularity there,
    # so both branches sit within sqrt(2*e*|dz|) ~ 2e-8 of -1
    log_z = complex(-1.0, cmath.pi)
    w = lambert_w_log(np.array([0, -1]), log_z)
    assert np.all(np.abs(w + 1.0) < 1e-7)
    z = cmath.exp(log_z)
    assert np.all(np.abs(w * np.exp(w) - z) <= 1e-12)


def test_high_branch_residual():
    z = 3.0 + 4.0j
    w = lambert_w_log(2, cmath.log(z))
    assert abs(w * cmath.exp(w) - z) / abs(z) <= 1e-12


def test_nonzero_branch_rejects_zero():
    with pytest.raises(LambertWError):
        lambert_w_log(1, complex(-np.inf, 0.0))
    with pytest.raises(LambertWError):
        lambert_w_log(np.array([0, 1, -1]), complex(-np.inf, 0.0))


def test_log_form_below_double_underflow():
    # exp(-800) underflows to 0, but W_j for j != 0 is finite there:
    # about L - log L with L = log z + 2*pi*i*j
    j = np.array([-3, -1, 0, 1, 2])
    for log_z in (-800.0, -800.0 + 2.0j, -5000.0 - 1.0j):
        w = lambert_w_log(j, log_z)
        assert w[j == 0] == 0.0
        nz = w[j != 0]
        L = log_z + 2j * np.pi * j[j != 0]
        assert np.all(np.abs(nz + np.log(nz) - L) <= 1e-12 * np.abs(L))
        assert np.all(np.abs(nz - (L - np.log(L))) < 0.01)


def test_log_form_near_negative_real_axis():
    # W_{+-1} of a tiny z near the negative real axis lie near the cut of
    # Log; the branch identity must still pick branch j, with the standard
    # value on the cut (continuous from above: W_{-1} real there)
    j = np.array([-2, -1, 1, 2])
    on_cut = lambert_w_log(j, complex(-800.0, np.pi))
    above = lambert_w_log(j, complex(-800.0, np.pi - 1e-9))
    below = lambert_w_log(j, complex(-800.0, -np.pi + 1e-9))
    assert np.all(np.abs(on_cut - above) < 1e-8)
    assert on_cut[1].imag == 0.0 and on_cut[1].real < -800.0
    # conjugate symmetry off the cut
    assert np.all(np.abs(below[::-1] - above.conj()) < 1e-12 * np.abs(above))
    for log_z, w in ((complex(-800.0, np.pi - 1e-9), above),
                     (complex(-800.0, -np.pi + 1e-9), below)):
        assert np.all(np.abs(w + np.log(w) - log_z - 2j * np.pi * j)
                      <= 1e-12 * abs(log_z))
    # scipy agrees on an exactly negative real z that is still a normal double
    x = -3e-306
    assert np.all(np.abs(lambert_w_log(j, cmath.log(x)) - scipy_lambertw(x, j))
                  <= 1e-12 * np.abs(on_cut))


def test_log_form_agrees_with_scipy_below_underflow_threshold():
    # for -745 < Re log z < -700 z is a subnormal or small normal double, so
    # the log form can be checked against scipy at the same z. scipy loses
    # accuracy on subnormal z (its identity residual reaches 1e-8 at
    # Re log z = -720 and it returns nan near -730), so the agreement is
    # required up to scipy's own residual, which is 1e-13 or less down to -708
    rng = np.random.default_rng(5)
    j = np.arange(-6, 7)
    tight = 0
    for _ in range(200):
        z = complex(np.exp(complex(rng.uniform(-745.0, -700.0),
                                   rng.uniform(-np.pi, np.pi))))
        if z.imag == 0:
            # underflowed to 0, or rounded onto the real axis, where the
            # sign of a zero imaginary part picks the side of the cut
            continue
        log_z = cmath.log(z)
        a = lambert_w_log(j, log_z)
        assert np.all(np.abs(a + np.log(a) - log_z - 2j * np.pi * j)
                      <= 1e-12 * abs(log_z))
        b = scipy_lambertw(z, j)
        ok = np.isfinite(b)
        b_resid = np.abs(b + np.log(b) - log_z - 2j * np.pi * j)[ok]
        assert np.all(np.abs(a[ok] - b[ok])
                      <= 1e-12 * (1.0 + np.abs(b[ok])) + 2.0 * b_resid)
        tight += log_z.real > -708.0
    assert tight > 20


def test_branch_cap():
    with pytest.raises(ValueError):
        lambert_w_log(MAX_BRANCH + 1, 0.0)
    with pytest.raises(ValueError):
        lambert_w_log(np.array([0, -MAX_BRANCH - 1]), 900.0)


def test_matches_scipy_on_sample_grid():
    rng = np.random.default_rng(7)
    for _ in range(200):
        j = int(rng.integers(-5, 6))
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z) < 1e-3:
            continue
        ours = lambert_w_log(j, cmath.log(z))
        ref = complex(scipy_lambertw(z, k=j))
        assert abs(ours - ref) <= 1e-9 * (1.0 + abs(ref))


def test_branch_imaginary_part_convention():
    # Im W_j lies in the branch strip (2*pi*j - pi, 2*pi*j + pi], on both
    # sides of the switch to the log form: at log z = 1, W_0 solves
    # w e^w = z and the other branches the log form
    j = np.array([-3, -1, 0, 1, 3])
    for log_z in (1.0, np.log(1e6), 800.0):
        w = lambert_w_log(j, log_z)
        assert np.all(np.abs(w.imag - 2.0 * np.pi * j) < np.pi)


def test_branch_array_matches_scalar_calls():
    j = np.arange(-MAX_BRANCH, MAX_BRANCH + 1)
    for log_z in (0.3 - 2.0j, -40.0 + 1.0j, 650.0 + 3.0j, 2000.0 - 1.0j):
        w = lambert_w_log(j, log_z)
        assert w.shape == j.shape
        one = np.array([lambert_w_log(int(k), log_z) for k in j])
        assert np.all(np.abs(w - one) <= 1e-12 * (1.0 + np.abs(one)))
        resid = w + np.log(w) - (log_z + 2j * np.pi * j)
        assert np.all(np.abs(resid) <= 1e-10 * np.maximum(1.0, abs(log_z)))


@pytest.mark.parametrize("log_z", [650.0 + 3.0j, -1000.0 + 0.5j],
                         ids=["overflow", "underflow"])
def test_log_form_branch_does_not_depend_on_its_batch(log_z):
    # each branch is its own Newton run: the values of one call over all
    # branches equal those of one call per branch bit for bit (the log
    # form solves every branch at Re log z = 650, and j != 0 at -1000)
    j = np.arange(-MAX_BRANCH, MAX_BRANCH + 1)
    w = lambert_w_log(j, log_z)
    one = np.array([lambert_w_log(int(k), log_z) for k in j])
    assert w.tobytes() == one.tobytes()


def test_log_form_agrees_with_direct_form():
    # for 500 < Re log z < 700 z is still a double, so the log form can be
    # checked against scipy's direct evaluation at z = exp(log_z)
    rng = np.random.default_rng(11)
    j = np.arange(-6, 7)
    for _ in range(20):
        log_z = complex(rng.uniform(500.5, 700.0), rng.uniform(-3, 3))
        a = lambert_w_log(j, log_z)
        b = scipy_lambertw(np.exp(log_z), j)
        assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)))


def test_log_form_is_continuous_where_it_takes_over():
    # w e^w = z hands over to the log form at |L| = |log z + 2 pi i j| = 5
    # (j = 0 at log z = 5, j = 1 at Im log z = -3), and the log form turns
    # from log(-w) to Log w at Re log z = 0 (j = 2). Each point carries 80
    # whole turns of the phase: the solver must label the branches as the
    # standard ones of z, where a log form that took the unreduced phase,
    # branch j + round(Im log z / 2 pi), jumps by 80
    turns = -160j * np.pi
    for j, log_z in ((0, 5.0),
                     (1, complex(math.sqrt(25.0 - (2.0 * np.pi - 3.0) ** 2),
                                 -3.0)),
                     (2, 0.3j)):
        below = lambert_w_log(j, log_z - 1e-9 + turns)
        above = lambert_w_log(j, log_z + 1e-9 + turns)
        assert abs(above - below) < 1e-8


@pytest.mark.parametrize("re", [600.0, -800.0], ids=["overflow", "underflow"])
def test_log_form_branches_ignore_whole_turns_of_the_phase(re):
    # z = exp(log_z) is unchanged by log_z + 20*pi*i, so each W_j must be too
    j = np.array([-3, -1, 0, 1, 2])
    w = lambert_w_log(j, complex(re, 1.0))
    turned = lambert_w_log(j, complex(re, 1.0) + 20j * np.pi)
    assert np.all(np.abs(turned - w) <= 1e-12 * np.maximum(1.0, np.abs(w)))


@pytest.mark.parametrize("im", [np.inf, -np.inf, np.nan])
def test_non_finite_phase_rejected(im):
    with pytest.raises(LambertWError):
        lambert_w_log(np.array([-1, 0, 1]), complex(1.0, im))


@pytest.mark.parametrize("re", [np.nan, np.inf], ids=["nan", "inf"])
def test_nan_or_infinite_modulus_rejected(re):
    # rejected up front, naming log z, before any numpy arithmetic warns;
    # Re log z = -inf is z = 0, which W_0 takes (test_nonzero_branch_rejects_zero)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(LambertWError, match=r"exp\(\((nan|inf)\+0\.5j\)\)"):
            lambert_w_log(np.array([-1, 0, 1]), complex(re, 0.5))


def test_log_form_beyond_double_overflow():
    # z = exp(800) overflows a double; the log form must still solve
    # w + log w = log z to high accuracy on several branches
    j = np.array([-2, 0, 3])
    for log_z in (800.0 + 0.3j, 2000.0 - 1.0j):
        w = lambert_w_log(j, log_z)
        resid = w + np.log(w) - (log_z + 2j * np.pi * j)
        assert np.all(np.abs(resid) <= 1e-10 * abs(log_z))
        assert np.all(np.abs(w.real - log_z.real) < 0.05 * log_z.real)


@settings(max_examples=200, deadline=None)
@given(j=st.integers(min_value=-8, max_value=8),
       re=st.floats(-20, 20), im=st.floats(-20, 20))
def test_defining_identity_property(j, re, im):
    z = complex(re, im)
    if abs(z) < 1e-6:
        return
    w = lambert_w_log(j, cmath.log(z))
    assert abs(w * cmath.exp(w) - z) / max(abs(z), 1.0) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(j=st.integers(min_value=-6, max_value=6),
       re=st.floats(-10, 10), im=st.floats(0.1, 10))
# near the branch point -1/e, where a W_{-1} seed on the wrong side of the
# real axis converged onto another branch
@example(j=1, re=-0.5, im=0.25)
def test_conjugate_symmetry(j, re, im):
    # off the real axis (hence off the branch cut)
    z = complex(re, im)
    w1 = lambert_w_log(-j, cmath.log(z.conjugate()))
    w2 = lambert_w_log(j, cmath.log(z)).conjugate()
    assert abs(w1 - w2) <= 1e-10 * (1.0 + abs(w2))


# scipy.special.lambertw is the reference wherever z = exp(log z) is a
# double, Re log z in [-700, 500]: 1e-12 relative. W's relative condition
# number at z is 1/|1 + W|, which grows near -1/e, where W_0 meets W_-1 and
# W_1 at -1: the reference takes z rounded to a double, and lambert_w_log
# takes log z itself, so they may differ by a rounding of z, 1.1e-16, times
# that number. 1e-14 times it still tells the two sides of the cut apart,
# which differ by 2 |1 + W|, down to |z + 1/e| ~ 1e-14


def _assert_matches_scipy(j, log_z):
    ref = complex(scipy_lambertw(cmath.exp(log_z), j))
    w = complex(lambert_w_log(j, log_z))
    assert abs(w - ref) <= (1e-12 + 1e-14 / abs(1.0 + ref)) * abs(ref)


SWITCH_RE = math.sqrt(25.0 - math.pi ** 2)   # |log z -+ 2 pi i| = 5 at Im = -+pi


@settings(max_examples=400, deadline=None)
@given(j=st.integers(-MAX_BRANCH, MAX_BRANCH), re=st.floats(-700.0, 500.0),
       im=st.floats(-np.pi, np.pi))
# on the cut, Im log z = +-pi: z rounds just above or below it
@example(j=0, re=0.5, im=np.pi)
@example(j=0, re=0.5, im=-np.pi)
@example(j=-1, re=-2.0, im=np.pi)
@example(j=1, re=-2.0, im=-np.pi)
@example(j=7, re=-30.0, im=np.pi)
# z = -1/e to rounding, and just beyond it on the cut
@example(j=-1, re=-1.0, im=np.pi)
@example(j=0, re=-1.0 + 1e-14, im=np.pi)
@example(j=-1, re=-1.0 + 1e-14, im=np.pi)
@example(j=0, re=-1.0 + 1e-14, im=-np.pi)
@example(j=0, re=-1.0, im=np.pi)
@example(j=1, re=-1.0, im=np.pi)
@example(j=1, re=-1.0, im=-np.pi)
# W_-+1 just above and just below the negative real axis, in (-1/e, 0)
# and beyond -1/e
@example(j=-1, re=-2.0, im=np.pi - 1e-9)
@example(j=-1, re=-2.0, im=-np.pi + 1e-9)
@example(j=1, re=-2.0, im=np.pi - 1e-9)
@example(j=1, re=-2.0, im=-np.pi + 1e-9)
@example(j=-1, re=0.5, im=np.pi - 1e-9)
@example(j=1, re=0.5, im=-np.pi + 1e-9)
# the switches: |L| = 5 between w e^w = z and the log form, and
# Re log z = 0 between log(-w) and Log w in the log form
@example(j=0, re=5.0 - 1e-9, im=0.0)
@example(j=0, re=5.0, im=0.0)
@example(j=1, re=SWITCH_RE - 1e-9, im=-np.pi)
@example(j=1, re=SWITCH_RE, im=-np.pi)
@example(j=-1, re=SWITCH_RE - 1e-9, im=np.pi)
@example(j=-1, re=SWITCH_RE, im=np.pi)
@example(j=1, re=-1e-12, im=2.0)
@example(j=1, re=0.0, im=2.0)
@example(j=-MAX_BRANCH, re=-1e-12, im=-3.0)
@example(j=MAX_BRANCH, re=0.0, im=3.0)
def test_matches_scipy_over_the_double_range(j, re, im):
    _assert_matches_scipy(j, complex(re, im))


@settings(max_examples=200, deadline=None)
@given(j=st.integers(-1, 1), r=st.floats(1e-15, 0.5),
       theta=st.floats(-np.pi, np.pi))
@example(j=0, r=1e-15, theta=0.0)
@example(j=-1, r=1e-12, theta=np.pi / 2)
@example(j=1, r=1e-12, theta=-np.pi / 2)
# the edge of the branch-point series, |z + 1/e| = 0.3
@example(j=0, r=0.3, theta=1.0)
@example(j=-1, r=0.3, theta=2.0)
# z = -0.71 + 0.14i, where Newton alone from L - Log L lands on W_-1
@example(j=0, r=0.375, theta=2.75)
def test_matches_scipy_near_the_branch_point(j, r, theta):
    _assert_matches_scipy(j, cmath.log(-math.exp(-1.0) + cmath.rect(r, theta)))


@settings(max_examples=200, deadline=None)
@given(j=st.integers(-1, 1), re=st.floats(-700.0, 0.0),
       im=st.floats(-np.pi, np.pi))
# |z| = 0.006, where W_0's step from its seed is below 1e-14 in absolute
# terms but not relative to W_0
@example(j=0, re=-5.13, im=-1.4552227026088695)
def test_matches_scipy_near_zero(j, re, im):
    _assert_matches_scipy(j, complex(re, im))


def _assert_equals_scalar_calls(j, log_z):
    w = lambert_w_log(j, log_z)
    jb, zb = np.broadcast_arrays(j, log_z)
    assert w.shape == jb.shape
    one = [lambert_w_log(int(k), complex(v))
           for k, v in zip(jb.ravel(), zb.ravel())]
    assert w.tobytes() == np.array(one, dtype=complex).tobytes()


_EDGE = st.sampled_from([-np.inf, -800.0, -1.0, -1e-12, -0.0, 0.0,
                         SWITCH_RE, 5.0, 650.0])


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.tuples(
    st.integers(-MAX_BRANCH, MAX_BRANCH),
    st.floats(-800.0, 800.0) | _EDGE,
    st.floats(-40.0, 40.0) | st.sampled_from([-np.pi, np.pi, -0.0, 0.0]),
), min_size=1, max_size=12))
# mixed arrays, each entry next to ones of the other form: on the cut,
# Im log z = +-pi, and Im log z = -0.0 (z = -0.2 - 0j has log z
# = log 0.2 - i pi)
@example(entries=[(0, math.log(0.2), -np.pi), (0, math.log(0.2), np.pi),
                  (-1, math.log(0.2), -np.pi), (1, 2.0, -0.0),
                  (0, 0.5, -0.0), (3, -800.0, np.pi)])
# z = -1/e to rounding, and just beyond it on the cut, on W_-1, W_0, W_1
@example(entries=[(-1, -1.0, np.pi), (0, -1.0, np.pi), (1, -1.0, np.pi),
                  (0, -1.0 + 1e-14, -np.pi), (-1, -1.0 + 1e-14, np.pi),
                  (2, 650.0, 1.0)])
# z = 0 on W_0 beside the log form on other branches of other z
@example(entries=[(0, -np.inf, 0.0), (-5, -20.0, 2.0),
                  (0, -np.inf, -3.0), (64, 1.0, 1.0)])
# the switches: |L| = 5 between w e^w = z and the log form, and
# Re log z = 0 between log(-w) and Log w in the log form
@example(entries=[(0, 5.0 - 1e-9, 0.0), (0, 5.0, 0.0),
                  (1, SWITCH_RE - 1e-9, -np.pi), (1, SWITCH_RE, -np.pi),
                  (2, -1e-12, 0.3), (2, 0.0, 0.3), (2, -0.0, 0.3)])
def test_array_equals_scalar_calls_bit_for_bit(entries):
    # each entry is its own Newton run, whatever form its neighbours take:
    # one call over arrays of j and log z equals one call per entry
    j, re, im = (np.array(c) for c in zip(*entries))
    j[re == -np.inf] = 0     # z = 0 is on W_0 only
    # set in place: re + 1j * im would lose the sign of a zero Im log z
    log_z = np.empty(len(re), dtype=complex)
    log_z.real, log_z.imag = re, im
    _assert_equals_scalar_calls(j, log_z)
    # one branch over an array of log z, and every branch of log z by
    # every log z
    if np.all(np.isfinite(re)):
        _assert_equals_scalar_calls(int(j[0]), log_z)
    _assert_equals_scalar_calls(j[:3, None], log_z[None, np.isfinite(re)])


def test_scalar_arguments_give_a_scalar():
    w = lambert_w_log(1, 2.0 + 1.0j)
    assert np.ndim(w) == 0 and isinstance(w, complex)
    assert lambert_w_log(np.array([1]), 2.0 + 1.0j).shape == (1,)
    assert lambert_w_log(0, np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("log_z", [complex(10.0, 0.5), complex(0.3, 0.5)],
                         ids=["log-form", "direct-form"])
def test_an_entry_whose_newton_run_never_stops_raises(monkeypatch, log_z):
    # Newton that leaves every seed where it started, unstopped
    monkeypatch.setattr(lambertw, "newton", lambda fdf, seed: (
        seed, np.zeros(seed.shape, dtype=bool)))
    with pytest.raises(LambertWError,
                       match=r"did not converge on branches \[0\]"):
        lambert_w_log(0, log_z)
