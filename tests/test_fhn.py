import cmath
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from delaylattice.core import FHNParams, WaveVector
from delaylattice.fhn import (FhnSteadyState, fhn_char_function,
                              fhn_char_roots, fhn_hopf_points,
                              fhn_hybrid_dispersion, fhn_linearization,
                              fhn_saddle_node_C,
                              fhn_steady_states, fhn_strong_spectrum,
                              fhn_strong_spectrum_present, gate_rate,
                              stst_current, synaptic_gate)
from delaylattice.roots import find_roots_quasipoly

HOMOG = WaveVector(0.0, 0.0)


def test_gate_rate_midpoint():
    assert gate_rate(1.0) == pytest.approx(0.25, abs=1e-15)


def test_gate_rate_into_buffers_matches_and_keeps_its_input():
    v = np.random.default_rng(5).uniform(-3.0, 4.0, 1024)
    v0 = v.copy()
    out, tmp = np.empty((2, v.size))
    assert gate_rate(v, out, tmp) is out
    assert np.array_equal(out, gate_rate(v))
    assert np.array_equal(v, v0)
    assert synaptic_gate(1.0) == pytest.approx(0.25 / 0.85, abs=1e-15)


def test_steady_state_uncoupled():
    params = FHNParams(I=0.0)
    states = fhn_steady_states(params, 0.0)
    assert len(states) == 1
    v = brentq(lambda x: x - x ** 3 / 3 - (x + 0.7) / 0.8, -3, 3,
               xtol=1e-14)
    assert states[0].v == pytest.approx(v, abs=1e-10)
    assert states[0].w == pytest.approx((v + 0.7) / 0.8, abs=1e-10)


def test_steady_states_match_brentq():
    # every rest state agrees with scipy's brentq on the same bracket
    for I in np.linspace(-2.0, 2.0, 17):
        for C in (0.0, 1.0, 3.0, 6.0):
            params = FHNParams(I=I)

            def g(x):
                return (x - x ** 3 / 3 - (x + params.a) / params.b + params.I
                        + C * (params.v_r - x) * synaptic_gate(x))

            states = fhn_steady_states(params, C)
            assert len(states) in (1, 3)
            for st in states:
                ref = brentq(g, st.v - 1e-3, st.v + 1e-3, xtol=1e-15,
                             rtol=8.9e-16)
                assert abs(st.v - ref) < 1e-13


def test_steady_state_unique_below_saddle_node():
    params_grid = [FHNParams(I=I) for I in np.linspace(-3, 3, 13)]
    for params in params_grid:
        assert len(fhn_steady_states(params, 1.0)) == 1


def test_steady_state_triple_above_saddle_node():
    # C=3 > C_SN: a fold interval in I with three rest states exists
    counts = {len(fhn_steady_states(FHNParams(I=I), 3.0))
              for I in np.linspace(-3, 3, 241)}
    assert 3 in counts
    assert counts <= {1, 3}


def test_steady_state_residuals():
    for C in (0.0, 1.5, 3.0):
        params = FHNParams(I=-0.8)
        for st in fhn_steady_states(params, C):
            resid = (st.v - st.v ** 3 / 3 - (st.v + params.a) / params.b
                     + params.I + C * (params.v_r - st.v) * st.s)
            assert abs(resid) < 1e-12
            assert st.s == pytest.approx(float(synaptic_gate(st.v)), abs=1e-15)


def test_saddle_node_constant():
    assert fhn_saddle_node_C() == pytest.approx(1.46475, abs=1e-3)


def test_saddle_node_is_fold_boundary():
    c_sn = fhn_saddle_node_C()

    def has_fold(C):
        # a fold exists iff some I yields three rest states; just above
        # C_SN the interval is narrow and sits near I ~ 0.9
        return any(len(fhn_steady_states(FHNParams(I=I), C)) == 3
                   for I in np.linspace(0.4, 1.4, 401))

    assert not has_fold(c_sn - 0.1)
    assert has_fold(c_sn + 0.1)


def test_linearization_entries():
    params = FHNParams(I=0.0)
    st = fhn_steady_states(params, 3.0)[0]
    lin = fhn_linearization(st, params, 3.0)
    al = float(gate_rate(st.v))
    A = lin.A
    assert A[0, 0] == pytest.approx(1 - st.v ** 2 - 3.0 * st.s, abs=1e-14)
    assert A[0, 1] == -1.0
    assert A[1, 0] == params.eps
    assert A[1, 1] == -params.b * params.eps
    assert A[2, 0] == pytest.approx(5 * al * (1 - 2 * al) * (1 - st.s),
                                    abs=1e-14)
    assert A[2, 2] == pytest.approx(-al - 0.6, abs=1e-14)
    assert A[2, 2] <= -0.6
    assert lin.b13 == pytest.approx(1.5 * (params.v_r - st.v), abs=1e-14)
    # a stacked linearization of two rest states gives each its own b13
    # (the current I does not enter the linearization)
    rests = [st, fhn_steady_states(FHNParams(I=1.0), 3.0)[0]]
    v, w, s = (np.array(x) for x in zip(*[(r.v, r.w, r.s) for r in rests]))
    stack = fhn_linearization(FhnSteadyState(v=v, w=w, s=s), params, 3.0)
    assert stack.b13[0] != stack.b13[1]
    assert np.array_equal(stack.b13, [fhn_linearization(r, params, 3.0).b13
                                      for r in rests])


def test_char_roots_zero_coupling_are_jacobian_eigenvalues():
    params = FHNParams(I=0.0)
    st = fhn_steady_states(params, 0.0)[0]
    lin = fhn_linearization(st, params, 0.0)
    want = np.sort_complex(np.linalg.eigvals(lin.A))
    got = np.sort_complex(
        fhn_char_roots(st, params, 0.0, 20.0, HOMOG).roots)
    assert np.allclose(got, want, atol=1e-10)


def test_char_roots_decoupled_mode():
    params = FHNParams(I=0.0)
    st = fhn_steady_states(params, 3.0)[0]
    lin = fhn_linearization(st, params, 3.0)
    wv = WaveVector(math.pi, 0.0)  # k_minus = pi/2
    got = fhn_char_roots(st, params, 3.0, 20.0, wv)
    want = np.sort_complex(np.linalg.eigvals(lin.A))
    assert np.allclose(np.sort_complex(got.roots), want, atol=1e-10)


@pytest.mark.parametrize("C, tau, wv", [
    (3.0, 0.0, WaveVector(2 * math.pi / 3, 0.0)),
    (3.0, 0.0, HOMOG),
    (3.0, 20.0, WaveVector(math.pi, 0.0)),   # k_minus = pi/2: decoupled
    (0.0, 20.0, HOMOG),
], ids=["tau0-coupled", "tau0-homogeneous", "decoupled", "uncoupled"])
def test_char_roots_without_a_delayed_term_are_eigenvalues_bit_for_bit(
        C, tau, wv):
    # at tau = 0 the coupling 2 b13 cos(k_minus) e^{i k_plus} enters A at
    # (0, 2); a decoupled mode keeps the real A
    params = FHNParams(I=0.0)
    st = fhn_steady_states(params, C)[0]
    lin = fhn_linearization(st, params, C)
    Mat = lin.A
    if tau == 0.0:
        Mat = lin.A.astype(complex)
        Mat[0, 2] += (2.0 * lin.b13 * np.cos(wv.k_minus)
                      * np.exp(1j * wv.k_plus))
    want = np.linalg.eigvals(Mat)
    got = fhn_char_roots(st, params, C, tau, wv)
    assert len(got) == 3
    assert got.roots.dtype == want.dtype
    assert got.roots.tobytes() == want.tobytes()


def test_char_roots_satisfy_equation():
    params = FHNParams(I=-0.8)
    st = fhn_steady_states(params, 3.0)[0]
    wv = WaveVector(2 * math.pi / 5, 4 * math.pi / 5)
    rs = fhn_char_roots(st, params, 3.0, 20.0, wv)
    assert len(rs) > 0
    lin = fhn_linearization(st, params, 3.0)
    # residual against the raw 3x3 determinant, coded independently
    coup = (2.0 * lin.b13 * math.cos(wv.k_minus)
            * np.exp(1j * wv.k_plus))
    for lam in rs.roots:
        Mat = lin.A.astype(complex) - lam * np.eye(3)
        Mat[0, 2] += coup * np.exp(-lam * 20.0)
        assert abs(np.linalg.det(Mat)) < 1e-8


def test_char_roots_stable_regime_all_modes():
    params = FHNParams(I=-0.8)
    st = fhn_steady_states(params, 3.0)[0]
    from delaylattice.core import LatticeSpec, Model, enumerate_modes
    spec = LatticeSpec(rows=3, cols=3, model=Model.FITZHUGH_NAGUMO,
                       params=params, coupling=3.0)
    for wv in enumerate_modes(spec):
        rs = fhn_char_roots(st, params, 3.0, 20.0, wv)
        assert rs.max_real() < 0.0


@pytest.mark.parametrize("tau", [math.nan, math.inf, -5.0])
def test_char_roots_and_hopf_points_reject_bad_delay(tau):
    # NaN gave 0 roots and -5 gave 3, each without a word
    params = FHNParams(I=0.0)
    st = fhn_steady_states(params, 3.0)[0]
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        fhn_char_roots(st, params, 3.0, tau, HOMOG)
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        fhn_char_function(fhn_linearization(st, params, 3.0), tau, HOMOG)
    with pytest.raises(ValueError, match="tau must be finite and >= 0"):
        fhn_hopf_points(params, 3.0, tau, HOMOG, n_seeds=(4, 4))


def _fhn_coupling_calls(C):
    """Each public function of fhn.py that takes a coupling C, called with
    C at I=0, tau=50; the rest state is the one at C=3."""
    params = FHNParams(I=0.0)
    st = fhn_steady_states(params, 3.0)[0]
    return {
        "steady_states": lambda: fhn_steady_states(params, C),
        "current": lambda: stst_current(0.5, params, C),
        "linearization": lambda: fhn_linearization(st, params, C),
        "char_roots": lambda: fhn_char_roots(st, params, C, 50.0, HOMOG),
        "strong": lambda: fhn_strong_spectrum(st, params, C),
        "strong_present": lambda: fhn_strong_spectrum_present(st, params, C),
        "hybrid": lambda: fhn_hybrid_dispersion(st, params, C, 0.5, 0.0),
        "hopf": lambda: fhn_hopf_points(params, C, 50.0, HOMOG,
                                        n_seeds=(4, 4)),
    }


@pytest.mark.parametrize("call", sorted(_fhn_coupling_calls(0.0)))
def test_fhn_entry_points_reject_bad_coupling(call):
    # fhn_steady_states(FHNParams(), nan) returned [] without a word
    for C in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError,
                           match="coupling C must be finite and >= 0"):
            _fhn_coupling_calls(C)[call]()
    if call == "hybrid":
        # at C = 0 the delayed coupling vanishes, where it raises on purpose
        with pytest.raises(ValueError, match="decoupled"):
            _fhn_coupling_calls(0.0)[call]()
    else:
        _fhn_coupling_calls(0.0)[call]()


def test_strong_spectrum_formulas():
    params = FHNParams(I=0.0)
    st = fhn_steady_states(params, 3.0)[0]
    lam0, lam_p, lam_m = fhn_strong_spectrum(st, params, 3.0)
    lin = fhn_linearization(st, params, 3.0)
    a11 = lin.A[0, 0]
    assert lam0 == lin.A[2, 2]
    assert lam0 <= -0.6
    # lambda+- solve the reduced 2x2 quadratic exactly
    for lam in (lam_p, lam_m):
        val = (a11 - lam) * (-params.b * params.eps - lam) + params.eps
        assert abs(val) < 1e-12
    assert fhn_strong_spectrum_present(st, params, 3.0) == \
        (a11 > params.b * params.eps)


def test_strong_spectrum_boundaries():
    # synthetic steady states probing the cusp (a11 = b*eps) and the
    # focus-node transition (a11 = 2 sqrt(eps) - b*eps)
    from delaylattice.fhn import FhnSteadyState
    params = FHNParams()
    b, eps = params.b, params.eps

    def with_a11(target):
        # choose v with s = 0 so a11 = 1 - v^2: v = sqrt(1 - target)
        v = -math.sqrt(1.0 - target)   # far-left branch: gate ~ 0
        st = FhnSteadyState(v=v, w=(v + params.a) / b, s=0.0)
        return st

    st = with_a11(b * eps)
    _, lam_p, _ = fhn_strong_spectrum(st, params, 0.0)
    assert abs(lam_p.real) < 1e-9

    st = with_a11(2.0 * math.sqrt(eps) - b * eps)
    _, lam_p, lam_m = fhn_strong_spectrum(st, params, 0.0)
    assert abs(lam_p - lam_m) < 1e-7   # discriminant vanishes


def test_char_function_derivative_matches_central_difference():
    # the derivative half of the one characteristic callable against its
    # value half
    rng = np.random.default_rng(17)
    h = 1e-6
    for I, C, tau in ((0.0, 3.0, 50.0), (-0.8, 1.0, 80.0), (0.5, 6.0, 20.0)):
        params = FHNParams(I=I)
        for st in fhn_steady_states(params, C):
            lin = fhn_linearization(st, params, C)
            wv = WaveVector(*rng.uniform(0, 2 * math.pi, 2))
            fdf = fhn_char_function(lin, tau, wv)[0]
            lam = rng.uniform(-1, 0.5, 6) + 1j * rng.uniform(-4, 4, 6)
            _, df = fdf(lam)
            central = (fdf(lam + h)[0] - fdf(lam - h)[0]) / (2 * h)
            assert np.all(np.abs(df - central) <= 1e-6 * np.abs(df))


def test_hybrid_dispersion_symmetries():
    params = FHNParams(I=-0.8)
    st = fhn_steady_states(params, 3.0)[0]
    om = np.linspace(-3, 3, 64)
    km = np.linspace(-1.4, 1.4, 64)
    OM, KM = np.meshgrid(om, km)
    g = fhn_hybrid_dispersion(st, params, 3.0, OM, KM)
    assert np.max(np.abs(g - fhn_hybrid_dispersion(st, params, 3.0, -OM, KM))) < 1e-12
    assert np.max(np.abs(g - fhn_hybrid_dispersion(st, params, 3.0, OM, -KM))) < 1e-12
    assert np.max(np.abs(g - fhn_hybrid_dispersion(st, params, 3.0, OM, KM + math.pi))) < 1e-12


def test_hybrid_dispersion_stable_regime_max():
    params = FHNParams(I=-0.8)
    st = fhn_steady_states(params, 3.0)[0]
    om = np.linspace(-4, 4, 201)
    km = np.linspace(-1.5, 1.5, 101)
    OM, KM = np.meshgrid(om, km)
    g = fhn_hybrid_dispersion(st, params, 3.0, OM, KM)
    assert np.max(g) < 0.0


def test_hybrid_dispersion_decoupled_mode():
    params = FHNParams(I=-0.8)
    st = fhn_steady_states(params, 3.0)[0]
    with pytest.raises(ValueError):
        fhn_hybrid_dispersion(st, params, 3.0, 0.5, math.pi / 2)


def test_hybrid_dispersion_matches_hand_expansion():
    # Y written out from the rank-1 coupling, the oracle of -log|P/Q|
    om = np.linspace(-3.0, 3.0, 61) + 0.0131
    km = np.linspace(-math.pi / 2, math.pi / 2, 62)[1:-1] + 1e-3
    OM, KM = np.meshgrid(om, km, indexing="ij")
    for I, C in ((-0.8, 3.0), (0.0, 3.0), (0.5, 6.0), (1.2, 1.0)):
        params = FHNParams(I=I)
        for st in fhn_steady_states(params, C):
            lin = fhn_linearization(st, params, C)
            A, iw = lin.A, 1j * OM
            Y = ((A[2, 2] - iw) / (2.0 * A[2, 0] * lin.b13 * np.cos(KM))
                 * (A[0, 0] - iw - A[0, 1] * A[1, 0] / (A[1, 1] - iw)))
            got = np.exp(-fhn_hybrid_dispersion(st, params, C, OM, KM))
            assert np.max(np.abs(got - np.abs(Y)) / np.abs(Y)) < 1e-12


def test_strong_spectrum_matches_hand_expansion():
    for I, C in ((-0.8, 3.0), (0.0, 3.0), (0.5, 6.0), (1.2, 1.0)):
        params = FHNParams(I=I)
        b, eps = params.b, params.eps
        for st in fhn_steady_states(params, C):
            a11 = fhn_linearization(st, params, C).A[0, 0]
            # lambda+- = (a11 - b eps +- sqrt((a11 + b eps)^2 - 4 eps)) / 2
            root = cmath.sqrt((a11 + b * eps) ** 2 - 4.0 * eps)
            _, lam_p, lam_m = fhn_strong_spectrum(st, params, C)
            for got, want in ((lam_p, 0.5 * (a11 - b * eps + root)),
                              (lam_m, 0.5 * (a11 - b * eps - root))):
                assert abs(got - want) <= 1e-12 * abs(want)


def test_exact_roots_approach_hybrid_curve():
    params = FHNParams(I=-0.8)
    st = fhn_steady_states(params, 3.0)[0]
    lin = fhn_linearization(st, params, 3.0)
    dists = []
    for tau in (50.0, 200.0):
        fdf, terms = fhn_char_function(lin, tau, HOMOG)
        rs = find_roots_quasipoly(fdf, (-0.4, 0.05, 0.05, 2.0), terms=terms)
        roots = rs.roots
        assert len(roots) > 3
        g = fhn_hybrid_dispersion(st, params, 3.0, roots.imag, 0.0)
        dists.append(np.max(np.abs(roots.real - g / tau)))
    assert dists[1] < dists[0]


def test_hopf_points_cross_validate():
    params = FHNParams()
    points = fhn_hopf_points(params, 3.0, 20.0, HOMOG, n_seeds=(16, 16))
    assert points
    for I, om in points[:4]:
        p = FHNParams(I=I)
        states = fhn_steady_states(p, 3.0)
        best = math.inf
        for st in states:
            rs = fhn_char_roots(st, p, 3.0, 20.0, HOMOG)
            for lam in rs.roots:
                best = min(best, abs(lam - 1j * om))
        assert best < 1e-6


def test_hopf_reappearance():
    params = FHNParams()
    tau = 20.0
    points = fhn_hopf_points(params, 3.0, tau, HOMOG, n_seeds=(12, 12))
    assert points
    I0, om0 = points[0]
    tau2 = tau + 2.0 * math.pi / om0
    points2 = fhn_hopf_points(params, 3.0, tau2, HOMOG, n_seeds=(12, 12))
    assert any(abs(I - I0) < 1e-6 and abs(om - om0) < 1e-6
               for I, om in points2)


# Hopf points (I, Omega) of the homogeneous mode at C=3, tau=50, recorded
# with the finite-difference Jacobian and the pairwise dedup they replaced
HOPF_12X12 = [
    (0.3312461067552976, 0.2745576157643837),
    (0.5552657329483212, 0.9697276154626979),
    (0.5569652819607864, 1.0888496212820182),
    (0.5870286159165833, 0.7284122434783543),
    (0.6224598440087438, 0.4869062196132296),
    (0.6346916267219983, 0.36656483825438807),
    (0.6371390481755733, 0.24687513481857845),
    (0.6407747205627327, 1.078158044944525),
    (0.7028925944571593, 0.9478178485805887),
    (0.7430660100922085, 0.819027701972999),
    (0.7934657374910766, 0.5627610644989737),
    (0.8194927397224534, 0.3066125583430423),
    (0.8481834488753143, 0.015662545774016313),
]
HOPF_DEFAULT = [
    (0.3312461067552976, 0.2745576157643837),
    (0.5552657329483212, 0.9697276154626979),
    (0.5569652819607865, 1.0888496212820182),
    (0.568992734647513, 0.8492243625744138),
    (0.5870286159165835, 0.7284122434783543),
    (0.6056735506120597, 0.607582604729601),
    (0.6117790039364452, 0.12832605983138556),
    (0.6224598440087438, 0.4869062196132296),
    (0.6346916267219985, 0.36656483825438807),
    (0.6371390481755733, 0.24687513481857845),
    (0.6407747205627327, 1.078158044944525),
    (0.7028925944571592, 0.9478178485805888),
    (0.7430660100922085, 0.819027701972999),
    (0.7721491479429907, 0.6907582264734478),
    (0.7934657374910766, 0.5627610644989737),
    (0.8088214730956279, 0.434857677438291),
    (0.8194927397224534, 0.3066125583430423),
    (0.8268601212455151, 0.17617234384546077),
    (0.8481834488753142, 0.01566254577401631),
]


# Hopf points at C=3, n_seeds=(16, 16) for a complex-coupled mode
# k = (2pi/3, 0) at tau=50 and for the homogeneous mode at tau=0,
# recorded with the per-seed scalar Newton loop
HOPF_K_2PI_3 = [
    (0.33057602549695964, 0.2752476402948908),
    (0.553182118338838, 0.6211706887062806),
    (0.5531982717004003, 0.14991624162094666),
    (0.553695788788348, 0.5029604873070515),
    (0.5574506896555533, 0.3844635256197605),
    (0.5588458928846873, 0.26645524912693),
    (0.6533910575688033, 0.7234757653894175),
    (0.7148805838553207, 0.59031433670606),
    (0.7494881244702837, 0.4596477996416359),
    (0.7714910007787662, 0.3292274680336492),
    (0.7843350407352254, 0.19670501523646755),
]
HOPF_TAU_0 = [
    (0.3300742676552495, 0.2751127660542206),
    (0.6265220847106249, 0.17037523287819317),
]


@pytest.mark.parametrize("tau, wv, kwargs, want", [
    (50.0, HOMOG, {"n_seeds": (12, 12)}, HOPF_12X12),
    (50.0, HOMOG, {}, HOPF_DEFAULT),
    (50.0, WaveVector(2 * math.pi / 3, 0.0), {"n_seeds": (16, 16)},
     HOPF_K_2PI_3),
    (0.0, HOMOG, {"n_seeds": (16, 16)}, HOPF_TAU_0)],
    ids=["12x12", "default", "k-2pi3-16x16", "tau0-16x16"])
def test_pinned_hopf_points(tau, wv, kwargs, want):
    points = fhn_hopf_points(FHNParams(), 3.0, tau, wv, **kwargs)
    assert len(points) == len(want)
    assert np.max(np.abs(np.array(points) - np.array(want))) <= 1e-10


# recorded with the golden-section polish that the rescans replaced
@pytest.mark.parametrize("params, want", [
    (FHNParams(), 1.4647462663332835),
    (FHNParams(b=0.5), 3.119660836605463)], ids=["default", "b0.5"])
def test_pinned_saddle_node_C(params, want):
    assert fhn_saddle_node_C(params) == pytest.approx(want, rel=1e-12, abs=0)


def test_hopf_zero_delay_matches_ode():
    params = FHNParams()
    points = fhn_hopf_points(params, 3.0, 0.0, HOMOG, n_seeds=(16, 16))
    for I, om in points:
        p = FHNParams(I=I)
        for st in fhn_steady_states(p, 3.0):
            lin = fhn_linearization(st, p, 3.0)
            Mat = lin.A.astype(complex)
            Mat[0, 2] += 2.0 * lin.b13
            eig = np.linalg.eigvals(Mat)
            if np.min(np.abs(eig - 1j * om)) < 1e-8:
                break
        else:
            pytest.fail(f"Hopf point (I={I}, omega={om}) not an ODE eigenvalue")


def test_stst_current_inverts_rest_state():
    params = FHNParams()
    for v in (-1.2, -0.5, 0.3):
        I = stst_current(v, params, 3.0)
        p = FHNParams(I=I)
        states = fhn_steady_states(p, 3.0)
        assert any(abs(st.v - v) < 1e-9 for st in states)
