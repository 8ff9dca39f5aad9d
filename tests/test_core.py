import json
import math

import numpy as np
import pytest

from delaylattice.core import (ConfigError, DelayMap, FHNParams, LatticeSpec,
                               Model, SLParams, WaveVector,
                               enumerate_mode_classes, enumerate_modes,
                               mode_cos, parse_config)

SL33 = LatticeSpec(rows=3, cols=3, model=Model.STUART_LANDAU,
                   params=SLParams(alpha=-2.0, beta=0.5), coupling=2.0)


def test_single_node_mode():
    spec = LatticeSpec(rows=1, cols=1, model=Model.STUART_LANDAU,
                       params=SLParams(-2.0, 0.5), coupling=2.0)
    modes = enumerate_modes(spec)
    assert len(modes) == 1
    # (2pi, 2pi) is the same mode as (0, 0); canonical form is (0, 0)
    assert modes[0].k1 == 0.0 and modes[0].k2 == 0.0


def test_three_by_three_modes():
    modes = enumerate_modes(SL33)
    assert len(modes) == 9
    assert WaveVector(2 * math.pi / 3, 2 * math.pi / 3) in modes


@pytest.mark.parametrize("rows, cols, n_classes", [
    (1, 1, 1), (2, 2, 4), (3, 3, 5), (4, 4, 10), (5, 5, 13), (10, 10, 52),
    (1, 6, 4)])
def test_mode_classes_pair_each_mode_with_its_negative(rows, cols,
                                                       n_classes):
    spec = LatticeSpec(rows, cols, Model.STUART_LANDAU, SLParams(1.0, 0.0),
                       1.0)
    modes = enumerate_modes(spec)
    reps = [modes.index(q) for q in enumerate_mode_classes(spec)]
    assert len(reps) == n_classes and reps == sorted(reps)

    def partner(i):
        # the index of -q (mod 2 pi) for the mode q of index i
        l, j = divmod(i, cols)
        return (-l) % rows * cols + (-j) % cols

    for i in range(len(modes)):
        # q is a representative or the partner of exactly one, which has
        # the lower index
        owners = [r for r in reps if i in (r, partner(r))]
        assert len(owners) == 1 and owners[0] <= i
    for r in reps:
        assert r <= partner(r)
        k1, k2 = modes[partner(r)].k1, modes[partner(r)].k2
        assert math.isclose(math.cos(k1 + modes[r].k1), 1.0)
        assert math.isclose(math.cos(k2 + modes[r].k2), 1.0)


def test_modes_match_brute_force():
    spec = LatticeSpec(rows=2, cols=3, model=Model.STUART_LANDAU,
                       params=SLParams(1.0, 0.0), coupling=1.0)
    modes = enumerate_modes(spec)
    assert len(modes) == 6
    expected_km = sorted(
        0.5 * (2 * math.pi * l / 2 - 2 * math.pi * j / 3) % (2 * math.pi)
        for l in range(2) for j in range(3))
    got_km = sorted(m.k_minus % (2 * math.pi) for m in modes)
    assert np.allclose(got_km, expected_km, atol=1e-12)


def test_modes_are_distinct():
    pairs = {(m.k1, m.k2) for m in enumerate_modes(SL33)}
    assert len(pairs) == 9
    assert all(0.0 <= k < 2 * math.pi for pair in pairs for k in pair)


def test_mode_cos_is_zero_exactly_where_a_mode_decouples():
    # cos(+-pi/2) rounds to 6e-17 and cos(3 pi/2) to -1.8e-16
    half = [math.pi / 2, -math.pi / 2, 3 * math.pi / 2]
    other = [0.0, math.pi, -math.pi / 3, 2 * math.pi / 3, 1.0, 1e-300,
             math.pi / 2 + 1e-9, 100.0]
    for k in half:
        assert mode_cos(k) == 0.0 and type(mode_cos(k)) is float
    for k in other:
        assert mode_cos(k) == math.cos(k) and type(mode_cos(k)) is float
    got = mode_cos(np.array([half + other, other + half]))
    assert got.shape == (2, 11)
    assert got.tolist() == [[0.0] * 3 + [math.cos(k) for k in other],
                            [math.cos(k) for k in other] + [0.0] * 3]


def test_lattice_spec_needs_a_node():
    with pytest.raises(ValueError, match="lattice dimensions must be >= 1"):
        LatticeSpec(rows=0, cols=3, model=Model.STUART_LANDAU,
                    params=SLParams(1.0, 0.0), coupling=1.0)


def test_delay_map_edges_of_one_shape():
    with pytest.raises(ValueError, match="matrices of equal shape"):
        DelayMap(down=np.ones((2, 2)), right=np.ones((2, 3)))


def test_delay_map_positivity():
    with pytest.raises(ValueError):
        DelayMap(down=np.array([[1.0, 0.0]]), right=np.array([[1.0, 1.0]]))


def test_delay_map_extrema():
    dm = DelayMap(down=np.array([[1.0, 3.0]]), right=np.array([[2.0, 0.5]]))
    assert dm.max_delay == 3.0
    assert dm.min_delay == 0.5


def test_parse_minimal_sl_config():
    cfg = parse_config(json.dumps({
        "model": "sl", "M": 3, "N": 3,
        "params": {"alpha": -2.0, "beta": 0.5},
        "C": 2.0, "delay": {"homogeneous": 20.0},
    }))
    assert cfg.spec.model is Model.STUART_LANDAU
    assert cfg.spec.rows == 3 and cfg.spec.cols == 3
    assert cfg.spec.params == SLParams(alpha=-2.0, beta=0.5)
    assert cfg.spec.coupling == 2.0
    assert cfg.tau == 20.0


def test_parse_fhn_defaults():
    cfg = parse_config(json.dumps({
        "model": "fhn", "M": 2, "N": 2, "params": {"I": -1.0}, "C": 3.0,
    }))
    p = cfg.spec.params
    assert p == FHNParams(I=-1.0, a=0.7, b=0.8, eps=0.08, v_r=2.0)


def test_parse_negative_coupling_names_field():
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({
            "model": "sl", "M": 1, "N": 1,
            "params": {"alpha": 0.0, "beta": 0.0}, "C": -1.0,
        }))
    assert exc.value.path == "C"


@pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf, -1.0])
def test_lattice_spec_rejects_a_coupling_that_is_not_finite_and_nonnegative(C):
    with pytest.raises(ValueError, match=f"finite and >= 0, got {C}$"):
        LatticeSpec(rows=1, cols=1, model=Model.STUART_LANDAU,
                    params=SLParams(-2.0, 0.5), coupling=C)


def test_parse_negative_seed_names_field():
    doc = {"model": "sl", "M": 2, "N": 2,
           "params": {"alpha": 1.0, "beta": 1.0}, "C": 1.0, "seed": -1}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.path == "seed"


def test_parse_integer_too_large_for_a_double_is_not_finite():
    # float() of the int overflows; the CLI's C case is in test_cli.py
    doc = {"model": "sl", "M": 2, "N": 2,
           "params": {"alpha": 10 ** 400, "beta": 1.0}, "C": 1.0}
    with pytest.raises(ConfigError, match="expected a finite number") as exc:
        parse_config(json.dumps(doc))
    assert exc.value.path == "params.alpha"


def test_parse_integer_beyond_the_digit_limit_is_a_config_error():
    # json.loads raises a plain ValueError past Python's limit of 4,300
    # digits (Python 3.10.7 and later; an older one overflows the double)
    text = ('{"model": "sl", "M": 2, "N": 2, "C": 1' + "0" * 5000
            + ', "params": {"alpha": 1.0, "beta": 1.0}}')
    with pytest.raises(ConfigError):
        parse_config(text)


def test_parse_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config(json.dumps({
            "model": "sl", "M": 1, "N": 1,
            "params": {"alpha": 0.0, "beta": 0.0}, "C": 1.0, "bogus": 1,
        }))


def test_parse_reports_missing_field():
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"model": "sl", "M": 1, "N": 1, "C": 1.0}))


def test_config_roundtrip_through_dict():
    doc = {
        "model": "fhn", "M": 4, "N": 5, "params": {"I": 0.25}, "C": 3.0,
        "delay": {"homogeneous": 50.0},
        "sim": {"t_end": 10.0, "dt": 0.01, "record_every": 5},
        "seed": 42,
    }
    cfg = parse_config(json.dumps(doc))
    cfg2 = parse_config(json.dumps(cfg.to_dict()))
    assert cfg2 == cfg
