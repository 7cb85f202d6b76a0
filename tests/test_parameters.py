"""Comparison functionals and the cube bounds."""

import hashlib
import json
import math

import numpy as np
import pytest

from concmeter import measures as ms
from concmeter import normspace as ns
from concmeter import parameters as par

N = 50000


def test_beta_identity_pair_is_one():
    K = ns.lp(2, 16)
    est = par.beta(K, ms.cone_surface(K), K, count=N, seed=1)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.variant == "beta"
    assert est.lam.lam == 1.0


def test_beta_scalar_scaling_invariance():
    # replacing L by a dilate is absorbed by the transform family exactly
    K = ns.lp(2, 8)
    L = ns.lp(1, 8)
    measure = ms.uniform_ball(K)
    a = par.beta(K, measure, L, count=N, seed=2)
    b = par.beta(K, measure, ns.scaled(L, 2.0), count=N, seed=2)
    assert a.value == pytest.approx(b.value, rel=1e-12)
    bt_a = par.beta_tilde(K, measure, L, count=N, seed=2)
    bt_b = par.beta_tilde(K, measure, ns.scaled(L, 0.25), count=N, seed=2)
    assert bt_a.value == pytest.approx(bt_b.value, rel=1e-12)


def test_beta_never_exceeds_lambda():
    # under the normalized sandwich the denominator dominates the numerator
    for Lp in (1.0, 1.5, np.inf):
        K = ns.lp(2, 12)
        L = ns.lp(Lp, 12)
        est = par.beta(K, ms.uniform_ball(K), L, count=N, seed=3)
        assert est.value <= est.lam.lam * (1 + 1e-12)


def test_beta_tilde_sphere_to_l1_constant():
    est = par.beta_tilde(ns.lp(2, 64), ms.cone_surface(ns.lp(2, 64)),
                         ns.lp(1, 64), count=N, seed=4)
    assert est.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=0.05)
    assert est.numerator.value == pytest.approx(1.0, abs=1e-12)


def test_beta_tilde_flat_in_dimension_for_small_p():
    values = {}
    for p in (1.0, 1.5):
        vals = [par.beta_tilde(ns.lp(2, n), ms.cone_surface(ns.lp(2, n)),
                               ns.lp(p, n), count=20000, seed=5).value
                for n in (32, 64, 128)]
        spread = (max(vals) - min(vals)) / min(vals)
        assert spread <= 0.10
        values[p] = vals


def test_diagonal_family_can_only_lower():
    rng = np.random.default_rng(6)
    K = ns.lp(2, 6)
    L = ns.lp(1, 6)
    measure = ms.uniform_ball(K)
    scalar_only = par.beta(K, measure, L, count=20000, seed=7)
    diags = [np.ones(6), rng.uniform(0.5, 2.0, size=6)]
    wider = par.beta(K, measure, L, count=20000, seed=7, diagonals=diags)
    assert wider.value <= scalar_only.value + 1e-12


def test_beta_reports_round_trip():
    est = par.beta(ns.lp(2, 8), ms.uniform_ball(ns.lp(2, 8)), ns.lp(1, 8),
                   count=20000, seed=8)
    cfg = est.to_config()
    assert cfg["variant"] == "beta"
    assert cfg["value"] == est.value
    assert cfg["transform"]["kind"] == "scalar"


# an anisotropic body, on which a diagonal candidate beats every scalar
_BODY = ns.NormSpec(dim=6, p=2, transform=np.diag([1.0, 1.0, 1.0, 4.0, 4.0, 4.0]))

# SHA-256 of each estimate's to_config() as sorted JSON, under numpy 2.4.6
FROZEN_BETAS = {
    "beta_l2_sphere16_linf": (
        lambda: par.beta(ns.lp(2, 16), ms.haar_sphere(16), ns.lp(np.inf, 16),
                         count=3000, seed=11),
        "7b29647df13cf006f208c152e0b7d7e123f0abfe981c46b224081007e9237021"),
    "beta_tilde_l2_ggp1.5_l1": (
        lambda: par.beta_tilde(ns.lp(2, 8), ms.ggp(1.5, 8), ns.lp(1, 8), count=3000, seed=12),
        "c03f0f03bf76f6ceb94d9afafd32311e56333c4ffa6ae314c63417315a55678b"),
    "beta_diagonal_argmin": (
        lambda: par.beta(ns.lp(2, 6), ms.uniform_ball(_BODY), ns.lp(1, 6), count=3000,
                         seed=13, diagonals=[np.ones(6), np.array([1.0, 1.0, 1.0, 0.25,
                                                                   0.25, 0.25])]),
        "06b6896821730e7fae2cda45f0f7626978371781fd8950d1cec561d54d9ed59d"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_BETAS))
def test_beta_estimate_is_frozen(name):
    run, digest = FROZEN_BETAS[name]
    est = run()
    if name == "beta_diagonal_argmin":
        assert est.transform["kind"] == "diagonal"
    payload = json.dumps(est.to_config(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == digest


@pytest.mark.parametrize("count", [1, 99])
@pytest.mark.parametrize("fn", [par.beta, par.beta_tilde], ids=["beta", "beta_tilde"])
def test_beta_refuses_a_sample_too_small_for_its_interval(fn, count, monkeypatch):
    # before it samples anything
    monkeypatch.setattr(par, "norm_values", lambda *args: pytest.fail("sampled"))
    with pytest.raises(ValueError, match="at least 100 samples"):
        fn(ns.lp(2, 4), ms.haar_sphere(4), ns.lp(1, 4), count=count, seed=1)


def test_norm_values_streaming_matches_batch():
    spec = ms.ggp(1.5, 8)
    norms = [ns.lp(1, 8), ns.lp(2, 8)]
    streamed = par.norm_values(spec, norms, 40000, seed=9)
    batch = ms.sample(spec, 40000, seed=9)
    for norm, vals in zip(norms, streamed):
        assert np.array_equal(vals, ns.norm_eval(norm, batch.data))


def test_embedding_lower_bound():
    assert par.embedding_lower_bound(0.01, 0.5) == pytest.approx(25.0)
    assert par.embedding_lower_bound(0.3, 1.0) == 0.0
    assert par.embedding_lower_bound(0.0, 0.2) == math.inf
    with pytest.raises(ValueError):
        par.embedding_lower_bound(0.1, 1.5)
    with pytest.raises(ValueError):
        par.embedding_lower_bound(-0.1, 0.5)


def test_cube_floor_values():
    # uniform square: mass of the half-cube is eps^2
    assert par.cube_concentration_floor(0.25, 2) == pytest.approx(0.1875)
    assert par.cube_concentration_floor(1.0, 5) == 0.0
    for mass in (0.0, 0.3, 1.0):
        val = par.cube_concentration_floor(mass, 7)
        assert 0.0 <= val <= 1.0 / 14.0
    with pytest.raises(ValueError):
        par.cube_concentration_floor(2.0, 3)


def test_cube_beta_lower_bound_value():
    val = par.cube_beta_lower_bound(1.0, 1.0, 100)
    expected = math.sqrt(math.log(16.0)) / 28.0 * 10.0 / math.log(6400.0)
    assert val == pytest.approx(expected)
    assert val == pytest.approx(0.0679, abs=0.0005)


def test_cube_beta_lower_bound_monotone_in_n():
    vals = [par.cube_beta_lower_bound(1.0, 0.25, n) for n in (8, 32, 128, 512)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        par.cube_beta_lower_bound(0.01, 1.0, 10)


def test_cube_beta_hypothesis_for_lebesgue_median():
    # the unit-body median 2^(-1/n) clears the hypothesis threshold
    for n in (1, 2, 8, 64, 1024):
        thr = par.cube_beta_hypothesis_threshold(1.0, n)
        assert 2.0 ** (-1.0 / n) > thr


def test_beta_tilde_consistent_with_cube_lower_bound():
    # measured mean-ratio value against the growth floor at sphere constants
    for n in (64, 256):
        est = par.beta_tilde(ns.lp(2, n), ms.cone_surface(ns.lp(2, n)),
                             ns.lp(np.inf, n), count=20000, seed=10)
        floor = par.cube_beta_lower_bound(1.0, 0.25, n)
        assert est.value >= floor
