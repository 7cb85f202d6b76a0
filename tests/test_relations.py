"""Metamorphic relations: two runs of a check whose reports must agree.

Each relation pairs two jobs that test the same statement in different
coordinates, so it holds whatever the sampled bits are.  Every factor is a
power of 2 or a permutation, so each relation holds bit for bit, except
where a constant goes through a transform (noted at the test).
"""

import json

import numpy as np
import pytest

from concmeter import measures as ms
from concmeter import normspace as ns
from concmeter import verify as vf

COUNT, SEED = 5001, 3
EPS = np.linspace(0.1, 4.0, 9)


def _lipschitz(measure, map_cfg, lip, metric, eps):
    return vf.check_lipschitz_transfer(
        measure=measure, map_cfg=map_cfg, lip=lip, metric_in=metric, eps_grid=eps,
        count=COUNT, seed=SEED, profile="gaussian")


def _sides(rep):
    return rep.lhs, rep.rhs, rep.ci


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("measure", [ms.gaussian(16), ms.ggp(1.0, 16)], ids=["gaussian", "ggp1"])
def test_scale_map_equals_identity_on_a_scaled_grid(measure, p):
    # f = c x is c-Lipschitz: its image curve at c eps is the source's at eps,
    # and the profile is read at c eps / c
    metric = ns.lp(p, 16)
    base = _lipschitz(measure, {"kind": "identity"}, 1.0, metric, EPS)
    for factor in (2.0, 0.5):
        scaled = _lipschitz(measure, {"kind": "scale", "factor": factor}, factor, metric,
                            factor * EPS)
        assert _sides(scaled) == _sides(base), factor


@pytest.mark.parametrize("n", [8, 33])
def test_coordinate_map_equals_identity_on_one_coordinate(n):
    # coordinate 0 of gaussian(n) is the sample of gaussian(1)
    metric = ns.lp(2, n)
    coordinate = _lipschitz(ms.gaussian(n), {"kind": "coordinate", "index": 0}, 1.0,
                            metric, EPS)
    line = _lipschitz(ms.gaussian(1), {"kind": "identity"}, 1.0, ns.lp(2, 1), EPS)
    assert (coordinate.lhs, coordinate.rhs) == (line.lhs, line.rhs)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_norm_ratio_map_of_one_norm_is_the_identity(p):
    # with K = L the norm-ratio map moves no point
    metric = ns.lp(p, 16)
    ratio = vf.check_norm_ratio_transfer(
        K=metric, L=metric, measure=ms.gaussian(16), eps_grid=EPS, count=COUNT,
        seed=SEED, profile="gaussian")
    identity = _lipschitz(ms.gaussian(16), {"kind": "identity"}, 1.0, metric, EPS)
    assert ratio.lhs == identity.lhs


def test_identity_in_a_scaled_metric_equals_plain_metric_on_a_scaled_grid():
    # distances in |2x|_2 are twice those in l2, so the image curve of the
    # identity map there at 2 eps is the plain curve at eps
    plain = _lipschitz(ms.gaussian(16), {"kind": "identity"}, 1.0, ns.lp(2, 16), EPS)
    doubled = _lipschitz(ms.gaussian(16), {"kind": "identity"}, 1.0,
                         ns.scaled(ns.lp(2, 16), 2.0), 2.0 * EPS)
    assert doubled.lhs == plain.lhs


@pytest.mark.parametrize("n", [8, 16, 64])
def test_norm_ratio_transfer_is_blind_to_a_permuted_l1(n):
    # |Px|_1 = |x|_1 for a permutation matrix P: the image and its curve are
    # the same; the containment constant goes through the transform, so the
    # rhs agrees only up to round-off
    def ratio(L):
        return vf.check_norm_ratio_transfer(
            K=ns.lp(2, n), L=L, measure=ms.haar_sphere(n), eps_grid=vf.default_eps_grid(),
            count=COUNT, seed=SEED, profile="sphere")

    plain = ratio(ns.lp(1, n))
    permuted = ratio(ns.NormSpec(dim=n, p=1.0, transform=np.roll(np.eye(n), 1, axis=0)))
    assert permuted.lhs == plain.lhs
    np.testing.assert_allclose(permuted.rhs, plain.rhs, rtol=0.0, atol=4e-15)
    assert (permuted.verdict, permuted.violations) == (plain.verdict, plain.violations)


@pytest.mark.parametrize("n", [16, 64])
def test_separated_sets_in_a_doubled_metric_double_their_distances(n):
    # the same half-space pairs cut the same masses; distances in |2x|_2
    # are twice those in l2
    def pairs(metric):
        return vf.check_separated_sets(measure=ms.haar_sphere(n), metric=metric,
                                       num_pairs=70, count=COUNT, seed=9, profile="sphere")

    plain = pairs(ns.lp(2, n))
    doubled = pairs(ns.scaled(ns.lp(2, n), 2.0))
    assert (doubled.lhs, doubled.ci) == (plain.lhs, plain.ci)
    assert doubled.eps == [2.0 * e for e in plain.eps]


@pytest.mark.parametrize("seed", [1, 2])
def test_radial_transfer_lambda_reaches_only_the_statement(seed):
    # lambda enters the rhs and the precondition alone: the report at
    # lambda = 2 is the one at lambda = 1 with its inputs edited and its
    # verdict terms restated, byte for byte
    def radial(lam):
        return vf.run_check("radial_transfer", p=1.0, n=16, lam=lam, count=4000, seed=seed)

    report = json.loads(radial(1.0).to_json())
    report["inputs"]["lambda"] = 2.0
    rhs, slack, pre, violations, worst, verdict = vf.restate(report)
    report["grid"].update(rhs=rhs.tolist(), slack=slack.tolist(), precondition=pre.tolist())
    report["violations"] = {"count": violations, "worst_margin": worst}
    report["verdict"] = verdict
    assert json.dumps(report, sort_keys=True, indent=2) == radial(2.0).to_json()
