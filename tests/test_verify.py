"""The inequality-check harness."""

import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest

from concmeter import measures as ms
from concmeter import normspace as ns
from concmeter import verify as vf

N = 50000


def test_lipschitz_transfer_identity():
    rep = vf.check_lipschitz_transfer(
        measure=ms.gaussian(8), map_cfg={"kind": "identity"}, lip=1.0,
        metric_in=ns.lp(2, 8), eps_grid=np.linspace(0.1, 4.0, 15),
        count=N, seed=1, profile="gaussian")
    assert rep.verdict == "pass"
    assert rep.violations == 0
    assert rep.quantities["empirical_lipschitz"] <= 1.0 + 1e-9


def test_lipschitz_transfer_contraction():
    rep = vf.check_lipschitz_transfer(
        measure=ms.gaussian(16), map_cfg={"kind": "scale", "factor": 0.5},
        lip=0.5, metric_in=ns.lp(2, 16), eps_grid=np.linspace(0.1, 3.0, 12),
        count=N, seed=2, profile="gaussian")
    assert rep.verdict == "pass"


def test_lipschitz_transfer_coordinate_projection():
    rep = vf.check_lipschitz_transfer(
        measure=ms.gaussian(8), map_cfg={"kind": "coordinate", "index": 2},
        lip=1.0, metric_in=ns.lp(2, 8), eps_grid=np.linspace(0.2, 3.0, 10),
        count=N, seed=3, profile="gaussian")
    assert rep.verdict == "pass"


def test_lipschitz_transfer_rejects_false_claim():
    with pytest.raises(vf.CheckError):
        vf.check_lipschitz_transfer(
            measure=ms.gaussian(4), map_cfg={"kind": "identity"}, lip=0.5,
            metric_in=ns.lp(2, 4), eps_grid=np.linspace(0.1, 1.0, 5),
            count=10000, seed=4)


def test_norm_ratio_transfer_identity_pair():
    rep = vf.check_norm_ratio_transfer(
        K=ns.lp(2, 64), L=ns.lp(2, 64), measure=ms.haar_sphere(64),
        eps_grid=vf.default_eps_grid(), count=N, seed=5, profile="sphere")
    assert rep.verdict == "pass"
    assert rep.quantities["lambda"] == 1.0
    assert any(rep.precondition)


def test_norm_ratio_transfer_sphere_to_l1():
    rep = vf.check_norm_ratio_transfer(
        K=ns.lp(2, 32), L=ns.lp(1, 32), measure=ms.haar_sphere(32),
        eps_grid=vf.default_eps_grid(), count=N, seed=6, profile="sphere")
    assert rep.verdict == "pass"
    assert rep.quantities["median_K"] == pytest.approx(1.0, abs=1e-12)
    # medians obey the sandwich exactly on the same sample
    assert (rep.quantities["median_K"]
            <= rep.quantities["median_L"]
            <= rep.quantities["lambda"] * rep.quantities["median_K"] + 1e-12)


def test_shell_inclusion_zero_violations():
    rep = vf.check_shell_inclusion(
        K=ns.lp(2, 16), L=ns.lp(1, 16), measure=ms.haar_sphere(16),
        eps=0.5, count=N, probes=N, seed=7)
    assert rep.verdict == "pass"
    assert rep.violations == 0
    assert rep.quantities["max_displacement"] <= rep.quantities["displacement_bound"] + 1e-9


def test_shell_inclusion_counts_violations_per_probe(monkeypatch):
    # plant a fault: send the images of the first 5 probes to the origin,
    # an L-distance of |y|_K = 1 from their partners against a bound of eps
    real = vf.norm_ratio_map
    calls = []

    def planted(K, L, x):
        out = real(K, L, x)
        calls.append(x)
        if len(calls) == 1:     # the calls map the probes, then their partners
            out[:5] = 0.0
        return out

    monkeypatch.setattr(vf, "norm_ratio_map", planted)
    rep = vf.check_shell_inclusion(
        K=ns.lp(2, 16), L=ns.lp(1, 16), measure=ms.haar_sphere(16),
        eps=0.5, count=20000, probes=2000, seed=7)
    assert len(calls) == 2
    assert rep.quantities["membership_failures"] == 0
    assert rep.violations == 5
    assert rep.verdict == "fail"
    assert rep.worst_margin > 0.0


def test_shell_inclusion_empty_set_not_applicable():
    rep = vf.check_shell_inclusion(
        K=ns.lp(2, 16), L=ns.lp(1, 16), measure=ms.haar_sphere(16),
        eps=1e-7, count=2000, probes=1000, seed=8)
    assert rep.verdict == "not-applicable"


def test_separated_sets_sphere():
    rep = vf.check_separated_sets(
        measure=ms.haar_sphere(64), metric=ns.lp(2, 64), num_pairs=300,
        count=N, seed=9, profile="sphere")
    assert rep.verdict == "pass"
    assert rep.violations == 0


def _separated_sets_oracle(measure, metric, num_pairs, count, seed, profile):
    """One projection, two np.quantile calls and one dual norm per pair."""
    prof = vf._resolve_profile(profile, measure.dim)
    data = ms.sample(measure, count, seed).data
    dseed = vf.rng.derive_seed(seed, 0xC2)
    pairs = np.arange(num_pairs, dtype=np.uint64)
    thetas = vf.rng.normals(dseed, pairs[:, None],
                            np.arange(measure.dim, dtype=np.uint64)[None, :], 0)
    q_lo = 0.02 + 0.43 * vf.rng.uniforms(dseed, pairs, 0, 2)
    q_hi = 0.55 + 0.43 * vf.rng.uniforms(dseed, pairs, 1, 2)
    dual = ns.dual_norm(metric)
    lhs, ci, half_dist = [], [], []
    for k in range(num_pairs):
        s = data @ thetas[k]
        a, b = np.quantile(s, q_lo[k]), np.quantile(s, q_hi[k])
        pa, pb = float((s <= a).mean()), float((s >= b).mean())
        lhs.append(pa * pb)
        var = (pb * pb * pa * (1 - pa) + pa * pa * pb * (1 - pb)) / count
        ci.append(1.96 * math.sqrt(max(var, 0.0)) + 1.0 / count)
        half_dist.append(0.5 * max(b - a, 0.0) / float(ns.norm_eval(dual, thetas[k])))
    order = np.argsort(half_dist)
    half_dist = np.array(half_dist)[order]
    return (half_dist, np.array(lhs)[order], 4.0 * prof(half_dist),
            np.array(ci)[order])


@pytest.mark.parametrize("n, p, num_pairs, count", [
    (16, 2, 150, 5001), (7, 1, 64, 4000), (33, np.inf, 1, 999)])
def test_separated_sets_matches_per_pair_oracle(n, p, num_pairs, count):
    measure, metric = ms.haar_sphere(n), ns.lp(p, n)
    rep = vf.check_separated_sets(measure=measure, metric=metric,
                                  num_pairs=num_pairs, count=count, seed=4)
    eps, lhs, rhs, ci = _separated_sets_oracle(measure, metric, num_pairs,
                                               count, 4, "sphere")
    assert rep.lhs == lhs.tolist() and rep.ci == ci.tolist()
    np.testing.assert_allclose(rep.eps, eps, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(rep.rhs, rhs, rtol=1e-13, atol=0.0)
    oracle = vf._finish("separated_sets", {}, {}, eps, lhs, rhs, ci, 0.0, True, "le")
    assert (rep.violations, rep.verdict) == (oracle.violations, oracle.verdict)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_norm_ratio_transfer_frees_the_batch_before_the_curve():
    # live at the curve: the image and one (64, N) projection block, each
    # one batch at n = 64; the source batch is gone
    batch = 20000 * 64 * 8
    peak = _traced_peak(lambda: vf.check_norm_ratio_transfer(
        K=ns.lp(2, 64), L=ns.lp(1, 64), measure=ms.haar_sphere(64),
        eps_grid=vf.default_eps_grid(), count=20000, seed=3))
    assert peak <= 2.3 * batch


def test_separated_sets_holds_one_projection_block():
    # the batch and one (64, N) projection block, each one batch at n = 64
    batch = 20000 * 64 * 8
    peak = _traced_peak(lambda: vf.check_separated_sets(
        measure=ms.haar_sphere(64), metric=ns.lp(2, 64), num_pairs=200,
        count=20000, seed=3))
    assert peak <= 2.3 * batch


def test_cube_floor_small_dims():
    for n in (1, 2, 8):
        rep = vf.check_cube_floor(n=n, eps_grid=np.linspace(0.1, 0.9, 9),
                                  count=N, seed=10)
        assert rep.verdict == "pass", f"n={n}"
    # the 1-d case is tight: estimator and floor agree up to sampling
    # noise (binomial CI plus median placement, both O(1/sqrt N))
    rep = vf.check_cube_floor(n=1, eps_grid=np.linspace(0.1, 0.9, 9),
                              count=N, seed=11)
    gap = np.abs(np.asarray(rep.lhs) - np.asarray(rep.rhs))
    assert np.all(gap <= 4.0 / math.sqrt(N))


def test_sup_embedding_identity_on_cube():
    rep = vf.check_sup_embedding(
        K=ns.lp(np.inf, 8), measure=ms.uniform_ball(ns.lp(np.inf, 8)),
        functionals=np.eye(8), d=1.0, eps_grid=np.linspace(0.1, 0.9, 9),
        count=N, seed=12)
    assert rep.verdict == "pass"
    # the floor chain is tight here: requirement equals the dimension
    assert np.allclose(np.asarray(rep.rhs)[np.asarray(rep.precondition)], 8.0)


def test_sup_embedding_euclidean_coordinates():
    n = 16
    d = math.sqrt(n)
    rep = vf.check_sup_embedding(
        K=ns.lp(2, n), measure=ms.uniform_ball(ns.lp(2, n)),
        functionals=np.eye(n), d=d,
        eps_grid=np.array([0.5 / d, 0.9 / d, 1.5 / d]),
        count=N, seed=13, profile="sphere")
    assert rep.verdict == "pass"
    assert rep.precondition == [True, True, False]


def test_sup_embedding_rejects_bad_functionals():
    with pytest.raises(vf.CheckError):
        vf.check_sup_embedding(
            K=ns.lp(np.inf, 6), measure=ms.uniform_ball(ns.lp(np.inf, 6)),
            functionals=0.3 * np.eye(6), d=1.0,
            eps_grid=np.array([0.5]), count=5000, seed=14)


@pytest.mark.parametrize("p,n", [(1.0, 16), (2.0, 32)])
def test_radial_transfer(p, n):
    rep = vf.check_radial_transfer(p=p, n=n, eps_grid=vf.default_eps_grid(),
                                   count=N, seed=15)
    assert rep.verdict == "pass"
    assert any(rep.precondition)
    assert rep.quantities["u_lipschitz"] > 0


def test_radial_transfer_rejects_bad_p():
    with pytest.raises(vf.CheckError):
        vf.check_radial_transfer(p=3.0, n=8, eps_grid=[0.5], count=1000, seed=16)


def test_reports_are_deterministic_and_serializable():
    kw = dict(n=2, eps_grid=np.linspace(0.1, 0.9, 5).tolist(), count=20000, seed=17)
    a = vf.run_check("cube_floor", **kw)
    b = vf.run_check("cube_floor", **kw)
    assert a.to_json() == b.to_json()
    payload = json.loads(a.to_json())
    assert set(payload) == {"check_id", "inputs", "quantities", "grid",
                            "violations", "verdict", "notes"}
    assert payload["grid"]["eps"] == kw["eps_grid"]


def test_run_check_defaults_and_unknown():
    rep = vf.run_check("cube_floor", count=5000)
    assert rep.check_id == "cube_floor"
    with pytest.raises(vf.CheckError):
        vf.run_check("no_such_check")


@pytest.mark.parametrize("check_id", sorted(vf.CHECK_SPECS))
def test_check_table_matches_signature(check_id):
    spec = vf.CHECK_SPECS[check_id]
    signature = inspect.signature(spec.fn).parameters
    filled = {par.arg for par in spec.params}
    assert filled <= set(signature)
    covered = {par.arg for par in spec.params
               if par.key in spec.required or par.default is not None}
    bare = {name for name, prm in signature.items()
            if prm.default is inspect.Parameter.empty}
    assert bare <= covered
    assert spec.required <= {par.key for par in spec.params}


def test_run_check_fills_row_defaults_through_module_binding(monkeypatch):
    seen = {}
    monkeypatch.setattr(vf, "check_cube_floor", lambda **kw: seen.update(kw) or "report")
    assert vf.run_check("cube_floor", n=3, count=10) == "report"
    assert seen["n"] == 3 and seen["count"] == 10
    assert seen["eps_grid"].tolist() == np.linspace(0.1, 0.9, 9).tolist()
    with pytest.raises(TypeError):
        vf.run_check("cube_floor", probes=5)


def test_precondition_monotone_slack():
    # weakening eps toward larger rhs arguments never flips pass to fail
    rep = vf.check_norm_ratio_transfer(
        K=ns.lp(2, 16), L=ns.lp(1, 16), measure=ms.haar_sphere(16),
        eps_grid=vf.default_eps_grid(), count=20000, seed=18, profile="sphere")
    margins = (np.asarray(rep.lhs) - np.asarray(rep.ci)
               - np.asarray(rep.rhs) - np.asarray(rep.slack))
    admitted = margins[np.asarray(rep.precondition)]
    # once the grid is deep enough for the precondition, slack only grows
    assert np.all(admitted <= 0.0)
