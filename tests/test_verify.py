"""The inequality-check harness."""

import hashlib
import inspect
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from concmeter import cli
from concmeter import concentration as con
from concmeter import measures as ms
from concmeter import normspace as ns
from concmeter import rng
from concmeter import transport as tr
from concmeter import verify as vf
from reference import curve_oracle

N = 50000


def test_lipschitz_transfer_identity():
    kw = dict(measure=ms.gaussian(8), metric_in=ns.lp(2, 8), count=N, seed=1,
              profile="gaussian")
    eps = np.linspace(0.1, 4.0, 15)
    rep = vf.check_lipschitz_transfer(map_cfg={"kind": "identity"}, lip=1.0, eps_grid=eps, **kw)
    assert rep.verdict == "pass"
    assert rep.violations == 0
    # the map x -> 2x at 2 eps tests the same statement, bit for bit
    doubled = vf.check_lipschitz_transfer(map_cfg={"kind": "scale", "factor": 2}, lip=2.0,
                                          eps_grid=2.0 * eps, **kw)
    assert (doubled.lhs, doubled.rhs, doubled.ci) == (rep.lhs, rep.rhs, rep.ci)


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
            count=10000, seed=4, profile="gaussian")


@pytest.mark.parametrize("map_cfg, metric, constant, metric_out", [
    ({"kind": "identity"}, ns.lp(1.5, 4), 1.0, ns.lp(1.5, 4)),
    ({"kind": "scale", "factor": -3}, ns.lp(2, 4), 3.0, ns.lp(2, 4)),
    ({"kind": "scale", "factor": 2}, ns.scaled(ns.lp(1, 4), 2.0), 2.0,
     ns.scaled(ns.lp(1, 4), 2.0)),
    ({"kind": "coordinate", "index": 3}, ns.lp(1, 4), 1.0, ns.lp(1, 1)),
    ({"kind": "coordinate"}, ns.lp(1.5, 4), 1.0, ns.lp(1.5, 1)),
    ({"kind": "coordinate", "index": 1}, ns.lp(math.inf, 4), 1.0, ns.lp(math.inf, 1)),
    # sup |x_1| over |2x|_2 <= 1
    ({"kind": "coordinate", "index": 1}, ns.scaled(ns.lp(2, 4), 2.0), 0.5, ns.lp(2, 1)),
])
def test_build_map_gives_the_exact_lipschitz_constant(map_cfg, metric, constant, metric_out):
    fn, out, _, lip = vf.build_map(map_cfg, metric)
    assert lip == constant
    assert out.to_config() == metric_out.to_config()
    # no pair of points beats the constant, and the pairs come near it
    x = rng._generator(7, 0).standard_normal((2000, 4))
    ratios = (ns.norm_eval(out, fn(x[::2]) - fn(x[1::2]))
              / ns.norm_eval(metric, x[::2] - x[1::2]))
    assert 0.5 * lip < ratios.max() <= lip * (1.0 + 1e-12)


def test_build_map_names_a_missing_factor():
    with pytest.raises(ValueError, match="missing key 'factor'"):
        vf.build_map({"kind": "scale"}, ns.lp(2, 4))
    with pytest.raises(vf.ConfigError, match=r"^jobs\[0\]\.map: missing key 'factor'$"):
        vf.config_params({**_LIPSCHITZ_JOB, "map": {"kind": "scale"}}, "jobs[0]")


@pytest.mark.parametrize("map_cfg, lip", [({"kind": "identity"}, 0.5),
                                          ({"kind": "scale", "factor": 3}, 2.0),
                                          ({"kind": "coordinate"}, 0.9),
                                          ({"kind": "identity"}, 0.0)])
def test_lipschitz_transfer_refuses_a_false_claim_before_sampling(monkeypatch, map_cfg, lip):
    monkeypatch.setattr(vf, "sample_map", lambda *args: pytest.fail("the check sampled"))
    with pytest.raises(vf.CheckError) as err:
        vf.check_lipschitz_transfer(
            measure=ms.gaussian(4), map_cfg=map_cfg, lip=lip, metric_in=ns.lp(2, 4),
            eps_grid=[0.5], count=1000, seed=4, profile="gaussian")
    assert err.value.key == "lip"


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
        out[:5] = 0.0
        return out

    monkeypatch.setattr(vf, "norm_ratio_map", planted)
    rep = vf.check_shell_inclusion(
        K=ns.lp(2, 16), L=ns.lp(1, 16), measure=ms.haar_sphere(16),
        eps=0.5, count=20000, probes=2000, seed=7)
    # one call maps the probes; the partners' images come from their sampled norms
    assert len(calls) == 1 and calls[0].shape == (2000, 16)
    assert rep.quantities["displacement_failures"] == 5
    assert rep.quantities["membership_failures"] == 0
    # the displacement row is past its cap, the membership row is not
    assert rep.violations == 1
    assert rep.verdict == "fail"
    assert rep.worst_margin > 0.0


def test_shell_inclusion_few_probes_keep_the_boundary_half(monkeypatch):
    # at probes < 10 the collinear and repeated slices are empty: half the
    # probes sit on the K-sphere of the probe radius around their partner
    # and the rest strictly inside it, in random directions
    real_map, real_lift = vf.norm_ratio_map, vf._lift
    probes, lifted = [], []

    def mapped(K, L, x):
        probes.append(np.array(x))
        return real_map(K, L, x)

    def lift(norms, rows, out=None):
        lifted.append(np.array(rows))
        return real_lift(norms, rows, out)

    monkeypatch.setattr(vf, "norm_ratio_map", mapped)
    monkeypatch.setattr(vf, "_lift", lift)
    K = ns.lp(2, 16)
    rep = vf.check_shell_inclusion(K=K, L=ns.lp(1, 16), measure=ms.haar_sphere(16),
                                   eps=0.5, count=5000, probes=5, seed=7)
    # the sample chunks are lifted first and the probes' partners last
    (x,), y = probes, lifted[-1]
    assert y.shape == (5, 16) and np.allclose(ns.norm_eval(K, y), 1.0, rtol=1e-12)
    dist = ns.norm_eval(K, x - y)
    radius = rep.quantities["probe_radius"]
    np.testing.assert_allclose(dist[:2], radius, rtol=1e-12)
    assert np.all(dist[2:] < radius * (1.0 - 1e-6))
    assert rep.verdict == "pass"


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


def _separated_sets_oracle(data, metric, num_pairs, seed, profile):
    """One projection, two np.quantile calls, two counts by searchsorted and
    one dual norm per pair."""
    count, n = data.shape
    prof = vf.analytic_profile(profile, n)
    dseed = vf.rng.derive_seed(seed, 0xC2)
    thetas = vf.rng._generator(dseed, 0).standard_normal((num_pairs, n))
    u = vf.rng._generator(dseed, 1).random((num_pairs, 2))
    q_lo, q_hi = 0.02 + 0.43 * u[:, 0], 0.55 + 0.43 * u[:, 1]
    dual = ns.dual_norm(metric)
    lhs, ci, half_dist = [], [], []
    for k in range(num_pairs):
        s = np.sort(data @ thetas[k])
        a, b = np.quantile(s, q_lo[k]), np.quantile(s, q_hi[k])
        pa = np.searchsorted(s, a, "right") / count
        pb = (count - np.searchsorted(s, b, "left")) / count
        lhs.append(pa * pb)
        var = (pb * pb * pa * (1 - pa) + pa * pa * pb * (1 - pb)) / count
        ci.append(1.96 * math.sqrt(max(var, 0.0)) + 1.0 / count)
        half_dist.append(0.5 * max(b - a, 0.0) / float(ns.norm_eval(dual, thetas[k])))
    order = np.argsort(half_dist)
    half_dist = np.array(half_dist)[order]
    return (half_dist, np.array(lhs)[order], 4.0 * prof(half_dist),
            np.array(ci)[order], (q_lo.min(), q_hi.max()))


def _assert_separated_sets_match_oracle(measure, metric, num_pairs, count, seed):
    rep = vf.check_separated_sets(measure=measure, metric=metric,
                                  num_pairs=num_pairs, count=count, seed=seed, profile="sphere")
    data = vf.sample_columns(measure, count, seed)
    eps, lhs, rhs, ci, q_range = _separated_sets_oracle(data, metric, num_pairs, seed, "sphere")
    assert rep.lhs == lhs.tolist() and rep.ci == ci.tolist()
    np.testing.assert_allclose(rep.eps, eps, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(rep.rhs, rhs, rtol=1e-13, atol=0.0)
    violations = int(((lhs - ci) - rhs > 0.0).sum())
    assert rep.violations == violations
    assert rep.verdict == ("pass" if violations == 0 else "fail")
    return rep, q_range


@pytest.mark.parametrize("n, p, num_pairs, count", [
    (16, 2, 150, 5001), (7, 1, 64, 4000), (33, np.inf, 1, 999),
    (5, 2, 40, 1), (5, 1, 40, 2), (5, np.inf, 40, 3), (5, 2, 200, 101)])
def test_separated_sets_matches_per_pair_oracle(n, p, num_pairs, count):
    rep, _ = _assert_separated_sets_match_oracle(ms.haar_sphere(n), ns.lp(p, n),
                                                 num_pairs, count, 4)
    if count == 1:      # one sample lies in both sets
        assert rep.lhs == [1.0] * num_pairs


@pytest.mark.parametrize("count", [1, 2, 3, 101, 5001])
def test_separated_sets_matches_per_pair_oracle_on_ties(monkeypatch, count):
    # rows of {-1, 0, 1}^2: nine distinct rows, so every projection ties
    # with many others; 400 pairs draw q_lo down to 0.0203 and q_hi up to
    # 0.9796, the ends of their ranges
    def integer_rows(measure, count, seed):   # column-major, as the check holds its batch
        u = rng._generator(seed, 0).random((count, measure.dim))
        return np.asfortranarray(np.floor(3.0 * u) - 1.0)

    monkeypatch.setattr(vf, "sample_columns", integer_rows)
    rep, (q_lo, q_hi) = _assert_separated_sets_match_oracle(
        ms.haar_sphere(2), ns.lp(2, 2), 400, count, 6)
    assert q_lo < 0.0205 and q_hi > 0.9795
    data = vf.sample_columns(ms.haar_sphere(2), count, 6)
    assert len(np.unique(data, axis=0)) <= 9


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# README.md "Memory": each check's peak in units of N * 8 bytes, as
# (n, extra run_check keywords, row at n, chunks of 3 MiB of temporaries
# the row adds: 0, 1, or one per stream thread for the shell chain, whose
# probe chunks run at once); the test allows 2 MiB more
_MIB = 1 << 20
PER_THREAD = "per thread"
PEAK_ROWS = {
    # the image of one coordinate, not the batch (the identity map's peak is sample's)
    "lipschitz_transfer": (64, {"map_cfg": {"kind": "coordinate"}}, lambda n: 1 + 32, 0),
    "norm_ratio_transfer": (64, {}, lambda n: n + 32 + 2, 0),
    "shell_inclusion": (16, {"probes": 20000}, lambda n: n + 8 + 2, PER_THREAD),
    "separated_sets": (64, {"num_pairs": 200}, lambda n: n + 32, 0),
    "cube_floor": (8, {}, lambda n: n + 32 + 1, 0),
    "sup_embedding": (32, {}, lambda n: 2, 1),
    "radial_transfer": (32, {}, lambda n: n + 32 + 2, 0),
}


@pytest.mark.parametrize("check_id", sorted(PEAK_ROWS))
def test_check_peak_stays_within_its_readme_row(monkeypatch, check_id):
    n, extra, row, chunks = PEAK_ROWS[check_id]
    vf.run_check(check_id, n=n, count=2000, seed=3, **extra)   # lazy imports
    count = 20000
    for threads in (1, 2):
        monkeypatch.setattr(rng, "_pool_size", threads)
        held = threads if chunks == PER_THREAD else chunks
        peak = _traced_peak(lambda: vf.run_check(check_id, n=n, count=count, seed=3, **extra))
        assert peak <= row(n) * count * 8 + 3 * _MIB * held + 2 * _MIB, threads


@pytest.mark.parametrize("check_id", sorted(PEAK_ROWS))
def test_check_peak_does_not_grow_at_unaligned_count(monkeypatch, check_id):
    # N = 20001 is not a multiple of 8: the projections copy no input.  With
    # two stream threads the peak follows how many chunks the threads hold
    # at once, which thread timing decides: allow one more chunk (one RNG
    # block of doubles) per stream thread
    n, extra, _, _ = PEAK_ROWS[check_id]
    vf.run_check(check_id, n=n, count=2000, seed=3, **extra)   # lazy imports
    for threads in (1, 2):
        monkeypatch.setattr(rng, "_pool_size", threads)
        aligned, unaligned = (
            _traced_peak(lambda: vf.run_check(check_id, n=n, count=count, seed=3, **extra))
            for count in (20000, 20001))
        chunks = 0 if threads == 1 else threads
        assert unaligned <= aligned + _MIB + chunks * rng._BLOCK * 8, threads


@pytest.mark.parametrize("n, count", [(3, 5001), (64, 2000)])
def test_streamed_images_equal_the_maps_of_the_batch(n, count):
    K, L = ns.lp(2, n), ns.lp(1, n)
    image, vk, vl = vf._pushed_batch(ms.haar_sphere(n), count, 5, tr.ratio_norms(K, L))
    data = ms.sample(ms.haar_sphere(n), count, 5).data
    assert image.T.flags.c_contiguous     # column-major, as the curve projects it
    assert np.array_equal(image, tr.norm_ratio_map(K, L, data))
    assert np.array_equal(vk, ns.norm_eval(K, data))
    assert np.array_equal(vl, ns.norm_eval(L, data))

    metric = ns.lp(1, n)
    u = tr.radial_transport(ms.radial_cdf(ms.ggp(1, n), metric),
                            ms.radial_cdf(ms.uniform_ball(metric), metric))
    image, u_r, r = vf._pushed_batch(ms.ggp(1, n), count, 5, tr.radial_norms(u, metric))
    data = ms.sample(ms.ggp(1, n), count, 5).data
    assert np.array_equal(r, ns.norm_eval(metric, data))
    assert np.array_equal(u_r, u(r))
    whole, _, _ = tr._lift(tr.radial_norms(u, metric), data)
    assert np.array_equal(image, whole)
    assert np.array_equal(image, tr.radial_map(u, metric, data))


# SHA-256 of CheckReport.to_json(), bit for bit: the reports of every check,
# with the streamed images, probes and projection blocks, recorded under
# numpy 2.4.6 (numpy's samplers draw every variate; see tests/test_rng.py)
FROZEN_REPORTS = {
    "lipschitz_identity_n8": (
        lambda: vf.check_lipschitz_transfer(
            measure=ms.gaussian(8), map_cfg={"kind": "identity"}, lip=1.0,
            metric_in=ns.lp(2, 8), eps_grid=np.linspace(0.1, 4.0, 15), count=5001, seed=1,
            profile="gaussian"),
        "1a5caf38173ead4d28322abfe52c10ec1649209808c043a99304eaf35534c75d"),
    "lipschitz_scale_n16": (
        lambda: vf.check_lipschitz_transfer(
            measure=ms.gaussian(16), map_cfg={"kind": "scale", "factor": 0.5}, lip=0.5,
            metric_in=ns.lp(2, 16), eps_grid=np.linspace(0.1, 3.0, 12), count=5001, seed=2,
            profile="gaussian"),
        "f4cc838522189a685623f7ccac421ce5447c9e9422844d0ea0cd3fd0652f828c"),
    "lipschitz_coordinate_n8": (
        lambda: vf.check_lipschitz_transfer(
            measure=ms.gaussian(8), map_cfg={"kind": "coordinate", "index": 2}, lip=1.0,
            metric_in=ns.lp(2, 8), eps_grid=np.linspace(0.2, 3.0, 10), count=5001, seed=3,
            profile="gaussian"),
        "dd42810af60b3c184440030bc6360d34262b03ee03ddfc090dc3c41381f3e819"),
    "cube_floor_n8_N5001": (
        lambda: vf.run_check("cube_floor", n=8, eps_grid=np.linspace(0.1, 0.9, 9),
                             count=5001, seed=10),
        "1780b32c3dba14a26d8f813941a22e925c5afdab9feac2dc8548c76746abb835"),
    "shell_empty_preimage": (   # shell_set_size 0: not applicable
        lambda: vf.check_shell_inclusion(
            K=ns.lp(2, 16), L=ns.lp(1, 16), measure=ms.haar_sphere(16),
            eps=1e-9, count=1000, probes=100, seed=7),
        "448edbbd03253932fe632b98990d4c083c21fd1623d185e279a37bd3a8180a94"),
    "norm_ratio_l2_l1_n16": (
        lambda: vf.check_norm_ratio_transfer(
            K=ns.lp(2, 16), L=ns.lp(1, 16), measure=ms.haar_sphere(16),
            eps_grid=vf.default_eps_grid(), count=5001, seed=11, profile="sphere"),
        "6772f83096ba9d215d82104ac123714005e8de37293400b1bc339d6b0fb5bcc2"),
    "norm_ratio_l1_l2_n8": (   # L is rescaled: a transformed norm
        lambda: vf.check_norm_ratio_transfer(
            K=ns.lp(1, 8), L=ns.lp(2, 8), measure=ms.uniform_ball(ns.lp(1, 8)),
            eps_grid=vf.default_eps_grid(), count=5001, seed=11, profile="gaussian"),
        "81d6552980475ad8355d66d6b0268dfa3390a458ba4e8ebb2fe5bdaa8843dd73"),
    "radial_p1_n32_N5001": (
        lambda: vf.run_check(
            "radial_transfer", p=1.0, n=32, eps_grid=vf.default_eps_grid(), count=5001, seed=12),
        "a453f24dfb6a7990545afebb1ee426ee2f2eebe7f2c9c9ba4da4c8d4c7351ab0"),
    "radial_p2_n8": (
        lambda: vf.run_check(
            "radial_transfer", p=2.0, n=8, eps_grid=vf.default_eps_grid(), count=3001, seed=12),
        "8a5ca51fa4a4a46d3bc97f96027e80a1c8b25a031d7703e286f1e9d1a0ebe793"),
    "shell_n16_probes2000": (
        lambda: vf.check_shell_inclusion(
            K=ns.lp(2, 16), L=ns.lp(1, 16), measure=ms.haar_sphere(16),
            eps=0.5, count=20000, probes=2000, seed=7),
        "f77b153b748d6b22ade997c76751d4dd123e94131be94ef79f8a8d7df47792b1"),
    "shell_n16_probes4096": (
        lambda: vf.check_shell_inclusion(
            K=ns.lp(2, 16), L=ns.lp(1, 16), measure=ms.haar_sphere(16),
            eps=0.5, count=20000, probes=4096, seed=7),
        "5dc76dc880980052578fdd79aff774360c76a1e29af85a5118ff5c2cc85f1cdb"),
    "shell_n64_probes5001": (
        lambda: vf.check_shell_inclusion(
            K=ns.lp(2, 64), L=ns.lp(1, 64), measure=ms.haar_sphere(64),
            eps=0.5, count=5001, probes=5001, seed=13),
        "cae79fa525de470516897df07635850ad220f7703df13765a8ac5e0635315472"),
    "shell_l1_l2_n64": (   # L_r is a scaled norm, taken on unaligned sample chunks
        lambda: vf.check_shell_inclusion(
            K=ns.lp(1, 64), L=ns.lp(2, 64), measure=ms.haar_sphere(64),
            eps=0.5, count=5001, probes=5001, seed=13),
        "6ecd00a27c4bec10c2029528853f0ed112733fb9696fd10a999f79ba8f568450"),
    "shell_l1_l2_n100": (   # L_r through a transform on sample chunks of 320 rows
        lambda: vf.check_shell_inclusion(
            K=ns.lp(1, 100), L=ns.lp(2, 100), measure=ms.haar_sphere(100),
            eps=0.5, count=5001, probes=5001, seed=13),
        "34497537e9652851fee75270bbc331783b5a47f150cd095b0e8d95adcca63117"),
    # a last projection block of one direction: a matrix-vector product,
    # whose sum order follows the image's layout
    "lipschitz_identity_n33_N20001": (
        lambda: vf.check_lipschitz_transfer(
            measure=ms.gaussian(33), map_cfg={"kind": "identity"}, lip=1.0,
            metric_in=ns.lp(2, 33), eps_grid=np.linspace(0.1, 4.0, 15), count=20001, seed=1,
            profile="gaussian"),
        "547898e09438c35cad4a2d11712d5465a772a6cba44ba7748b6b02a61034fecb"),
    "lipschitz_identity_n65_N20001": (
        lambda: vf.check_lipschitz_transfer(
            measure=ms.gaussian(65), map_cfg={"kind": "identity"}, lip=1.0,
            metric_in=ns.lp(2, 65), eps_grid=np.linspace(0.1, 4.0, 15), count=20001, seed=1,
            profile="gaussian"),
        "1684831b2e05480157a79a87a8e897ae8284af409a7913f1112499aa63213861"),
    "pairs_n16_33_pairs": (
        lambda: vf.check_separated_sets(
            measure=ms.haar_sphere(16), metric=ns.lp(2, 16), num_pairs=33,
            count=5001, seed=9, profile="sphere"),
        "929b5676811c086ca2eabb78fcbc8be7a8ff9515bcee3b5ba374e0edf44a54ee"),
    "pairs_n16_65_pairs": (
        lambda: vf.check_separated_sets(
            measure=ms.haar_sphere(16), metric=ns.lp(2, 16), num_pairs=65,
            count=5001, seed=9, profile="sphere"),
        "3959cae2a70faaa4e82496bddbadded46f9c24b1204f3d3e3e986be2f648962c"),
    # too few samples to cut into pieces: one product on a row-major copy
    "lipschitz_identity_n16_N150": (
        lambda: vf.check_lipschitz_transfer(
            measure=ms.gaussian(16), map_cfg={"kind": "identity"}, lip=1.0,
            metric_in=ns.lp(2, 16), eps_grid=np.linspace(0.1, 4.0, 15), count=150, seed=1,
            profile="gaussian"),
        "d2664a995dc5d0d0bf9832c8369237332ee291294a5642b2abbbb516c7ed68be"),
    "norm_ratio_l2_l1_n40_N150": (
        lambda: vf.check_norm_ratio_transfer(
            K=ns.lp(2, 40), L=ns.lp(1, 40), measure=ms.haar_sphere(40),
            eps_grid=vf.default_eps_grid(), count=150, seed=11, profile="sphere"),
        "baceb864325d90f7cef4657998f499c8734b001c94fe717f2beb42b7d0cb4e8b"),
    "pairs_n64": (
        lambda: vf.check_separated_sets(
            measure=ms.haar_sphere(64), metric=ns.lp(2, 64), num_pairs=100,
            count=5001, seed=9, profile="sphere"),
        "9e4157a3f45850746611d82d221f33fb9f8ef6aca1eca8fa9552779529dcd0da"),
    "pairs_n16_l1": (
        lambda: vf.check_separated_sets(
            measure=ms.haar_sphere(16), metric=ns.lp(1, 16), num_pairs=70,
            count=5001, seed=9, profile="sphere"),
        "a2cf6176488a647d3f8808151c9dc17a045e989843090362b2d440aac65de720"),
    "pairs_n16_scaled_l2": (   # a scaled norm: dual norms through a transform
        lambda: vf.check_separated_sets(
            measure=ms.haar_sphere(16), metric=ns.scaled(ns.lp(2, 16), 0.7), num_pairs=70,
            count=5001, seed=9, profile="sphere"),
        "b48f6766f05e4f344dff66c9904b3f3f321af14a9d23a8c343af50b03b3053ea"),
    "pairs_n16_l3_transform": (   # a full lower-triangular transform
        lambda: vf.check_separated_sets(
            measure=ms.haar_sphere(16),
            metric=ns.NormSpec(dim=16, p=3.0, transform=np.eye(16) + 0.1 * np.tri(16)),
            num_pairs=70, count=5001, seed=9, profile="sphere"),
        "f88830a1f42079562fb76e3f725ae4f0a1902e4f509caac106b349a9c72e55e9"),
    "sup_n3": (   # sample chunks of 10920 rows, the last one partial
        lambda: vf.run_check("sup_embedding", n=3, count=30001, seed=3),
        "34992f31c812bb4fd96b70ae766887e7a0da5b3faac0b6fadf170b17c54d26d9"),
    "sup_n100": (   # the functionals' product on sample chunks of 320 rows
        lambda: vf.run_check("sup_embedding", n=100, count=5001, seed=3),
        "38d5661f368a9fef36fc0f8be98070bd26e0565ec8005bf3b580ef5473918df1"),
    "sup_n33": (
        lambda: vf.run_check("sup_embedding", n=33, count=5001, seed=3),
        "641b747e2f32d250c18941c26881213d960e74c2949799da46ae57f82dad674a"),
    "sup_l2_n2_32_functionals": (
        lambda: vf.check_sup_embedding(
            K=ns.lp(2, 2), measure=ms.uniform_ball(ns.lp(2, 2)),
            functionals=np.column_stack([np.cos(np.arange(32) * np.pi / 32),
                                         np.sin(np.arange(32) * np.pi / 32)]),
            d=1.01, eps_grid=[0.05, 0.2, 0.5], count=30001, seed=4, profile="gaussian"),
        "891153bd96a8549c32bd7fc7dde4b08c867dcf1cca31f70a4131508afaf1937f"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_REPORTS))
def test_report_digests_frozen(name):
    run, digest = FROZEN_REPORTS[name]
    assert hashlib.sha256(run().to_json().encode()).hexdigest() == digest


def _ratio_image(K, L):
    def image(x):
        L_r = ns.normalize_containment(K, L)[0]
        return tr.norm_ratio_map(K, L_r, x), L_r
    return image


def _radial_image(p, n):
    def image(x):
        metric = ns.lp(p, n)
        u = tr.radial_transport(ms.radial_cdf(ms.ggp(p, n), metric),
                                ms.radial_cdf(ms.uniform_ball(metric), metric))
        return tr.radial_map(u, metric, x), metric
    return image


# the source measure and the whole-array (image, metric) of each frozen
# report whose lhs is the half-space curve
_CURVE_IMAGES = {
    "lipschitz_identity_n8": (ms.gaussian(8), lambda x: (x, ns.lp(2, 8))),
    "lipschitz_scale_n16": (ms.gaussian(16), lambda x: (0.5 * x, ns.lp(2, 16))),
    "lipschitz_coordinate_n8": (ms.gaussian(8), lambda x: (x[:, 2:3], ns.lp(2, 1))),
    "cube_floor_n8_N5001": (ms.uniform_ball(ns.lp(np.inf, 8)), lambda x: (x, ns.lp(np.inf, 8))),
    "norm_ratio_l2_l1_n16": (ms.haar_sphere(16), _ratio_image(ns.lp(2, 16), ns.lp(1, 16))),
    "norm_ratio_l1_l2_n8": (ms.uniform_ball(ns.lp(1, 8)), _ratio_image(ns.lp(1, 8), ns.lp(2, 8))),
    "radial_p1_n32_N5001": (ms.ggp(1, 32), _radial_image(1.0, 32)),
    "radial_p2_n8": (ms.ggp(2, 8), _radial_image(2.0, 8)),
}


@pytest.mark.parametrize("name", sorted(_CURVE_IMAGES))
def test_frozen_curve_reports_match_the_column_sort_oracle(name):
    # a second path to each frozen curve: the image by its whole-array map,
    # and the curve by a column sort over the n axes and the 32 gaussian
    # directions that the check's seed draws
    rep = FROZEN_REPORTS[name][0]()
    measure, image_map = _CURVE_IMAGES[name]
    count, seed = rep.inputs["count"], rep.inputs["seed"]
    image, metric = image_map(ms.sample(measure, count, seed).data)
    dirs = con.direction_family(metric.dim, 32, rng.derive_seed(seed, 0xD17))
    best, _ = curve_oracle(image, metric, np.asarray(rep.eps), dirs)
    assert rep.quantities["family_size"] == len(dirs)
    assert rep.lhs == best.tolist()


_DEMO = {job["id"]: (check, params) for job, check, params in cli.validate_config(
    json.loads((Path(__file__).parents[1] / "configs" / "demo.json").read_text()))}


@pytest.mark.parametrize("name", [
    "shell_n16_probes4096", "shell_n64_probes5001", "shell_l1_l2_n64", "shell_l1_l2_n100",
    "pairs_n64", "pairs_n16_l1", "pairs_n16_scaled_l2", "pairs_n16_l3_transform",
    "pairs_n16_65_pairs", "lipschitz_identity_n65_N20001", "norm_ratio_l2_l1_n40_N150",
    "norm_ratio_l2_l1_n16", "norm_ratio_l1_l2_n8", "sup_n100"])
def test_pool_paths_keep_their_bits(monkeypatch, name):
    # the shell chain's image projections and probes, the set pairs'
    # selections and the curve's per-direction counts run on the stream
    # threads, and the norms through a transform and the functionals'
    # product are taken on sample chunks or all directions at once: every
    # pool size gives the frozen report
    run, digest = FROZEN_REPORTS[name]
    for size in (1, 2, 3):
        monkeypatch.setattr(rng, "_pool_size", size)
        assert hashlib.sha256(run().to_json().encode()).hexdigest() == digest, size


def _demo_report(name):
    check, params = _DEMO[name]
    return vf.run_check(check, **params)


def test_demo_runs_every_check():
    assert sorted(check for check, _ in _DEMO.values()) == sorted(vf.CHECK_SPECS)


def test_frozen_and_demo_names_are_distinct():
    # so each restate case below has its name as its id, and a name finds one report
    assert not set(FROZEN_REPORTS) & set(_DEMO)


@pytest.mark.parametrize("run", [FROZEN_REPORTS[name][0] for name in sorted(FROZEN_REPORTS)]
                         + [lambda name=name: _demo_report(name) for name in sorted(_DEMO)],
                         ids=sorted(FROZEN_REPORTS) + sorted(_DEMO))
def test_restate_reproduces_the_report(run):
    payload = json.loads(run().to_json())
    # restate merges inputs and quantities: a shared key would hide one of them
    assert not set(payload["inputs"]) & set(payload["quantities"])
    assert "prof" not in {**payload["inputs"], **payload["quantities"]}
    rhs, slack, pre, violations, worst, verdict = vf.restate(payload)
    assert rhs.tolist() == payload["grid"]["rhs"]
    assert slack.tolist() == payload["grid"]["slack"]
    assert pre.tolist() == payload["grid"]["precondition"]
    assert violations == payload["violations"]["count"]
    # the worst margin is NaN when no point is admitted
    assert json.dumps(worst) == json.dumps(payload["violations"]["worst_margin"])
    assert verdict == payload["verdict"]


def test_restate_follows_an_edited_term():
    # the statement reads its terms from the report: a larger lambda shrinks
    # the profile's argument, which raises the rhs and admits no new point
    payload = json.loads(FROZEN_REPORTS["norm_ratio_l2_l1_n16"][0]().to_json())
    rhs, _, pre, *_ = vf.restate(payload)
    payload["quantities"]["lambda"] *= 2.0
    slower, _, pre_slower, *_ = vf.restate(payload)
    assert np.all(slower >= rhs) and np.any(slower > rhs)
    assert np.all(pre_slower <= pre)


def _with_profile_c(payload, factor):
    edited = json.loads(json.dumps(payload))
    edited["inputs"]["profile"]["c"] *= factor
    return edited


def test_restate_gives_the_verdict_of_an_edited_report(monkeypatch):
    # a larger profile constant c claims faster concentration: the verdict
    # of the edited report comes from restate alone, with nothing resampled
    identity = json.loads(_demo_report("identity_transfer_n16").to_json())
    embedding = json.loads(FROZEN_REPORTS["sup_l2_n2_32_functionals"][0]().to_json())
    for name in ("sample_columns", "sample_image", "sample_map", "concentration_lower_curve"):
        monkeypatch.setattr(vf, name, lambda *a, **k: pytest.fail("restate resampled"))
    assert vf.restate(_with_profile_c(identity, 1.1))[5] == "pass"
    assert vf.restate(_with_profile_c(identity, 2.0))[5] == "fail"
    # the embedding's alpha is its profile, evaluated inside restate
    rhs = vf.restate(_with_profile_c(embedding, 4.0))[0]
    assert rhs.tolist() != embedding["grid"]["rhs"]


# (lhs, ci, rhs) of hand-built grid points, the last not admitted, and which
# are informative under each row's declared lhs range and each relation
_RANGE_POINTS = [(0.0, 0.0, 5.0), (0.125, 0.0, 0.125), (0.25, 0.0, 0.25), (5.0, 0.0, 0.0),
                 (3.0, 0.0, 3.0), (0.125, 0.125, 0.125), (5.0, 0.0, 0.0)]
_INFORMATIVE = {
    ("separated_sets", "le"): "0101000", ("separated_sets", "ge"): "1100000",   # [0, 1/4]
    ("shell_inclusion", "le"): "0111100", ("shell_inclusion", "ge"): "1110110",  # [0, inf)
    ("sup_embedding", "le"): "0001000", ("sup_embedding", "ge"): "1000000",      # {3}
}


@pytest.mark.parametrize("check_id, relation", sorted(_INFORMATIVE))
def test_grid_points_read_the_declared_lhs_range(monkeypatch, check_id, relation):
    # the row keeps its lhs range; its relation, rhs and precondition are
    # replaced by ones that read the hand-built terms
    spec = vf.CHECK_SPECS[check_id]
    stmt = vf.Statement(relation, lambda eps, t: np.asarray(t["rhs"]),
                        lambda eps, t: np.asarray(t["admitted"]),
                        lhs_range=spec.statement.lhs_range)
    monkeypatch.setitem(vf.CHECK_SPECS, check_id, spec._replace(statement=stmt))
    lhs, ci, rhs = map(list, zip(*_RANGE_POINTS))
    admitted = [True] * (len(_RANGE_POINTS) - 1) + [False]
    report = {"check_id": check_id, "inputs": {"n_functionals": 3},
              "quantities": {"rhs": rhs, "admitted": admitted},
              "grid": {"eps": [0.1] * len(lhs), "lhs": lhs, "ci": ci}}
    got_admitted, informative = vf.grid_points(report)
    assert got_admitted.tolist() == admitted
    assert "".join("01"[int(b)] for b in informative) == _INFORMATIVE[check_id, relation]


def test_each_check_declares_its_lhs_range():
    declared = {cid: spec.statement.lhs_range({"n_functionals": 3})
                for cid, spec in vf.CHECK_SPECS.items()}
    assert declared == {"lipschitz_transfer": (0.0, 1.0), "norm_ratio_transfer": (0.0, 1.0),
                        "shell_inclusion": (0.0, math.inf), "separated_sets": (0.0, 0.25),
                        "cube_floor": (0.0, 1.0), "sup_embedding": (3, 3),
                        "radial_transfer": (0.0, 1.0)}


def test_cube_floor_small_dims():
    for n in (1, 2, 8):
        rep = vf.run_check("cube_floor", n=n, eps_grid=np.linspace(0.1, 0.9, 9),
                           count=N, seed=10)
        assert rep.verdict == "pass", f"n={n}"
    # the 1-d case is tight: estimator and floor agree up to sampling
    # noise (binomial CI plus median placement, both O(1/sqrt N))
    rep = vf.run_check("cube_floor", n=1, eps_grid=np.linspace(0.1, 0.9, 9),
                       count=N, seed=11)
    gap = np.abs(np.asarray(rep.lhs) - np.asarray(rep.rhs))
    assert np.all(gap <= 4.0 / math.sqrt(N))


def test_sup_embedding_identity_on_cube():
    rep = vf.check_sup_embedding(
        K=ns.lp(np.inf, 8), measure=ms.uniform_ball(ns.lp(np.inf, 8)),
        functionals=np.eye(8), d=1.0, eps_grid=np.linspace(0.1, 0.9, 9),
        count=N, seed=12, profile=None)
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
            eps_grid=np.array([0.5]), count=5000, seed=14, profile=None)


@pytest.mark.parametrize("p,n", [(1.0, 16), (2.0, 32)])
def test_radial_transfer(p, n):
    rep = vf.run_check("radial_transfer", p=p, n=n, eps_grid=vf.default_eps_grid(),
                       count=N, seed=15)
    assert rep.verdict == "pass"
    assert any(rep.precondition)
    assert rep.quantities["u_lipschitz"] > 0


def test_radial_transfer_rejects_bad_p():
    with pytest.raises(vf.CheckError) as err:
        vf.run_check("radial_transfer", p=3.0, n=8, eps_grid=[0.5], count=1000, seed=16)
    assert err.value.key == "p"


@pytest.mark.parametrize("check_id, kw, key", [
    ("norm_ratio_transfer", {"count": 50}, "N"),
    ("radial_transfer", {"n": 5000, "count": 200}, "n"),
    ("lipschitz_transfer", {"lip": 0.5}, "lip"),
    ("lipschitz_transfer", {"map_cfg": {"kind": "scale", "factor": 3}, "lip": 2.0}, "lip"),
    ("lipschitz_transfer", {"n": 64, "map_cfg": {"kind": "coordinate"}, "lip": 0.5}, "lip"),
    ("cube_floor", {"measure": ms.gaussian(8)}, "measure"),
    ("cube_floor", {"measure": ms.ggp(1.0, 8)}, "measure"),
    ("cube_floor", {"n": 2, "measure": ms.uniform_ball(
        ns.NormSpec(dim=2, p=np.inf, transform=0.5 * np.eye(2)))}, "measure"),
])
def test_run_check_names_the_key_at_fault(monkeypatch, check_id, kw, key):
    # the row's hypothesis is tested on the filled arguments, before the check runs
    monkeypatch.setattr(vf, vf.CHECK_SPECS[check_id].fn.__name__,
                        lambda **args: pytest.fail("the check ran"))
    with pytest.raises(vf.CheckError) as err:
        vf.run_check(check_id, **kw)
    assert err.value.key == key


def test_checks_name_the_key_at_fault_before_sampling(monkeypatch):
    # called directly, a check tests its own hypothesis before it samples
    monkeypatch.setattr(vf, "sample_map", lambda *a, **k: pytest.fail("the check sampled"))
    with pytest.raises(vf.CheckError) as err:
        vf.check_radial_transfer(p=3.0, n=8, eps_grid=[0.5], count=1000, seed=16,
                                 profile=None, lam=1.0)
    assert err.value.key == "p"
    with pytest.raises(vf.CheckError) as err:
        vf.check_cube_floor(n=8, eps_grid=[0.5], count=1000, seed=16, measure=ms.gaussian(8))
    assert err.value.key == "measure"


def test_cube_floor_takes_every_body_inside_the_cube():
    # each body reaches exactly 1 along some axis, the half-width cube 1/2
    n = 4
    half = ms.uniform_ball(ns.NormSpec(dim=n, p=np.inf, transform=2.0 * np.eye(n)))
    for measure in (ms.uniform_ball(ns.lp(np.inf, n)), ms.haar_sphere(n),
                    ms.uniform_ball(ns.lp(1.5, n)), ms.cone_surface(ns.lp(1, n)), half):
        assert vf._cube_fault(measure) is None, measure
    rep = vf.run_check("cube_floor", n=n, measure=half, count=5000, seed=5)
    assert rep.verdict == "pass"


def test_lipschitz_transfer_takes_a_weaker_claim():
    rep = vf.run_check("lipschitz_transfer", n=4, lip=1.5, count=2000, seed=4)
    assert rep.inputs["lip"] == 1.5 and rep.verdict == "pass"


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
    # the row is the one home of a check's defaults: the check takes every
    # argument by keyword with no default, and exactly one Param of the row
    # fills each, with a default of n
    spec = vf.CHECK_SPECS[check_id]
    signature = inspect.signature(spec.fn).parameters
    assert all(prm.kind is prm.KEYWORD_ONLY and prm.default is prm.empty
               for prm in signature.values())
    assert sorted(par.arg for par in spec.params) == sorted(signature)
    assert all(callable(par.default) for par in spec.params)
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


_RATIO_JOB = {"check": "norm_ratio_transfer", "n": 4, "K": "l2", "L": "l1",
              "measure": "haar_sphere"}


@pytest.mark.parametrize("job, field", [
    ({"eps": [0.5, True]}, "eps"),
    ({"eps": {"start": True, "stop": 2.0, "num": 3}}, "eps"),
    ({"measure": "uniform_ball", "p": True}, "measure"),
    ({"measure": {"family": "ggp", "p": True}}, "measure"),
    ({"K": {"p": True}}, "K"),
    ({"profile": {"name": "custom", "C": True, "c": True}}, "profile"),
])
def test_config_rejects_a_json_true_as_a_number(job, field):
    # float(True) is 1.0, so without a bool check each of these ran as a number
    with pytest.raises(vf.ConfigError, match=rf"^jobs\[0\]\.{field}: "):
        vf.config_params({**_RATIO_JOB, **job}, "jobs[0]")
    # the CLI's exponent strings still parse
    assert (ns._as_p("1.5"), ns._as_p("inf")) == (1.5, math.inf)


_LIPSCHITZ_JOB = {"check": "lipschitz_transfer", "n": 4, "measure": "gaussian", "lip": 1.0}


@pytest.mark.parametrize("job, field", [
    ({**_RATIO_JOB, "profile": {"name": "custom", "C": "1", "c": 0.5}}, "profile"),
    ({**_RATIO_JOB, "profile": {"name": "sphere", "C": "2"}}, "profile"),
    ({**_LIPSCHITZ_JOB, "map": {"kind": "scale", "factor": True}}, "map"),
    ({**_LIPSCHITZ_JOB, "map": {"kind": "scale", "factor": "0.5"}}, "map"),
    ({**_LIPSCHITZ_JOB, "map": {"kind": "coordinate", "index": 1.7}}, "map"),
    ({**_LIPSCHITZ_JOB, "map": {"kind": "coordinate", "index": True}}, "map"),
    ({**_LIPSCHITZ_JOB, "map": {"kind": "identity", "factor": 3}}, "map"),
    ({**_LIPSCHITZ_JOB, "map": {"kind": "scale", "factor": 2, "index": 0}}, "map"),
])
def test_config_rejects_a_profile_or_map_value_it_would_misread(job, field):
    # without these checks a string constant crashed the run (custom) or was
    # read as a number (an override), a bool or fractional map value ran as 1,
    # and a stray map key was ignored
    with pytest.raises(vf.ConfigError, match=rf"^jobs\[0\]\.{field}: "):
        vf.config_params(job, "jobs[0]")


def test_config_reads_integral_map_and_profile_numbers():
    _, params = vf.config_params({**_LIPSCHITZ_JOB, "map": {"kind": "coordinate", "index": 2.0}},
                                 "jobs[0]")
    assert vf.build_map(params["map_cfg"], ns.lp(2, 4))[2] == "coordinate:2"
    assert vf.build_map({"kind": "scale", "factor": 2}, ns.lp(2, 4))[2] == "scale:2.0"
    custom = vf.analytic_profile({"name": "custom", "C": 1, "c": 1}, 4).to_config()
    assert (type(custom["C"]), type(custom["c"])) == (float, float)
    # a profile is a name or an object, and a list neither
    with pytest.raises(ValueError, match=re.escape("expected a profile object, got ['sphere']")):
        vf.analytic_profile(["sphere"], 4)
