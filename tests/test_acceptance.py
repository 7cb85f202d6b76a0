"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines and per-criterion timings.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from concmeter import concentration as con
from concmeter import measures as ms
from concmeter import normspace as ns
from concmeter import parameters as par
from concmeter import transport as tr
from concmeter import verify as vf

N = 100000


class Stopwatch:
    def __init__(self, limit_s):
        self.limit = limit_s
        self.t0 = time.time()

    @property
    def elapsed(self):
        return time.time() - self.t0


def report(num, label, ok, watch, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({label}): {detail} "
          f"[{watch.elapsed:.1f}s / limit {watch.limit}s]")
    assert ok, f"criterion {num} ({label}): {detail}"
    assert watch.elapsed < watch.limit, f"criterion {num} exceeded runtime limit"


def ks_against(sorted_sample, cdf_values):
    n = sorted_sample.size
    hi = np.max(np.arange(1, n + 1) / n - cdf_values)
    lo = np.max(cdf_values - np.arange(0, n) / n)
    return max(hi, lo)


def test_criterion_1_median_law():
    watch = Stopwatch(10)
    failures = []
    for n in (2, 8, 32):
        for p in (1.0, 2.0, np.inf):
            norm = ns.lp(p, n)
            batch = ms.sample(ms.uniform_ball(norm), N, seed=101)
            med = con.empirical_median(ns.norm_eval(norm, batch.data))
            target = 2.0 ** (-1.0 / n)
            if abs(med.value - target) > 0.01:
                failures.append((n, p, med.value, target))
    report(1, "median law", not failures, watch,
           f"9 (n, p) combos within +-0.01 of 2^(-1/n); failures={failures}")


CATALOG_PAIRS = [
    (2.0, 1.0, lambda n: ms.uniform_ball(ns.lp(2, n))),
    (2.0, 1.5, lambda n: ms.uniform_ball(ns.lp(2, n))),
    (2.0, 1.0, lambda n: ms.haar_sphere(n)),
    (2.0, np.inf, lambda n: ms.haar_sphere(n)),
    (1.0, 2.0, lambda n: ms.uniform_ball(ns.lp(1, n))),
    (1.5, 4.0, lambda n: ms.ggp(1.5, n)),
    (np.inf, 2.0, lambda n: ms.uniform_ball(ns.lp(np.inf, n))),
    (2.0, 2.0, lambda n: ms.gaussian(n)),
]


def test_criterion_2_median_sandwich():
    watch = Stopwatch(30)
    n = 32
    violations = []
    for kp, lp_, make in CATALOG_PAIRS:
        K = ns.lp(kp, n)
        L_r, cc = ns.normalize_containment(K, ns.lp(lp_, n))
        batch = ms.sample(make(n), N, seed=102)
        mk = con.empirical_median(ns.norm_eval(K, batch.data))
        ml = con.empirical_median(ns.norm_eval(L_r, batch.data))
        slack = mk.half_width + ml.half_width
        if not (mk.value <= ml.value + slack
                and ml.value <= cc.lam * mk.value + cc.lam * slack):
            violations.append((kp, lp_, mk.value, ml.value, cc.lam))
    report(2, "median sandwich", not violations, watch,
           f"{len(CATALOG_PAIRS)} containment pairs, violations={violations}")


def test_criterion_3_ratio_map_lipschitz():
    watch = Stopwatch(30)
    worst = []
    for n in (2, 4, 8, 16):
        K, L = ns.lp(2, n), ns.lp(1, n)
        lam = ns.containment_constant(K, L).lam
        pts = ms.sample(ms.gaussian(n), N, seed=103).data
        est = tr.ratio_map_lipschitz(K, L, pts, pairs=N, seed=1030 + n)
        worst.append((n, est, 2 * lam + 1))
    ok = all(est <= bound + 1e-9 for _, est, bound in worst)
    report(3, "ratio-map Lipschitz", ok, watch,
           "; ".join(f"n={n}: {est:.3f}<=[{bound:.3f}]" for n, est, bound in worst))


def test_criterion_4_shell_inclusion():
    watch = Stopwatch(60)
    rep = vf.check_shell_inclusion(K=ns.lp(2, 16), L=ns.lp(1, 16),
                                   measure=ms.haar_sphere(16), eps=0.5,
                                   count=N, probes=N, seed=104)
    ok = rep.verdict == "pass" and rep.violations == 0
    report(4, "shell-inclusion chain", ok, watch,
           f"violations={rep.violations} over {N} probes, "
           f"shell size={rep.quantities['shell_set_size']}")


ACCEPTANCE_EPS = np.geomspace(0.04, 14.0, 42)


def test_criterion_5_norm_ratio_transfer():
    watch = Stopwatch(300)
    cases = [
        ("sphere->l1 n=32", dict(K=ns.lp(2, 32), L=ns.lp(1, 32),
                                 measure=ms.haar_sphere(32))),
        ("sphere->l1 n=64", dict(K=ns.lp(2, 64), L=ns.lp(1, 64),
                                 measure=ms.haar_sphere(64))),
        ("ball(l2)->l1.5 n=32", dict(K=ns.lp(2, 32), L=ns.lp(1.5, 32),
                                     measure=ms.uniform_ball(ns.lp(2, 32)))),
    ]
    results = []
    for label, kw in cases:
        rep = vf.check_norm_ratio_transfer(eps_grid=ACCEPTANCE_EPS, count=N,
                                           seed=105, profile="sphere", **kw)
        results.append((label, rep.verdict, rep.violations,
                        int(np.sum(rep.precondition))))
    ok = all(v == "pass" and viol == 0 and adm > 0
             for _, v, viol, adm in results)
    report(5, "norm-ratio transfer", ok, watch,
           "; ".join(f"{lab}: {v} ({adm} admitted pts)"
                     for lab, v, viol, adm in results))


def test_criterion_6_cube_floor():
    watch = Stopwatch(60)
    eps = np.linspace(0.1, 0.9, 9)
    results = []
    for n in (2, 8, 32):
        rep = vf.run_check("cube_floor", n=n, eps_grid=eps, count=N, seed=106)
        results.append((n, rep.verdict, rep.violations))
    ok = all(v == "pass" and viol == 0 for _, v, viol in results)
    report(6, "cube floor", ok, watch,
           "; ".join(f"n={n}: {v}" for n, v, _ in results))


def test_criterion_7_radial_transport():
    watch = Stopwatch(60)
    details = []
    ok = True
    prev = 0.0
    for n in (4, 16, 64):
        metric = ns.lp(1, n)
        u = tr.radial_transport(ms.radial_cdf(ms.ggp(1.0, n), metric),
                                ms.radial_cdf(ms.uniform_ball(metric), metric))
        batch = ms.sample(ms.ggp(1.0, n), N, seed=107)
        pushed = np.sort(u(ns.norm_eval(metric, batch.data)))
        ks = ks_against(pushed, np.clip(pushed, 0.0, 1.0) ** n)
        nlip = n * tr.lipschitz_constant(u)
        target = n * math.exp(-math.lgamma(n + 1.0) / n)
        ok &= ks <= 0.01 and abs(nlip - target) <= 0.02
        ok &= prev < nlip < math.e
        prev = nlip
        details.append(f"n={n}: KS={ks:.4f}, n|u|={nlip:.3f} (ref {target:.3f})")
    report(7, "radial transport", ok, watch, "; ".join(details))


def _beta_tilde_curve(L_p, ns_list, count, seed):
    vals = []
    for n in ns_list:
        est = par.beta_tilde(ns.lp(2, n), ms.cone_surface(ns.lp(2, n)),
                             ns.lp(L_p, n), count=count, seed=seed)
        vals.append(est.value)
    return np.array(vals)


def test_criterion_8a_beta_tilde_l1():
    watch = Stopwatch(200)
    ns_list = (32, 64, 128, 256, 512)
    vals = _beta_tilde_curve(1.0, ns_list, 30000, seed=108)
    target = math.sqrt(math.pi / 2.0)
    within = np.abs(vals / target - 1.0) <= 0.05
    spread = (vals.max() - vals.min()) / vals.min()
    ok = bool(within.all()) and spread <= 0.10
    report("8a", "beta-tilde vs l1 flat", ok, watch,
           f"values={np.round(vals, 4).tolist()} target={target:.4f} "
           f"spread={spread:.3f}")


def test_criterion_8b_beta_tilde_linf():
    watch = Stopwatch(200)
    ns_list = (16, 32, 64, 128, 256, 512, 1024)
    vals = _beta_tilde_curve(np.inf, ns_list, 30000, seed=108)
    targets = np.array([math.sqrt(n / (2.0 * math.log(n))) for n in ns_list])
    ratios = vals / targets
    ok = bool(np.all(np.abs(ratios - 1.0) <= 0.10))
    report("8b", "beta-tilde vs linf growth", ok, watch,
           f"value/target ratios={np.round(ratios, 4).tolist()}")


def _expected_max_abs_gaussian(n):
    """E max_i |g_i| = int_0^inf (1 - erf(t / sqrt 2)^n) dt, trapezoid rule;
    the integrand is below 1e-30 past t = 12."""
    t = np.linspace(0.0, 12.0, 24001)
    erf = np.array([math.erf(v) for v in t / math.sqrt(2.0)])
    return float(np.trapezoid(1.0 - erf ** n, t))


def test_criterion_8b_estimator_matches_exact_oracle():
    # on the sphere beta_tilde(l2, linf) = 1 / E|x|_inf = E|g|_2 / E max|g_i|,
    # so the estimator is checked against the exact finite-n value; 8b's
    # asymptotic target is what is loose at these n
    watch = Stopwatch(60)
    ns_list = (16, 64, 256)
    vals = _beta_tilde_curve(np.inf, ns_list, 30000, seed=108)
    exact = np.array([math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2.0)
                                                - math.lgamma(n / 2.0))
                      / _expected_max_abs_gaussian(n) for n in ns_list])
    ratios = vals / exact
    ok = bool(np.all(np.abs(ratios - 1.0) <= 0.005))
    report("8b oracle", "beta-tilde vs exact 1/E|x|_inf", ok, watch,
           f"value/exact ratios={np.round(ratios, 5).tolist()}")


def test_criterion_8c_beta_tilde_slopes():
    watch = Stopwatch(200)
    ns_list = (32, 64, 128, 256, 512)
    details = []
    ok = True
    for p in (4.0, 8.0):
        vals = _beta_tilde_curve(p, ns_list, 30000, seed=108)
        slope = np.polyfit(np.log(ns_list), np.log(vals), 1)[0]
        target = 0.5 - 1.0 / p
        ok &= abs(slope - target) <= 0.05
        details.append(f"p={p}: slope={slope:.4f} (target {target:.3f})")
    report("8c", "beta-tilde growth exponents", ok, watch, "; ".join(details))


def test_criterion_9_radial_transfer():
    watch = Stopwatch(300)
    results = []
    curves = {}
    for p in (1.0, 2.0):
        for n in (16, 32, 64):
            rep = vf.run_check("radial_transfer", p=p, n=n, eps_grid=ACCEPTANCE_EPS,
                               count=N, seed=109)
            results.append((p, n, rep.verdict, int(np.sum(rep.precondition))))
            if p == 1.0:
                curves[n] = (np.asarray(rep.eps), np.asarray(rep.lhs))
    ok = all(v == "pass" and adm > 0 for _, _, v, adm in results)

    # p=1: fit alpha(eps) <= K exp(-c eps^2 n) on a window common to all n
    window = (ACCEPTANCE_EPS >= 0.04) & (ACCEPTANCE_EPS <= 0.11)
    cs = {}
    for n, (eps, lhs) in curves.items():
        sel = window & (lhs * N >= 30.0)
        x = eps[sel] ** 2 * n
        y = np.log(lhs[sel])
        c_fit = -np.polyfit(x, y, 1)[0]
        k_env = float(np.max(lhs[sel] * np.exp(c_fit * x)))
        dominated = np.all(lhs[sel] <= k_env * np.exp(-c_fit * x) + 1e-12)
        cs[n] = c_fit
        ok &= c_fit > 0 and bool(dominated)
    c_vals = np.array(list(cs.values()))
    stable = np.all(np.abs(c_vals / c_vals.mean() - 1.0) <= 0.25)
    ok &= bool(stable)
    report(9, "radial transfer", ok, watch,
           f"checks={[(p, n, v) for p, n, v, _ in results]}, "
           f"fitted c={ {k: round(v, 2) for k, v in cs.items()} }, "
           f"stable={bool(stable)}")


def test_criterion_10_separated_sets():
    watch = Stopwatch(60)
    rep = vf.check_separated_sets(measure=ms.haar_sphere(64),
                                  metric=ns.lp(2, 64), num_pairs=1000,
                                  count=N, seed=110, profile="sphere")
    ok = rep.verdict == "pass" and rep.violations == 0
    report(10, "separated-sets product bound", ok, watch,
           f"violations={rep.violations} over 1000 half-space pairs")


def test_criterion_11_determinism(tmp_path):
    watch = Stopwatch(120)
    config = {
        "seed": 7,
        "jobs": [
            {"id": "floor", "check": "cube_floor", "n": 8, "N": 20000,
             "eps": {"start": 0.1, "stop": 0.9, "num": 9}},
            {"id": "radial", "check": "radial_transfer", "n": 16, "p": 1,
             "N": 20000, "eps": {"start": 0.05, "stop": 12, "num": 20,
                                 "scale": "log"}},
            {"id": "ratio", "check": "norm_ratio_transfer", "n": 16,
             "K": "l2", "L": "l1", "measure": "haar_sphere", "N": 20000,
             "eps": {"start": 0.05, "stop": 12, "num": 20, "scale": "log"}},
        ],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for run_id, jobs in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / run_id
        env = dict(os.environ)
        env.pop("CONCMETER_SEED", None)
        res = subprocess.run(
            [sys.executable, "-m", "concmeter.cli", "run", str(cfg),
             "--out", str(out), "--jobs", str(jobs)],
            capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    ok = outputs[0] == outputs[1] == outputs[2]
    report(11, "byte-identical reruns", ok, watch,
           f"{len(outputs[0])} files compared across jobs=1/4 and a repeat")
