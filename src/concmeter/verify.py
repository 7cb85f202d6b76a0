"""Inequality checks: hypothesis, both sides, zero-violation accounting.

Each check re-creates one transfer statement numerically: it samples
the source measure, builds the push-forward (or probe sets) it needs,
computes the left side from the sound lower-bound estimator, and emits
a CheckReport.  The push-forward maps (their row norms) come from
:mod:`.transport`, the families that read p from :mod:`.measures`.  The
right side, slack and smallness precondition come from the check's
Statement in CHECK_SPECS; :func:`restate` turns a report's own terms
into all of its verdict, so an edited copy of a report gets the verdict
its terms imply, and :func:`grid_points` into its informative points.
The same row holds the check's argument defaults, which
:func:`run_check` fills in.  Grid points where the precondition
fails are excluded from violation counts but listed.  Empirical medians
stand in for true medians, with their CI propagated into the slack by
finite differences on the right side.

Left sides always come from the half-space estimator (a lower bound of
the true concentration function) and right sides from profiles (upper
bounds), so every comparison is one-sided: a violation indicates a
real bug or a false profile, never Monte Carlo bad luck beyond CI.

Memory: a check holds one sample-sized array (the batch, or the image
of a push-forward) plus one block of at most 32 projections, which the
curve sorts and the set pairs partition, direction by direction on the
stream threads (``concentration.reduce_projections``).  Every array the
curve or the set pairs project is held column-major: a row function of
the sample stream returns each chunk's rows, which ``measures.sample_image``
places, so each block is a copy of columns (the curve's axes) or a GEMM
that transposes nothing.  The Lipschitz, norm-ratio and radial transfers
never hold their source batch, only its image; the set pairs and the
cube floor hold the batch (the cube floor with its sup norms, from the
same stream).
The sup-norm embedding check maps the stream to two numbers per row and
holds no batch at all.  The shell chain keeps its batch row-major, with
its norms and image projections from ``measures.sample_map``, because
its probes gather partner rows; they go in chunks of rows through
``rng._chunk_map``.  README.md lists each check's peak.

Row norms come from one pass over each chunk for all the norms a map
reads (``normspace.norm_evals`` through ``transport.ratio_norms``), and
the shell chain's probe partners reuse the norms sampled with them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import rng
from .concentration import (MEDIAN_MIN_COUNT, AnalyticProfile, analytic_profile,
                            concentration_lower_curve, empirical_median,
                            eps_grid_fault, product_ci, quantile_cuts, reduce_projections)
# ``sample`` stays importable from this module, as callers read it here
from .measures import (LP_FAMILIES, MAX_GAMMA_SHAPE, MeasureSpec, ggp,
                       haar_sphere, radial_cdf, sample, sample_columns, sample_image,
                       sample_map, uniform_ball)
from .normspace import (INF, ConfigError, NormSpec, _config_object, _config_p, dual_norm, lp,
                        norm_eval, normalize_containment, parse_float, parse_int,
                        parse_positive, parse_size)
from .parameters import cube_concentration_floor, embedding_lower_bound
from .transport import (_lift, lipschitz_constant, norm_ratio_map, radial_norms,
                        radial_transport, ratio_norms)

_ALGEBRAIC_TOL = 1e-9


class CheckError(RuntimeError):
    """A check could not be run (failed hypothesis, bad inputs); ``key``
    names the config key at fault, when the check's row knows it."""

    def __init__(self, message: str, key: Optional[str] = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class CheckReport:
    """Machine-readable verdict of one inequality check."""

    check_id: str
    inputs: dict
    quantities: dict
    eps: list
    lhs: list
    rhs: list
    ci: list
    slack: list
    precondition: list
    relation: str               # "le": lhs - ci <= rhs + slack ; "ge": lhs + ci >= rhs - slack
    violations: int
    worst_margin: float         # max signed violation margin over admitted points
    verdict: str                # "pass" | "fail" | "not-applicable"
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "inputs": self.inputs,
            "quantities": self.quantities,
            "grid": {
                "eps": list(self.eps),
                "lhs": list(self.lhs),
                "rhs": list(self.rhs),
                "ci": list(self.ci),
                "slack": list(self.slack),
                "precondition": [bool(b) for b in self.precondition],
                "relation": self.relation,
            },
            "violations": {"count": self.violations, "worst_margin": self.worst_margin},
            "verdict": self.verdict,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _finish(check_id: str, inputs: dict, quantities: dict, eps, lhs, ci, notes=()) -> CheckReport:
    """A check's report, its verdict from :func:`restate` (lists keep float64 bits)."""
    eps = np.asarray(eps, dtype=np.float64)
    grid = {"eps": eps.tolist(), "lhs": np.asarray(lhs, dtype=np.float64).tolist(),
            "ci": np.broadcast_to(np.asarray(ci, dtype=np.float64), eps.shape).tolist()}
    rhs, slack, pre, violations, worst, verdict = restate(
        {"check_id": check_id, "inputs": inputs, "quantities": quantities, "grid": grid})
    return CheckReport(check_id=check_id, inputs=inputs, quantities=quantities, **grid,
                       rhs=rhs.tolist(), slack=slack.tolist(), precondition=pre.tolist(),
                       relation=CHECK_SPECS[check_id].statement.relation,
                       violations=violations, worst_margin=worst, verdict=verdict,
                       notes=list(notes))


def restate(report: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, float, str]:
    """``(rhs, slack, precondition, violations, worst_margin, verdict)`` of a
    report, from its JSON alone: its check's :class:`Statement` at the grid's
    eps, the slack being the constant plus, per median, the central difference
    of the rhs across its CI, and the grid's lhs and ci measured against them."""
    stmt = CHECK_SPECS[report["check_id"]].statement
    grid = report["grid"]
    eps = np.asarray(grid["eps"], dtype=np.float64)
    t = {**report["inputs"], **report["quantities"]}
    t["prof"] = AnalyticProfile(**t["profile"]) if "profile" in t else None
    rhs = np.asarray(stmt.rhs(eps, t), dtype=np.float64)
    slack = np.full(eps.shape, stmt.slack)
    for key in stmt.medians:
        m, h = t[key], t[key + "_ci"]
        if h != 0.0:
            slack += 0.5 * np.abs(stmt.rhs(eps, {**t, key: m + h})
                                  - stmt.rhs(eps, {**t, key: max(m - h, 1e-300)}))
    pre = np.broadcast_to(np.asarray(stmt.pre(eps, t), dtype=bool), eps.shape)
    lhs, ci = (np.asarray(grid[key], dtype=np.float64) for key in ("lhs", "ci"))
    margin = ((lhs - ci) - (rhs + slack) if stmt.relation == "le"
              else (rhs - slack) - (lhs + ci))
    admitted = margin[pre]
    violations = int((admitted > 0.0).sum())
    worst = float(admitted.max()) if admitted.size else float("nan")
    verdict = "fail" if violations else "pass" if pre.any() else "not-applicable"
    return rhs, slack, pre, violations, worst, verdict


def grid_points(report: dict) -> tuple[np.ndarray, np.ndarray]:
    """``(admitted, informative)`` masks of a report's grid by :func:`restate`'s
    terms: informative points are admitted ones that could fail, with lhs and
    the bound inside the statement's ``lhs_range`` [lo, hi]: ``lhs - ci > lo``
    and ``rhs + slack < hi`` if "le", ``lhs + ci < hi`` and ``rhs - slack > lo`` if "ge"."""
    stmt = CHECK_SPECS[report["check_id"]].statement
    rhs, slack, pre, *_ = restate(report)
    lhs, ci = (np.asarray(report["grid"][key], dtype=np.float64) for key in ("lhs", "ci"))
    lo, hi = stmt.lhs_range({**report["inputs"], **report["quantities"]})
    can_fail = ((lhs - ci > lo) & (rhs + slack < hi) if stmt.relation == "le"
                else (lhs + ci < hi) & (rhs - slack > lo))
    return pre, pre & can_fail


def _pushed_batch(measure: MeasureSpec, count: int, seed: int, norms
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(image, num, den)``: the batch of ``measure`` pushed through the map
    of ``norms`` (``ratio_norms`` or ``radial_norms``), each chunk of the
    sample stream lifted in place and held in the column-major image
    (``sample_image``).  Every step is row by row, so the bits equal the map
    applied to the whole batch."""
    return sample_image(measure, count, seed, lambda rows: _lift(norms, rows, out=rows))


def _curve_report(check_id: str, image: np.ndarray, metric: NormSpec,
                  eps_grid: Sequence[float], seed: int, inputs: dict, quantities: dict,
                  notes: Sequence[str]) -> CheckReport:
    """The tail of every check whose lhs is the half-space curve of
    ``image`` in ``metric``: the curve, its grid and family size added to
    the report's terms, and the report."""
    eps_grid = np.asarray(eps_grid, dtype=np.float64)
    curve = concentration_lower_curve(image, metric, eps_grid,
                                      direction_seed=rng.derive_seed(seed, 0xD17))
    inputs = {**inputs, "eps": eps_grid.tolist()}
    quantities = {**quantities, "family_size": curve.family_size}
    return _finish(check_id, inputs, quantities, eps_grid, curve.alpha_hat,
                   curve.ci, notes)


# ---------------------------------------------------------------------------
# Lipschitz transfer through an arbitrary map
# ---------------------------------------------------------------------------

_MAP_KEYS = {"identity": (), "scale": ("factor",), "coordinate": ("index",)}


def build_map(cfg: dict, metric_in: NormSpec
              ) -> tuple[Callable[[np.ndarray], np.ndarray], NormSpec, str, float]:
    """Row-wise map from a config descriptor (``kind`` and that kind's own
    key only): ``(fn, metric_out, label, lip)``, ``lip`` being the map's
    exact Lipschitz constant from ``metric_in`` to ``metric_out``.  The
    n-wide maps keep the metric, so identity's is 1 and scale's |factor|.
    Coordinate i maps into lp(p, 1); its constant sup{|x_i| : |x| <= 1} is
    |e_i|_* in the dual norm: 1 in plain lp, |T^-T e_i|_q in |Tx|_p."""
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    if not isinstance(kind, str) or kind not in _MAP_KEYS:
        raise ValueError(f"expected a map object of a kind in {sorted(_MAP_KEYS)}, "
                         f"got {cfg!r}")
    _config_object(cfg, ("kind", *_MAP_KEYS[kind]), f"map kind {kind!r}")
    if kind == "identity":
        return (lambda x: x), metric_in, "identity", 1.0
    if kind == "scale":
        if "factor" not in cfg:
            raise ValueError("missing key 'factor'")
        factor = parse_float(cfg["factor"])
        return (lambda x: factor * x), metric_in, f"scale:{factor}", abs(factor)
    index = parse_int(cfg.get("index", 0))
    if not 0 <= index < metric_in.dim:
        raise ValueError(f"coordinate index {index} out of range for n={metric_in.dim}")
    axis = np.where(np.arange(metric_in.dim) == index, 1.0, 0.0)
    return ((lambda x: x[:, index:index + 1]), lp(metric_in.p, 1), f"coordinate:{index}",
            float(norm_eval(dual_norm(metric_in), axis)))


def _refuse(fault: Optional[tuple[str, str]]) -> None:
    """Raise the CheckError of a fault hook's ``(key, why)``, if any."""
    if fault is not None:
        raise CheckError(fault[1], key=fault[0])


def _lip_fault(lip: float, map_lip: float) -> Optional[tuple[str, str]]:
    """("lip", why) when ``lip`` is not positive or is below ``map_lip``, the
    map's exact constant (a false claim), else None."""
    if not (lip > 0.0 and lip >= map_lip):
        return "lip", f"must be positive and at least the map's constant {map_lip!r}, got {lip!r}"
    return None


def check_lipschitz_transfer(*, measure: MeasureSpec, map_cfg: dict, lip: float,
                             metric_in: NormSpec, eps_grid: Sequence[float],
                             count: int, seed: int, profile) -> CheckReport:
    """Push-forward through an L-Lipschitz map can only slow concentration
    down by the factor L: image curve at r versus source profile at r/L."""
    map_rows, metric_out, label, map_lip = build_map(map_cfg, metric_in)
    _refuse(_lip_fault(lip, map_lip))
    prof = analytic_profile(profile, measure.dim)
    # every map is row-wise: the image is built from the stream
    image, = sample_image(measure, count, seed, lambda rows: (map_rows(rows),))
    inputs = {"measure": measure.to_config(), "map": label, "lip": lip,
              "metric_in": metric_in.to_config(), "metric_out": metric_out.to_config(),
              "count": count, "seed": seed, "profile": prof.to_config()}
    return _curve_report("lipschitz_transfer", image, metric_out, eps_grid, seed,
                         inputs, {}, ())


# ---------------------------------------------------------------------------
# Norm-ratio transfer
# ---------------------------------------------------------------------------

def check_norm_ratio_transfer(*, K: NormSpec, L: NormSpec, measure: MeasureSpec,
                              eps_grid: Sequence[float], count: int, seed: int,
                              profile) -> CheckReport:
    """Concentration of the norm-ratio push-forward, against the source
    profile slowed by 14 lam m_K / m_L, on the grid points where the
    smallness precondition (16 x profile at the 7-scale) holds."""
    L_r, cc = normalize_containment(K, L)
    prof = analytic_profile(profile, measure.dim)
    # norm_ratio_map(K, L_r, data), built from the sample stream
    image, vk, vl = _pushed_batch(measure, count, seed, ratio_norms(K, L_r))
    med_k = empirical_median(vk)
    med_l = empirical_median(vl)
    if med_k.value <= 0.0:
        raise CheckError("the source measure must give the K-norm a positive median")

    inputs = {"K": K.to_config(), "L": L.to_config(), "measure": measure.to_config(),
              "count": count, "seed": seed, "profile": prof.to_config()}
    quantities = {"lambda": cc.lam, "containment_scale": cc.scale,
                  "exact_lambda": cc.exact, "median_K": med_k.value,
                  "median_K_ci": med_k.half_width, "median_L": med_l.value,
                  "median_L_ci": med_l.half_width}
    return _curve_report("norm_ratio_transfer", image, L_r, eps_grid, seed, inputs,
                         quantities, ["lhs is a statistical lower bound of the "
                                      "image concentration function"])


# ---------------------------------------------------------------------------
# Shell-inclusion chain (pointwise, zero tolerance)
# ---------------------------------------------------------------------------

def check_shell_inclusion(*, K: NormSpec, L: NormSpec, measure: MeasureSpec,
                          eps: float, count: int, probes: int, seed: int) -> CheckReport:
    """Pointwise chain behind the norm-ratio transfer: any point within
    delta m_L / lam (K-distance) of the median-shell preimage of a target
    half-space maps within 7 delta m_K of it, hence into the eps-expansion.

    The chain is algebra, not statistics: the admitted violation count is
    exactly zero (up to float round-off).
    """
    if eps <= 0.0:
        raise CheckError("eps must be positive")
    L_r, cc = normalize_containment(K, L)
    n = measure.dim
    theta = rng._generator(rng.derive_seed(seed, 0xA0), 0).standard_normal(n)

    def chain(rows):   # with the projections of norm_ratio_map(K, L_r, rows)
        image, vk, vl = _lift(ratio_norms(K, L_r), rows)
        return rows, vk, vl, image @ theta

    data, vk, vl, proj = sample_map(measure, count, seed, chain)
    med_k = empirical_median(vk).value
    med_l = empirical_median(vl).value
    delta = eps / (7.0 * med_k)
    radius = delta * med_l / cc.lam
    t_cut = empirical_median(proj).value
    dual_w = float(norm_eval(dual_norm(L_r), theta))

    shell_l = np.abs(vl - med_l) < delta * med_l
    shell_k = np.abs(vk - med_k) < delta * med_k
    in_a = proj <= t_cut
    members = np.flatnonzero(shell_l & shell_k & in_a)
    inputs = {"K": K.to_config(), "L": L.to_config(), "measure": measure.to_config(),
              "eps": eps, "count": count, "probes": probes, "seed": seed}
    quantities = {"lambda": cc.lam, "median_K": med_k, "median_L": med_l,
                  "delta": delta, "probe_radius": radius,
                  "shell_set_size": int(members.size)}
    if members.size == 0:
        return _finish("shell_inclusion", inputs, quantities, [eps], [0.0], 0.0,
                       ["shell preimage set is empirically empty"])

    pseed = rng.derive_seed(seed, 0xB1)
    half, n_col = probes // 2, probes // 10
    step = rng.block_rows(n)

    def probe(lo: int, hi: int) -> tuple:   # a chunk of probes from its own key block
        gen = rng._generator(pseed, 0, lo // step)
        idx = np.arange(lo, hi)
        rows = members[gen.integers(members.size, size=hi - lo)]
        y, yk, yl = data[rows], vk[rows], vl[rows]   # the partners and their norms
        direction = gen.standard_normal((hi - lo, n))
        direction /= norm_eval(K, direction)[:, None]
        scale_u = gen.random(hi - lo)
        # half the probes sit exactly on the K-ball boundary, the worst case;
        # the last tenth is collinear with y and the tenth after the first
        # half repeats y itself (slices by absolute probe index)
        scale_u[idx < half] = 1.0
        x = y + direction * (radius * scale_u)[:, None]
        col = idx >= probes - n_col
        x[col] = y[col] * (1.0 + radius / yk[col])[:, None]
        same = (idx >= half) & (idx < half + n_col)
        x[same] = y[same]

        pix = norm_ratio_map(K, L_r, x)
        piy = _lift(lambda _: (yk, yl), y)[0]
        return norm_eval(L_r, pix - piy), pix @ theta - (t_cut + eps * dual_w)

    moved, overshoot = rng._chunk_map(probes, step, probe)
    quantities.update({"max_displacement": float(moved.max()),
                       "displacement_bound": 7.0 * delta * med_k})
    # grid rows summarize the two probe-wise assertions, a row failing
    # exactly when some probe passes its cap; the probes are counted apart
    move_cap, member_cap = _shell_caps([eps, eps], quantities)
    quantities.update({"displacement_failures": int((moved > move_cap).sum()),
                       "membership_failures": int((overshoot > member_cap).sum())})
    return _finish("shell_inclusion", inputs, quantities, [eps, eps],
                   [moved.max(), overshoot.max()], 0.0,
                   ["pointwise algebraic chain; zero tolerance beyond round-off"])


# ---------------------------------------------------------------------------
# Two-set product bound
# ---------------------------------------------------------------------------

def check_separated_sets(*, measure: MeasureSpec, metric: NormSpec, num_pairs: int,
                         count: int, seed: int, profile) -> CheckReport:
    """Product of the masses of two sets against 4 x profile at half
    their distance, over random parallel half-space pairs whose metric
    distance is exact through the dual norm."""
    prof = analytic_profile(profile, measure.dim)
    data = sample_columns(measure, count, seed)
    n = measure.dim
    dseed = rng.derive_seed(seed, 0xC2)
    thetas = rng._generator(dseed, 0).standard_normal((num_pairs, n))
    u = rng._generator(dseed, 1).random((num_pairs, 2))    # a row per pair
    q_lo = 0.02 + 0.43 * u[:, 0]
    q_hi = 0.55 + 0.43 * u[:, 1]

    a, b, below, above = reduce_projections(
        data, thetas, lambda row, k: quantile_cuts(row, q_lo[k], q_hi[k])).T
    dual_w = norm_eval(dual_norm(metric), thetas)
    pa, pb = below / count, above / count
    lhs = pa * pb
    ci = product_ci(pa, pb, count)
    half_dist = 0.5 * np.maximum(b - a, 0.0) / dual_w
    order = np.argsort(half_dist)

    inputs = {"measure": measure.to_config(), "metric": metric.to_config(),
              "num_pairs": num_pairs, "count": count, "seed": seed,
              "profile": prof.to_config()}
    quantities = {"max_product": float(lhs.max()),
                  "min_half_distance": float(half_dist.min()),
                  "max_half_distance": float(half_dist.max())}
    return _finish("separated_sets", inputs, quantities, half_dist[order],
                   lhs[order], ci[order])


# ---------------------------------------------------------------------------
# Cube floor
# ---------------------------------------------------------------------------

def _cube_fault(measure: MeasureSpec) -> Optional[tuple[str, str]]:
    """("measure", why) unless ``measure`` lives on the unit cube, else None:
    it needs a body norm (a bounded support), whose body lies in [-1, 1]^n
    exactly when every sup{|x_i| : |x| <= 1} = |e_i|_* is at most 1."""
    body = measure.body_norm
    reach = math.inf if body is None else norm_eval(dual_norm(body), np.eye(body.dim)).max()
    if reach > 1.0 + 1e-12:
        return "measure", (f"{measure.family} reaches {float(reach)!r} along an axis: "
                           "not supported on the unit cube")
    return None


def check_cube_floor(*, n: int, eps_grid: Sequence[float], count: int, seed: int,
                     measure: MeasureSpec) -> CheckReport:
    """No symmetric measure on the cube concentrates past (1 - mass of
    the eps-cube) / 2n; the half-space estimator must clear that floor."""
    _refuse(_cube_fault(measure))
    metric = lp(math.inf, n)
    data, sup_norm = sample_image(measure, count, seed,
                                  lambda rows: (rows, norm_eval(metric, rows)))
    small_mass = [float((sup_norm <= e).mean()) for e in eps_grid]
    inputs = {"n": n, "measure": measure.to_config(), "count": count, "seed": seed}
    return _curve_report("cube_floor", data, metric, eps_grid, seed, inputs,
                         {"small_ball_mass": small_mass},
                         ["floor uses the empirical eps-cube mass"])


# ---------------------------------------------------------------------------
# Sup-norm embedding bound
# ---------------------------------------------------------------------------

def check_sup_embedding(*, K: NormSpec, measure: MeasureSpec,
                        functionals: np.ndarray, d: float,
                        eps_grid: Sequence[float], count: int, seed: int,
                        profile) -> CheckReport:
    """A d-embedding into a sup-normed space needs at least
    (1 - mass(d eps K)) / (2 alpha(eps)) coordinates; alpha comes from a
    profile upper bound when one exists, else from the cube floor (the
    row's statement evaluates both), so the computed requirement never
    overshoots the true one."""
    functionals = np.asarray(functionals, dtype=np.float64)
    n_func = functionals.shape[0]
    # the two row statistics, from the sample stream: no batch is held
    vk, sup_f = sample_map(measure, count, seed, lambda rows: (
        norm_eval(K, rows), np.abs(rows @ functionals.T).max(axis=1)))
    tol = _ALGEBRAIC_TOL
    if np.any(sup_f > vk * (1.0 + tol)) or np.any(sup_f < vk / d * (1.0 - tol)):
        raise CheckError("functionals do not form a d-embedding on samples")

    eps_grid = np.asarray(eps_grid, dtype=np.float64)
    small_mass = [float((vk <= d * e).mean()) for e in eps_grid]
    inputs = {"K": K.to_config(), "measure": measure.to_config(),
              "n_functionals": n_func, "d": d, "count": count, "seed": seed,
              "eps": eps_grid.tolist()}
    if profile is not None:   # else the cube floor bounds alpha
        inputs["profile"] = analytic_profile(profile, measure.dim).to_config()
    return _finish("sup_embedding", inputs, {"small_ball_mass": small_mass}, eps_grid,
                   np.full(eps_grid.shape, float(n_func)), 0.0)


# ---------------------------------------------------------------------------
# Radial transfer between two radial measures
# ---------------------------------------------------------------------------

def _radial_fault(p: float, n: int) -> Optional[tuple[str, str]]:
    """The argument at fault and why, when the radial transfer catalog does
    not cover (p, n); None when it does."""
    if not 1.0 <= p <= 2.0:
        return "p", "the radial transfer catalog covers p in [1, 2]"
    # the source's radial law is Gamma(n / p)
    if n / p > MAX_GAMMA_SHAPE:
        return "n", (f"n / p = {n / p:g} exceeds {MAX_GAMMA_SHAPE:g}, the largest "
                     "gamma shape of the radial law")
    return None


def check_radial_transfer(*, p: float, n: int, eps_grid: Sequence[float],
                          count: int, seed: int, profile, lam: float) -> CheckReport:
    """Transfer from the generalized-gaussian product to the uniform lp
    ball through the radial quantile map u: image curve at eps versus
    16 x source profile at eps / (14 |u|_Lip lam), where the two-median
    smallness precondition holds."""
    _refuse(_radial_fault(p, n))
    metric = lp(p, n)
    mu = ggp(p, n)
    nu = uniform_ball(metric)
    if profile is None:
        profile = "gaussian" if p == 2.0 else "gamma1"
    prof = analytic_profile(profile, n)

    u = radial_transport(radial_cdf(mu, metric), radial_cdf(nu, metric))
    u_lip = lipschitz_constant(u)

    # radial_map(u, metric, data), built from the sample stream
    image, u_mu, r_mu = _pushed_batch(mu, count, seed, radial_norms(u, metric))
    med_l = empirical_median(r_mu)
    med_u = empirical_median(u_mu)

    inputs = {"p": p, "n": n, "count": count, "seed": seed,
              "profile": prof.to_config(), "lambda": lam}
    quantities = {"u_lipschitz": u_lip, "median_L": med_l.value,
                  "median_u": med_u.value, "u_knots": int(u.knots.size)}
    return _curve_report("radial_transfer", image, metric, eps_grid, seed, inputs,
                         quantities, ["u built from analytic radial laws; image sampled "
                                      "by pushing the source batch through the radial map"])


# ---------------------------------------------------------------------------
# Config tokens: a norm, measure or profile is read by its own type
# ---------------------------------------------------------------------------

def parse_eps(spec) -> list:
    """Grid from a list of numbers, a range object, or the text forms of a
    comma list and 'lo:hi:num[:scale]'; scale is 'linear' (the default) or
    'log'.  Only the text forms parse text: a list entry and a range's
    start and stop are JSON numbers.  The grid must pass
    :func:`eps_grid_fault`, as the half-space curve requires."""
    if isinstance(spec, str):
        text = spec

        def number(token: str) -> float:
            try:
                value = float(token)
            except ValueError:
                raise ConfigError(f"cannot parse eps grid {text!r}") from None
            if not math.isfinite(value):
                raise ConfigError(f"eps grid {text!r} holds a non-finite number")
            return value

        parts = spec.split(":")
        if len(parts) not in (1, 3, 4):
            raise ConfigError(f"cannot parse eps grid {spec!r}: expected "
                              "'lo:hi:num[:scale]' or a comma list")
        if len(parts) == 1:
            spec = [number(tok) for tok in spec.split(",")] if spec.strip() else []
        else:
            spec = dict(zip(("start", "stop", "num", "scale"),
                            [number(tok) for tok in parts[:3]] + parts[3:]))
    if isinstance(spec, dict):
        spec = _config_object(spec, ("start", "stop", "num", "scale"), "an eps grid")
        fn = {"linear": np.linspace, "log": np.geomspace}.get(spec.get("scale", "linear"))
        if fn is None:
            raise ConfigError(f"eps grid scale must be 'linear' or 'log', got {spec['scale']!r}")
        num = parse_size(spec["num"], "eps grid num")
        grid = fn(parse_float(spec["start"]), parse_float(spec["stop"]), num).tolist()
    elif isinstance(spec, (list, tuple)):
        grid = [parse_float(v) for v in spec]
    else:
        raise ConfigError(f"cannot parse eps grid {spec!r}")
    fault = eps_grid_fault(grid)
    if fault is not None:
        raise ConfigError(fault)
    return grid


def _checked(token, read, n: int):
    """``token`` as given, once ``read(token, n)`` accepts it (null keeps the
    row's default): a profile name or object, or a map object."""
    if token is not None:
        read(token, n)
    return token


# token kind -> parser(token, n, p); p is the job's lp exponent for measures.
# A map is checked in l2: the metric moves only the map's constant, which
# the row's fault hook tests against ``lip``.
_PARSERS = {
    "norm": lambda token, n, p: NormSpec.from_config(token, n),
    "measure": lambda token, n, p: MeasureSpec.from_config(token, n, _config_p(p)),
    "eps": lambda token, n, p: parse_eps(token),
    "int": lambda token, n, p: parse_int(token),
    "size": lambda token, n, p: parse_size(token),
    "float": lambda token, n, p: parse_float(token),
    "positive": lambda token, n, p: parse_positive(token),
    "profile": lambda token, n, p: _checked(token, analytic_profile, n),
    "map": lambda token, n, p: _checked(token, lambda cfg, n: build_map(cfg, lp(2, n)), n),
}


# ---------------------------------------------------------------------------
# Check table: one row per check drives config parsing and run_check
# ---------------------------------------------------------------------------

class Param(NamedTuple):
    """One parameter of a check: config key, parser, argument, default."""

    key: Optional[str]      # config key; None: not settable from a config
    kind: Optional[str]     # token kind that parses the key: a key of _PARSERS
    arg: str                # check_* argument and run_check keyword
    default: Callable[[int], object]   # of n: the argument's one default


def _param(key, kind, default, arg=None) -> Param:
    return Param(key, kind, arg or key, default)


class Statement(NamedTuple):
    """What a check tests: lhs <relation> rhs(eps, t) wherever pre(eps, t), with
    t = {**inputs, **quantities} of the report and t["prof"] its profile."""

    relation: str           # "le": lhs - ci <= rhs + slack ; "ge": lhs + ci >= rhs - slack
    rhs: Callable           # (eps, t) -> the right side at each eps
    pre: Callable = lambda eps, t: True
    medians: tuple = ()     # terms whose "<key>_ci" half-width feeds the slack
    slack: float = 0.0
    # t -> (least, largest) value the lhs can take; a curve's is [0, 1]
    lhs_range: Callable = lambda t: (0.0, 1.0)


def _shell_caps(eps, t):
    # caps on the largest displacement (7 delta m_K) and the largest overshoot
    # past the expanded half-space (0), up to round-off; eps with no shell set
    if not t["shell_set_size"]:
        return eps
    tol = _ALGEBRAIC_TOL * max(t["displacement_bound"], 1.0)
    return [t["displacement_bound"] + tol, tol]


def _embedding_alpha(eps, t):
    # the profile at eps, else the cube floor, the only valid bound on the cube
    return t["prof"](eps) if t["prof"] is not None else np.array(
        [cube_concentration_floor(m, t["measure"]["dim"]) for m in t["small_ball_mass"]])


class CheckSpec(NamedTuple):
    fn: Callable[..., CheckReport]
    n: int                  # dimension when run_check is given none
    required: frozenset     # config keys a job must give besides n
    statement: Statement
    params: tuple
    # parsed job keywords -> (config key, reason) when they break the
    # check's hypothesis, else None
    fault: Callable[[dict], Optional[tuple[str, str]]]


def _spec(fn, n: int, required, statement, *params: Param, fault=lambda kw: None) -> CheckSpec:
    # every check samples, so every row takes N and seed
    common = (_param("N", "size", lambda n: 100000, "count"),
              _param("seed", "int", lambda n: 1))
    return CheckSpec(fn, n, frozenset(required), statement, params + common, fault)


def _median_fault(kw: dict) -> Optional[tuple[str, str]]:
    """("N", why) when a job's N is too small for a median estimate, else None."""
    if kw["count"] < MEDIAN_MIN_COUNT:
        return "N", (f"a median estimate needs at least {MEDIAN_MIN_COUNT} "
                     f"samples, got {kw['count']}")
    return None


def default_eps_grid() -> list:
    return np.geomspace(0.05, 12.0, 40).tolist()


_N = _param("n", "size", lambda n: n)

CHECK_SPECS: dict[str, CheckSpec] = {
    "lipschitz_transfer": _spec(
        check_lipschitz_transfer, 16, ("measure", "map", "lip"),
        Statement("le", lambda eps, t: t["prof"](eps / t["lip"])),
        _param("measure", "measure", lambda n: ggp(2.0, n)),
        _param("map", "map", lambda n: {"kind": "identity"}, "map_cfg"),
        _param("lip", "positive", lambda n: 1.0),
        _param("metric", "norm", lambda n: lp(2, n), "metric_in"),
        _param("eps", "eps", lambda n: np.linspace(0.1, 4.0, 20), "eps_grid"),
        _param("profile", "profile", lambda n: "gaussian"),
        fault=lambda kw: _lip_fault(kw["lip"], build_map(kw["map_cfg"], kw["metric_in"])[3])),
    "norm_ratio_transfer": _spec(
        check_norm_ratio_transfer, 32, ("K", "L", "measure"),
        Statement("le", lambda eps, t: 16.0 * t["prof"](
                      eps * t["median_L"] / (14.0 * t["lambda"] * t["median_K"])),
                  lambda eps, t: 16.0 * t["prof"](
                      eps * t["median_L"] / (7.0 * t["lambda"] * t["median_K"])) <= 1.0,
                  medians=("median_K", "median_L")),
        _param("K", "norm", lambda n: lp(2, n)),
        _param("L", "norm", lambda n: lp(1, n)),
        _param("measure", "measure", haar_sphere),
        _param("eps", "eps", lambda n: default_eps_grid(), "eps_grid"),
        _param("profile", "profile", lambda n: "sphere"),
        fault=_median_fault),
    "shell_inclusion": _spec(
        check_shell_inclusion, 16, ("K", "L", "measure", "eps"),
        Statement("le", _shell_caps, lambda eps, t: t["shell_set_size"] > 0,
                  lhs_range=lambda t: (0.0, math.inf)),
        _param("K", "norm", lambda n: lp(2, n)),
        _param("L", "norm", lambda n: lp(1, n)),
        _param("measure", "measure", haar_sphere),
        _param("eps", "positive", lambda n: 0.5),
        _param("probes", "size", lambda n: 100000),
        fault=_median_fault),
    "separated_sets": _spec(
        check_separated_sets, 64, ("measure",),
        # lhs = pa * pb of two disjoint sets: pa + pb <= 1, so lhs <= 1/4
        Statement("le", lambda eps, t: 4.0 * t["prof"](eps), lhs_range=lambda t: (0.0, 0.25)),
        _param("measure", "measure", haar_sphere),
        _param("metric", "norm", lambda n: lp(2, n)),
        _param("num_pairs", "size", lambda n: 1000),
        _param("profile", "profile", lambda n: "sphere")),
    "cube_floor": _spec(
        check_cube_floor, 8, (),
        Statement("ge", lambda eps, t: [cube_concentration_floor(m, t["n"])
                                        for m in t["small_ball_mass"]]),
        _N,
        _param("measure", "measure", lambda n: uniform_ball(lp(INF, n))),
        _param("eps", "eps", lambda n: np.linspace(0.1, 0.9, 9), "eps_grid"),
        fault=lambda kw: _cube_fault(kw["measure"])),
    "sup_embedding": _spec(
        check_sup_embedding, 8, ("d",),
        Statement("ge", lambda eps, t: [embedding_lower_bound(a, m) for a, m in
                                        zip(_embedding_alpha(eps, t), t["small_ball_mass"])],
                  lambda eps, t: (eps < 1.0 / t["d"]) & (_embedding_alpha(eps, t) > 0.0),
                  slack=_ALGEBRAIC_TOL,
                  # the lhs is the embedding's coordinate count
                  lhs_range=lambda t: (t["n_functionals"],) * 2),
        _param("K", "norm", lambda n: lp(INF, n)),
        _param("measure", "measure", lambda n: uniform_ball(lp(INF, n))),
        _param(None, None, np.eye, "functionals"),
        _param("d", "positive", lambda n: 1.0),
        _param("eps", "eps", lambda n: np.linspace(0.1, 0.9, 9), "eps_grid"),
        # None: the cube floor bounds alpha
        _param("profile", "profile", lambda n: None)),
    "radial_transfer": _spec(
        check_radial_transfer, 16, ("p",),
        Statement("le", lambda eps, t: 16.0 * t["prof"](
                      eps / (14.0 * t["u_lipschitz"] * t["lambda"])),
                  # the rhs has no median dependence; medians only gate this
                  lambda eps, t: 8.0 * (
                      t["prof"](eps / (7.0 * t["u_lipschitz"] * t["lambda"]))
                      + t["prof"](eps * t["median_u"]
                                  / (7.0 * t["u_lipschitz"] ** 2 * t["median_L"]))) <= 1.0),
        _N,
        _param("p", "float", lambda n: 1.0),
        _param("eps", "eps", lambda n: default_eps_grid(), "eps_grid"),
        # None: the body picks gaussian at p = 2, else gamma1
        _param("profile", "profile", lambda n: None),
        _param("lambda", "positive", lambda n: 1.0, "lam"),
        fault=lambda kw: _radial_fault(kw["p"], kw["n"]) or _median_fault(kw)),
}


def config_params(job: dict, where: str) -> tuple[str, dict]:
    """Parse one config job into its check id and check_* arguments.

    A job must give n and its row's required keys, may give only keys of
    its row (plus id, and p as the exponent of a measure token that reads
    one), and every error names the field at fault: ``<where>.<key>: <reason>``.
    """
    check = job.get("check")
    if not isinstance(check, str) or check not in CHECK_SPECS:
        raise ConfigError(f"{where}.check: unknown check {check!r}; "
                          f"known: {sorted(CHECK_SPECS)}")
    spec = CHECK_SPECS[check]
    accepted = {"id", "check", "n"} | {par.key for par in spec.params if par.key}
    if "measure" in job and "p" not in accepted:
        if "p" in job and job["measure"] not in LP_FAMILIES:
            raise ConfigError(f"{where}.p: measure {job['measure']!r} reads no job-level p; "
                              f"only the tokens {list(LP_FAMILIES)} do")
        accepted.add("p")
    extra = sorted(set(job) - accepted)
    if extra:
        raise ConfigError(f"{where}.{extra[0]}: check {check!r} takes no key "
                          f"{extra[0]!r}; it takes {sorted(accepted)}")
    missing = ({"n"} | spec.required) - set(job)
    if missing:
        raise ConfigError(f"{where}: check {check!r} requires {sorted(missing)}")

    def parse(key: str, kind: str, n: int = 0):
        try:
            return _PARSERS[kind](job[key], n, job.get("p"))
        except KeyError as exc:
            raise ConfigError(f"{where}.{key}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.{key}: {exc}") from None

    n = parse("n", "size")
    params = {"n": n}
    for par in spec.params:
        if par.key in job:
            params[par.arg] = parse(par.key, par.kind, n)
    # the row's hypothesis, on the arguments run_check fills in
    fault = spec.fault({**{par.arg: par.default(n) for par in spec.params}, **params})
    if fault is not None:
        raise ConfigError(f"{where}.{fault[0]}: {fault[1]}")
    return check, params


def run_check(check_id: str, **params) -> CheckReport:
    """Run one check by id; keywords left out (or None) take the row's
    defaults at dimension n.  The row's hypothesis is tested on the filled
    arguments before anything is sampled."""
    if check_id not in CHECK_SPECS:
        raise CheckError(f"unknown check id {check_id!r}; known: {sorted(CHECK_SPECS)}")
    spec = CHECK_SPECS[check_id]
    params = {k: v for k, v in params.items() if v is not None}
    n = params.pop("n", spec.n)
    args = {par.arg: params.pop(par.arg) if par.arg in params else par.default(n)
            for par in spec.params}
    if params:
        raise TypeError(f"check {check_id!r} takes no keywords {sorted(params)}")
    _refuse(spec.fault({"n": n, **args}))
    # call the module's current binding, so that a wrapper installed on the
    # module (a tracer, a test double) sees the call
    return globals()[spec.fn.__name__](**args)
