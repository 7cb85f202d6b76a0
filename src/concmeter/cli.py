"""Command-line front end: experiments from config, CSV/JSON reports.

Subcommands mirror the library modules: ``run`` executes a JSON list of
check jobs (in parallel across a worker pool; results are deterministic
regardless of pool size), ``alpha``/``beta``/``median`` are one-shot
estimators, ``pushforward``/``transport`` export map data, and
``verify`` runs a single named check with defaults.

Exit codes: 0 when every verdict is pass or not-applicable, 2 when any
check fails, 1 on execution or configuration errors.  The environment
variable CONCMETER_SEED overrides all seeds (smoke-test hook).  Every
output file embeds the resolved configuration that produced it.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import parameters, verify
from .concentration import concentration_lower_curve, empirical_median
from .measures import ggp, radial_cdf, sample, uniform_ball
from .normspace import lp, norm_eval
from .transport import lipschitz_constant, norm_ratio_map, radial_transport
from .verify import ConfigError, parse_eps, parse_int, parse_measure, parse_norm


def env_seed(default: int) -> int:
    raw = os.environ.get("CONCMETER_SEED")
    if not raw:
        return int(default)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"CONCMETER_SEED: expected an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# The `run` subcommand
# ---------------------------------------------------------------------------

def validate_config(cfg: dict) -> list[tuple[dict, str, dict]]:
    """Parse every job before any job runs: one (job, check id, run_check
    keywords) triple per job, seeds resolved.  Errors name the field."""
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be an object")
    extra = set(cfg) - {"jobs", "seed", "output_dir"}
    if extra:
        raise ConfigError(f"unknown top-level keys {sorted(extra)}")
    jobs = cfg.get("jobs", [])
    if not isinstance(jobs, list):
        raise ConfigError("'jobs' must be a list")
    try:
        default_seed = parse_int(cfg.get("seed", 1))
    except ConfigError as exc:
        raise ConfigError(f"seed: {exc}") from None
    parsed, seen = [], set()
    for idx, job in enumerate(jobs):
        where = f"jobs[{idx}]"
        if not isinstance(job, dict):
            raise ConfigError(f"{where}: job must be an object")
        check, params = verify.config_params(job, where)
        stem = str(job.get("id", f"job{idx:03d}"))   # the report file is <stem>.json
        if stem in seen:
            raise ConfigError(f"{where}.id: duplicate id {stem!r}")
        seen.add(stem)
        params["seed"] = env_seed(params.get("seed", default_seed))
        parsed.append((job, check, params))
    return parsed


def _execute_job(task: tuple[int, tuple[dict, str, dict]]) -> tuple[int, dict]:
    idx, (job, check, params) = task
    payload = verify.run_check(check, **params).to_dict()
    payload["job"] = {"index": idx, "id": job.get("id", f"job{idx:03d}"),
                      "resolved": {**job, "seed": params["seed"]}}
    return idx, payload


def cmd_run(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
        tasks = list(enumerate(validate_config(cfg)))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out or cfg.get("output_dir", "concmeter-out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.jobs == 1 or len(tasks) <= 1:
            results = [_execute_job(t) for t in tasks]
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                results = list(pool.map(_execute_job, tasks))
    except (verify.CheckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results.sort(key=lambda pair: pair[0])
    rows = []
    any_fail = False
    for idx, payload in results:
        job_id = payload["job"]["id"]
        (out_dir / f"{job_id}.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
        verdict = payload["verdict"]
        any_fail |= verdict == "fail"
        rows.append((job_id, payload["check_id"], verdict,
                     payload["violations"]["count"],
                     payload["violations"]["worst_margin"],
                     payload["job"]["resolved"]["seed"]))
    lines = ["job_id,check_id,verdict,violations,worst_margin,seed"]
    lines += [",".join(str(v) for v in row) for row in rows]
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")
    return 2 if any_fail else 0


# ---------------------------------------------------------------------------
# One-shot estimator subcommands
# ---------------------------------------------------------------------------

def _write_csv(path, config: dict, columns: str, rows) -> None:
    """Data CSV with the resolved config embedded as a leading comment."""
    lines = ["# config: " + json.dumps(config, sort_keys=True), columns]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_alpha(args) -> int:
    n = args.n
    seed = env_seed(args.seed)
    measure = parse_measure(args.measure, n, args.p)
    metric = parse_norm(args.metric, n)
    eps = np.asarray(parse_eps(args.eps))
    batch = sample(measure, args.N, seed)
    curve = concentration_lower_curve(batch.data, metric, eps)
    cfg = {"measure": measure.to_config(), "metric": metric.to_config(),
           "n": n, "N": args.N, "seed": seed, "eps": eps.tolist()}
    rows = np.column_stack([curve.eps, curve.alpha_hat, curve.ci,
                            curve.argmax_direction])
    _write_csv(args.out, cfg, "eps,alpha_hat,ci,direction_id_of_max", rows)
    return 0


def cmd_beta(args) -> int:
    seed = env_seed(args.seed)
    ns = [int(tok) for tok in args.n.split(",")]
    fn = parameters.beta if args.variant == "beta" else parameters.beta_tilde
    lines = []
    cfg = {"K": args.K, "L": args.L, "measure": args.measure, "p": args.p,
           "variant": args.variant, "n": ns, "N": args.N, "seed": seed}
    for n in ns:
        K = parse_norm(args.K, n)
        L = parse_norm(args.L, n)
        measure = parse_measure(args.measure, n, args.p)
        est = fn(K, measure, L, count=args.N, seed=seed)
        lines.append(f"{n},{est.value!r},{est.lam.lam!r},{est.numerator.value!r},"
                     f"{est.denominator.value!r}")
    header = ("# config: " + json.dumps(cfg, sort_keys=True)
              + "\nn,value,lambda,numerator,denominator\n")
    Path(args.out).write_text(header + "\n".join(lines) + "\n")
    return 0


def cmd_median(args) -> int:
    seed = env_seed(args.seed)
    measure = parse_measure(args.measure, args.n, args.p)
    norm = parse_norm(args.norm, args.n)
    batch = sample(measure, args.N, seed)
    est = empirical_median(norm_eval(norm, batch.data))
    print(json.dumps({"median": est.value, "ci_low": est.ci_low,
                      "ci_high": est.ci_high, "N": est.count,
                      "measure": measure.to_config(), "norm": norm.to_config(),
                      "seed": seed}, sort_keys=True))
    return 0


def cmd_pushforward(args) -> int:
    seed = env_seed(args.seed)
    n = args.n
    K = parse_norm(args.K, n)
    L = parse_norm(args.L, n)
    measure = parse_measure(args.measure, n, args.p)
    batch = sample(measure, args.N, seed)
    image = norm_ratio_map(K, L, batch.data)
    cfg = {"K": K.to_config(), "L": L.to_config(), "measure": measure.to_config(),
           "n": n, "N": args.N, "seed": seed}
    _write_csv(args.out, cfg, ",".join(f"x{k}" for k in range(n)), image)
    return 0


def cmd_transport(args) -> int:
    n = args.n
    metric = lp(args.p, n)
    u = radial_transport(radial_cdf(ggp(args.p, n), metric),
                         radial_cdf(uniform_ball(metric), metric))
    lip = lipschitz_constant(u)
    cfg = {"p": args.p, "n": n, "lipschitz": lip}
    _write_csv(args.out, cfg, "r,u", np.column_stack([u.knots, u.values]))
    print(json.dumps({"lipschitz": lip, "n_times_lipschitz": n * lip,
                      "knots": int(u.knots.size)}, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    seed = env_seed(args.seed)
    kw = {"seed": seed}
    if args.n:
        kw["n"] = args.n
    if args.N:
        kw["count"] = args.N
    try:
        report = verify.run_check(args.check_id, **kw)
    except (verify.CheckError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if report.verdict in ("pass", "not-applicable") else 2


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="concmeter",
                                 description="concentration-transfer laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a JSON config of check jobs")
    run.add_argument("config")
    run.add_argument("--out", default=None)
    run.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    run.set_defaults(fn=cmd_run)

    alpha = sub.add_parser("alpha", help="one-shot concentration curve to CSV")
    alpha.add_argument("--measure", required=True)
    alpha.add_argument("--p", default=None)
    alpha.add_argument("--metric", default="l2")
    alpha.add_argument("--eps", required=True)
    alpha.add_argument("--n", type=int, required=True)
    alpha.add_argument("--N", type=int, default=100000)
    alpha.add_argument("--seed", type=int, default=1)
    alpha.add_argument("--out", required=True)
    alpha.set_defaults(fn=cmd_alpha)

    beta_p = sub.add_parser("beta", help="beta / beta_tilde table vs n to CSV")
    beta_p.add_argument("--K", required=True)
    beta_p.add_argument("--L", required=True)
    beta_p.add_argument("--measure", required=True)
    beta_p.add_argument("--p", default=None)
    beta_p.add_argument("--variant", choices=("beta", "beta_tilde"), default="beta")
    beta_p.add_argument("--n", required=True, help="comma list of dimensions")
    beta_p.add_argument("--N", type=int, default=100000)
    beta_p.add_argument("--seed", type=int, default=1)
    beta_p.add_argument("--out", required=True)
    beta_p.set_defaults(fn=cmd_beta)

    med = sub.add_parser("median", help="empirical median of a norm, JSON to stdout")
    med.add_argument("--measure", required=True)
    med.add_argument("--p", default=None)
    med.add_argument("--norm", required=True)
    med.add_argument("--n", type=int, required=True)
    med.add_argument("--N", type=int, default=100000)
    med.add_argument("--seed", type=int, default=1)
    med.set_defaults(fn=cmd_median)

    push = sub.add_parser("pushforward", help="norm-ratio image sample to CSV")
    push.add_argument("--K", required=True)
    push.add_argument("--L", required=True)
    push.add_argument("--measure", required=True)
    push.add_argument("--p", default=None)
    push.add_argument("--n", type=int, required=True)
    push.add_argument("--N", type=int, default=10000)
    push.add_argument("--seed", type=int, default=1)
    push.add_argument("--out", required=True)
    push.set_defaults(fn=cmd_pushforward)

    trans = sub.add_parser("transport", help="radial transport map to CSV")
    trans.add_argument("--p", type=float, default=1.0)
    trans.add_argument("--n", type=int, required=True)
    trans.add_argument("--out", required=True)
    trans.set_defaults(fn=cmd_transport)

    ver = sub.add_parser("verify", help="run one named check with defaults")
    ver.add_argument("check_id")
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--N", type=int, default=None)
    ver.add_argument("--seed", type=int, default=1)
    ver.add_argument("--out", default=None)
    ver.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        env_seed(0)   # a malformed CONCMETER_SEED fails every subcommand alike
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
