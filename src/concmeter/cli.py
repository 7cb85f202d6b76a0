"""Command-line front end: experiments from config, CSV/JSON reports.

Subcommands mirror the library modules: ``run`` executes a JSON list of
check jobs (in parallel across a worker pool; results are deterministic
regardless of pool size), ``alpha``/``beta``/``median`` are one-shot
estimators, ``pushforward``/``transport`` export map data, and
``verify`` runs a single named check with defaults.

Exit codes: 0 when every verdict is pass or not-applicable, 2 when any
check fails, 1 on any usage, input, file or execution error; ``main`` is
the one place that turns an error into exit 1.  The environment
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

from . import parameters, rng, verify
from .concentration import concentration_lower_curve, empirical_median
from .measures import ggp, radial_cdf, sample_chunks, sample_columns, uniform_ball
from .normspace import _config_object, lp
from .transport import lipschitz_constant, norm_ratio_map, radial_transport
from .verify import (ConfigError, parse_eps, parse_int, parse_measure, parse_norm,
                     parse_size)


def env_seed(default: int) -> int:
    raw = os.environ.get("CONCMETER_SEED")
    if not raw:
        return int(default)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"CONCMETER_SEED: expected an integer, got {raw!r}") from None


def _write_csv(path, config, columns: str, rows) -> None:
    """CSV of ``str`` of each value (Python values: pass numpy rows through
    ``tolist``), under the resolved config as a leading comment when one
    is given.  Rows are written as they are drawn, so a generator of rows
    is never held whole."""
    with open(path, "w") as out:
        if config is not None:
            out.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
        out.write(columns + "\n")
        for row in rows:
            out.write(",".join(map(str, row)) + "\n")


# ---------------------------------------------------------------------------
# The `run` subcommand
# ---------------------------------------------------------------------------

def validate_config(cfg: dict) -> list[tuple[dict, str, dict]]:
    """Parse every job before any job runs: one (job record, check id,
    run_check keywords) triple per job, seeds and ids resolved.  Errors
    name the field."""
    _config_object(cfg, ("jobs", "seed", "output_dir"), "a config")
    jobs = cfg.get("jobs", [])
    if not isinstance(jobs, list):
        raise ConfigError("'jobs' must be a list")
    if "output_dir" in cfg:   # cmd_run gives the default
        out_dir = cfg["output_dir"]
        if not isinstance(out_dir, str) or not out_dir:   # Path("") is the working directory
            raise ConfigError(f"output_dir: expected a nonempty string, got {out_dir!r}")
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
        stem = job.get("id", f"job{idx:03d}")   # the report file is <stem>.json
        if (not isinstance(stem, str) or not stem or stem.startswith(".")
                or any(c in stem for c in ("/", os.sep, "\0"))):
            raise ConfigError(f"{where}.id: expected a file stem (a nonempty string "
                              f"with no '/', no NUL and no leading '.'), got {stem!r}")
        if stem in seen:
            raise ConfigError(f"{where}.id: duplicate id {stem!r}")
        seen.add(stem)
        params["seed"] = env_seed(params.get("seed", default_seed))
        record = {"index": idx, "id": stem, "resolved": {**job, "seed": params["seed"]}}
        parsed.append((record, check, params))
    return parsed


def _execute_job(task: tuple[dict, str, dict]) -> dict:
    record, check, params = task
    return {**verify.run_check(check, **params).to_dict(), "job": record}


def cmd_run(args) -> int:
    cfg = json.loads(Path(args.config).read_text())
    tasks = validate_config(cfg)
    out_dir = Path(args.out or cfg.get("output_dir", "concmeter-out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    workers = min(args.jobs, len(tasks))
    if workers <= 1:
        payloads = [_execute_job(t) for t in tasks]
    else:
        # the workers share the cores: each samples and projects on its
        # share of them
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=rng._set_pool_size,
                initargs=(max(1, rng._usable_cpus() // workers),)) as pool:
            payloads = list(pool.map(_execute_job, tasks))

    rows = []
    for payload in payloads:
        job = payload["job"]
        (out_dir / f"{job['id']}.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n")
        rows.append((job["id"], payload["check_id"], payload["verdict"],
                     payload["violations"]["count"],
                     payload["violations"]["worst_margin"], job["resolved"]["seed"]))
    _write_csv(out_dir / "summary.csv", None,
               "job_id,check_id,verdict,violations,worst_margin,seed", rows)
    return 2 if any(p["verdict"] == "fail" for p in payloads) else 0


# ---------------------------------------------------------------------------
# One-shot estimator subcommands
# ---------------------------------------------------------------------------

def cmd_alpha(args) -> int:
    n = args.n
    seed = env_seed(args.seed)
    measure = parse_measure(args.measure, n, args.p)
    metric = parse_norm(args.metric, n)
    eps = np.asarray(parse_eps(args.eps))
    curve = concentration_lower_curve(sample_columns(measure, args.N, seed), metric, eps)
    cfg = {"measure": measure.to_config(), "metric": metric.to_config(),
           "n": n, "N": args.N, "seed": seed, "eps": eps.tolist()}
    rows = zip(curve.eps.tolist(), curve.alpha_hat.tolist(), curve.ci.tolist(),
               curve.argmax_direction.tolist())
    _write_csv(args.out, cfg, "eps,alpha_hat,ci,direction_id_of_max", rows)
    return 0


def cmd_beta(args) -> int:
    verify._refuse(verify._median_fault({"count": args.N}))
    seed = env_seed(args.seed)
    fn = parameters.beta if args.variant == "beta" else parameters.beta_tilde
    rows = []
    cfg = {"K": args.K, "L": args.L, "measure": args.measure, "p": args.p,
           "variant": args.variant, "n": args.n, "N": args.N, "seed": seed}
    for n in args.n:
        K = parse_norm(args.K, n)
        L = parse_norm(args.L, n)
        measure = parse_measure(args.measure, n, args.p)
        est = fn(K, measure, L, count=args.N, seed=seed)
        rows.append((n, est.value, est.lam.lam, est.numerator.value,
                     est.denominator.value))
    _write_csv(args.out, cfg, "n,value,lambda,numerator,denominator", rows)
    return 0


def cmd_median(args) -> int:
    verify._refuse(verify._median_fault({"count": args.N}))
    seed = env_seed(args.seed)
    measure = parse_measure(args.measure, args.n, args.p)
    norm = parse_norm(args.norm, args.n)
    est = empirical_median(parameters.norm_values(measure, [norm], args.N, seed)[0])
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
    cfg = {"K": K.to_config(), "L": L.to_config(), "measure": measure.to_config(),
           "n": n, "N": args.N, "seed": seed}
    # the image of the batch, written chunk by chunk from the sample stream
    _write_csv(args.out, cfg, ",".join(f"x{k}" for k in range(n)),
               (row for _, rows in sample_chunks(measure, args.N, seed)
                for row in norm_ratio_map(K, L, rows).tolist()))
    return 0


def cmd_transport(args) -> int:
    n = args.n
    verify._refuse(verify._radial_fault(args.p, n))
    metric = lp(args.p, n)
    u = radial_transport(radial_cdf(ggp(args.p, n), metric),
                         radial_cdf(uniform_ball(metric), metric))
    lip = lipschitz_constant(u)
    cfg = {"p": args.p, "n": n, "lipschitz": lip}
    _write_csv(args.out, cfg, "r,u", np.column_stack([u.knots, u.values]).tolist())
    print(json.dumps({"lipschitz": lip, "n_times_lipschitz": n * lip,
                      "knots": int(u.knots.size)}, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    report = verify.run_check(args.check_id, n=args.n, count=args.N, seed=env_seed(args.seed))
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if report.verdict in ("pass", "not-applicable") else 2


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def positive_int(text: str) -> int:
    """The argparse type of ``--jobs``, ``--n`` and ``--N``, through
    :func:`verify.parse_size`, so argparse names the flag at fault."""
    try:
        return parse_size(int(text))
    except ValueError:   # ConfigError too
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}") from None


def dimension_list(text: str) -> list:
    """The comma list of positive dimensions that ``beta --n`` takes."""
    try:
        return [parse_size(int(tok)) for tok in text.split(",")]
    except ValueError:   # ConfigError too
        raise argparse.ArgumentTypeError(
            f"expected a comma list of positive integers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is an input error: exit 1, as in main; 2 means a failed check
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="concmeter", description="concentration-transfer laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a JSON config of check jobs")
    run.add_argument("config")
    run.add_argument("--out", default=None)
    run.add_argument("--jobs", type=positive_int, default=rng._usable_cpus())
    run.set_defaults(fn=cmd_run)

    # the flags that the one-shot estimators share
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--measure", required=True)
    shared.add_argument("--p", default=None)
    shared.add_argument("--seed", type=int, default=1)

    alpha = sub.add_parser("alpha", parents=[shared],
                           help="one-shot concentration curve to CSV")
    alpha.add_argument("--metric", default="l2")
    alpha.add_argument("--eps", required=True)
    alpha.add_argument("--n", type=positive_int, required=True)
    alpha.add_argument("--N", type=positive_int, default=100000)
    alpha.add_argument("--out", required=True)
    alpha.set_defaults(fn=cmd_alpha)

    beta_p = sub.add_parser("beta", parents=[shared],
                            help="beta / beta_tilde table vs n to CSV")
    beta_p.add_argument("--K", required=True)
    beta_p.add_argument("--L", required=True)
    beta_p.add_argument("--variant", choices=("beta", "beta_tilde"), default="beta")
    beta_p.add_argument("--n", type=dimension_list, required=True,
                        help="comma list of dimensions")
    beta_p.add_argument("--N", type=positive_int, default=100000)
    beta_p.add_argument("--out", required=True)
    beta_p.set_defaults(fn=cmd_beta)

    med = sub.add_parser("median", parents=[shared],
                         help="empirical median of a norm, JSON to stdout")
    med.add_argument("--norm", required=True)
    med.add_argument("--n", type=positive_int, required=True)
    med.add_argument("--N", type=positive_int, default=100000)
    med.set_defaults(fn=cmd_median)

    push = sub.add_parser("pushforward", parents=[shared],
                          help="norm-ratio image sample to CSV")
    push.add_argument("--K", required=True)
    push.add_argument("--L", required=True)
    push.add_argument("--n", type=positive_int, required=True)
    push.add_argument("--N", type=positive_int, default=10000)
    push.add_argument("--out", required=True)
    push.set_defaults(fn=cmd_pushforward)

    trans = sub.add_parser("transport", help="radial transport map to CSV")
    trans.add_argument("--p", type=float, default=1.0)
    trans.add_argument("--n", type=positive_int, required=True)
    trans.add_argument("--out", required=True)
    trans.set_defaults(fn=cmd_transport)

    ver = sub.add_parser("verify", help="run one named check with defaults")
    ver.add_argument("check_id")
    ver.add_argument("--n", type=positive_int, default=None)
    ver.add_argument("--N", type=positive_int, default=None)
    ver.add_argument("--seed", type=int, default=1)
    ver.add_argument("--out", default=None)
    ver.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        env_seed(0)   # a malformed CONCMETER_SEED fails every subcommand alike
        return args.fn(args)
    except (ValueError, verify.CheckError, OSError, MemoryError) as exc:   # ConfigError too
        # a check's fault hook names its key, which is the flag at fault: a
        # config's jobs pass every hook before any job runs
        flag = f"--{exc.key}: " if getattr(exc, "key", None) else ""
        print(f"error: {flag}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
