"""The record tool: its configs, its child's and parent's per-job functions,
and the committed trust record read back through ``verify``."""

import functools
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from concmeter import cli
from concmeter import verify as vf

ROOT = Path(__file__).resolve().parents[1]
TRUST = json.loads((ROOT / "TRUST_baseline.json").read_text())
SEED = 7

_SPEC = importlib.util.spec_from_file_location("record", ROOT / "tools" / "record.py")
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)
SCALE = ROOT / "configs" / "scale.json"

_DEMO = {rec["id"]: (check, params) for rec, check, params in cli.validate_config(
    json.loads((ROOT / "configs" / "demo.json").read_text()))}


@functools.lru_cache(maxsize=None)
def _demo_payload(name: str) -> str:
    check, params = _DEMO[name]
    assert params["seed"] == SEED
    return vf.run_check(check, **params).to_json()


def _at_seed(values: list):
    return values[TRUST["seeds"].index(SEED)]


@pytest.mark.parametrize("name", sorted(_DEMO))
def test_point_counts_reproduce_the_trust_record(name):
    # verify.grid_points, and the transfer checks' vacuous count on top of it
    entry = TRUST["jobs"][name]
    counts = record.point_counts(json.loads(_demo_payload(name)))
    assert counts == {key: _at_seed(entry[key]) for key in counts}
    assert set(counts) >= {"admitted", "informative"}


def _with_profile_c(payload: dict, factor: float) -> dict:
    edited = json.loads(json.dumps(payload))
    edited["inputs"]["profile"]["c"] *= factor
    return edited


@pytest.mark.parametrize("name", sorted(n for n, e in TRUST["jobs"].items() if "k_star" in e))
def test_a_planted_profile_fault_fails(name):
    # a profile claiming twice the recorded least failing factor k* fails,
    # and the job's own profile passes, both by restate alone
    payload = json.loads(_demo_payload(name))
    k_star = _at_seed(TRUST["jobs"][name]["k_star"]["by_seed"])
    assert vf.restate(_with_profile_c(payload, 2.0 * k_star))[5] == "fail"
    assert vf.restate(_with_profile_c(payload, 1.0))[5] == "pass"


def test_every_demo_job_with_a_profile_has_a_planted_fault():
    with_profile = {name for name in _DEMO
                    if "profile" in json.loads(_demo_payload(name))["inputs"]}
    assert with_profile == {n for n, e in TRUST["jobs"].items() if "k_star" in e}


def test_a_planted_displacement_fault_fails():
    # the shell chain's bound divided by twice k* = bound / largest displacement
    # fails, and the recorded bound passes, both by restate alone
    payload = json.loads(_demo_payload("shell_chain_n16"))
    quantities = payload["quantities"]
    k_star = quantities["displacement_bound"] / quantities["max_displacement"]
    assert k_star > 1.0
    edited = json.loads(json.dumps(payload))
    edited["quantities"]["displacement_bound"] /= 2.0 * k_star
    assert vf.restate(edited)[5] == "fail"
    assert vf.restate(payload)[5] == "pass"


# the north-star jobs whose digests the bench record holds, by id
_ON_RECORD = {"sphere_to_l1_n1024": "norm_ratio_transfer", "set_pairs_n1024": "separated_sets",
              "radial_p1_n1024": "radial_transfer"}


def test_scale_config_holds_the_jobs_on_record():
    bench = json.loads((ROOT / "BENCH_one_reader.json").read_text())["north_star"]
    tasks = {rec["id"]: (check, params) for rec, check, params in cli.validate_config(
        json.loads(SCALE.read_text()))}
    assert sorted(_ON_RECORD.values()) == sorted(bench["jobs"])
    for name, check in _ON_RECORD.items():
        assert tasks[name][0] == check
        params = tasks[name][1]
        assert (params["n"], params["count"], params["seed"]) == (
            bench["n"], bench["N"], bench["seed"])


def _small(cfg: dict) -> dict:
    for job in cfg["jobs"]:
        job.update(n=16, N=2000)
    return cfg


def test_scale_record_runs_each_job_of_a_small_config():
    # the child's job function, and the parent's row of its output
    cfg = _small(json.loads(SCALE.read_text()))
    # one job of each kind: the config holds each kind at four n
    cfg["jobs"] = list({job["id"].rsplit("_n", 1)[0]: job for job in cfg["jobs"]}.values())
    for task in cli.validate_config(cfg):
        rec, check, params = task
        row = record.row(task, record.run_job(task))
        report = vf.run_check(check, **params)
        admitted = np.asarray(report.precondition)
        assert row["job"] == rec["id"] and row["check"] == check
        assert row["sha256"] == hashlib.sha256(report.to_json().encode()).hexdigest()
        assert (row["verdict"], row["violations"]) == (report.verdict, report.violations)
        assert row["admitted"] == admitted.sum() >= row["informative"] >= 0
        assert row["first_admitted_eps"] == (
            report.eps[admitted.argmax()] if admitted.any() else None)
        assert row["wall_s"] >= 0.0 and row["peak_rss_mib"] > 0.0
        json.dumps(row)   # the parent prints it in one JSON line


def test_seeds_refuses_a_non_integer_entry(capsys):
    with pytest.raises(SystemExit) as exc:
        record.main(["--seeds", "1,x,3"])
    assert exc.value.code == 2
    assert "argument --seeds: expected a comma list of integers, got '1,x,3'" in (
        capsys.readouterr().err)


def test_the_parent_path_counts_what_an_in_process_run_counts(tmp_path, capsys):
    # each (seed, job) through a child process gives the record the same
    # reports, run in this process, give
    cfg = _small(json.loads((ROOT / "configs" / "demo.json").read_text()))
    cfg["jobs"] = [job for job in cfg["jobs"] if job["id"] in (
        "sphere_to_l1_n64", "shell_chain_n16", "set_pairs_n64", "identity_transfer_n16")]
    cfg["jobs"][-1]["profile"]["c"] = 100.0   # a false profile, so that a job fails
    config = tmp_path / "small.json"
    config.write_text(json.dumps(cfg))
    rows, trust = record.record(config, [1, 2])
    assert trust["seeds"] == [1, 2] and trust["config"] == str(config.resolve())
    assert [(row["job"], row["seed"]) for row in rows] == [
        (job["id"], seed) for seed in (1, 2) for job in cfg["jobs"]]
    for job in cfg["jobs"]:
        entry = trust["jobs"][job["id"]]
        verdicts = {}
        for at, seed in enumerate((1, 2)):
            (_, check, params), = cli.validate_config({"seed": seed, "jobs": [job]})
            report = json.loads(vf.run_check(check, **params).to_json())
            verdicts[report["verdict"]] = verdicts.get(report["verdict"], 0) + 1
            assert entry["violations"][at] == report["violations"]["count"]
            for key, value in record.point_counts(report).items():
                assert entry[key][at] == value
            if "profile" in report["inputs"]:
                assert entry["k_star"]["by_seed"][at] == record.quantiles(
                    [record.k_star(report)])["by_seed"][0]
        assert entry["check"] == check and entry["verdicts"] == verdicts
    assert trust["jobs"]["identity_transfer_n16"]["verdicts"] == {"fail": 2}
    assert "sha256" in capsys.readouterr().out
