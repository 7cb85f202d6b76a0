"""The record tools: their configs, their per-job functions, and the
committed trust record read back through ``verify``."""

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


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trust_record = _tool("trust_record")
scale_record = _tool("scale_record")

_DEMO = {record["id"]: (check, params) for record, check, params in cli.validate_config(
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
    # verify.grid_points, and the demo-only vacuous count on top of it
    entry = TRUST["jobs"][name]
    counts = trust_record.point_counts(json.loads(_demo_payload(name)))
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


def test_scale_config_holds_the_jobs_on_record():
    # the north-star jobs whose digests the bench record holds
    record = json.loads((ROOT / "BENCH_one_reader.json").read_text())["north_star"]
    tasks = cli.validate_config(json.loads((ROOT / scale_record.CONFIG).read_text()))
    assert sorted(check for _, check, _ in tasks) == sorted(record["jobs"])
    for _, _, params in tasks:
        assert (params["n"], params["count"], params["seed"]) == (
            record["n"], record["N"], record["seed"])


def test_scale_record_runs_each_job_of_a_small_config():
    cfg = json.loads((ROOT / scale_record.CONFIG).read_text())
    for job in cfg["jobs"]:
        job.update(n=16, N=2000)
    for task in cli.validate_config(cfg):
        record, check, params = task
        row = scale_record.run_job(task)
        report = vf.run_check(check, **params)
        admitted = np.asarray(report.precondition)
        assert row["job"] == record["id"] and row["check"] == check
        assert row["sha256"] == hashlib.sha256(report.to_json().encode()).hexdigest()
        assert (row["verdict"], row["violations"]) == (report.verdict, report.violations)
        assert row["admitted"] == admitted.sum() >= row["informative"] >= 0
        assert row["first_admitted_eps"] == (
            report.eps[admitted.argmax()] if admitted.any() else None)
        assert row["wall_s"] >= 0.0 and row["peak_rss_mib"] > 0.0
        json.dumps(row)   # the child prints it as one JSON line
