"""Command-line interface: config runs, exit codes, determinism."""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from concmeter import cli, rng


def run_cli(*argv, env=None, cwd=None):
    full_env = dict(os.environ)
    full_env.pop("CONCMETER_SEED", None)
    # the package this process imported, whatever the working directory
    full_env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), full_env.get("PYTHONPATH", "")])
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "concmeter.cli", *argv],
                          capture_output=True, text=True, env=full_env, cwd=cwd)


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


GOOD_CONFIG = {
    "seed": 3,
    "jobs": [
        {"id": "floor", "check": "cube_floor", "n": 2, "N": 20000,
         "eps": {"start": 0.1, "stop": 0.9, "num": 5}},
        {"id": "embed", "check": "sup_embedding", "n": 4, "d": 1.0,
         "N": 20000, "eps": [0.3, 0.6]},
    ],
}


def test_run_writes_reports_and_summary(tmp_path):
    cfg = write_config(tmp_path, GOOD_CONFIG)
    out = tmp_path / "out"
    res = run_cli("run", str(cfg), "--out", str(out), "--jobs", "1")
    assert res.returncode == 0, res.stderr
    assert (out / "floor.json").exists() and (out / "embed.json").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("job_id,check_id,verdict")
    assert len(summary) == 3
    payload = json.loads((out / "floor.json").read_text())
    assert payload["verdict"] == "pass"
    assert payload["job"]["resolved"]["seed"] == 3


_FORK_PROBE = """
import os, sys
import numpy as np
from concmeter import cli, concentration as con, measures as ms, normspace as ns, rng
# a 4-core host: the parent projects on 2 threads, and so does each of
# the 2 run workers, which inherit the parent's live pool through fork
os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
rng._set_pool_size(2)
data = ms.sample(ms.haar_sphere(16), 5001, seed=1).data
con.concentration_lower_curve(data, ns.lp(2, 16), np.linspace(0.1, 1.0, 5))
cfg, out = sys.argv[1:]
for jobs in ("2", "1"):
    assert cli.main(["run", cfg, "--jobs", jobs, "--out", out + jobs]) == 0
"""


def test_run_workers_fork_from_a_process_with_live_projection_threads(tmp_path):
    # an executor inherited through fork has no threads: a worker that
    # reused it would hang, so the run must finish, with the reports of
    # --jobs 1
    cfg = write_config(tmp_path, {"seed": 5, "jobs": [
        {"id": "floor", "check": "cube_floor", "n": 8, "N": 5001,
         "eps": {"start": 0.1, "stop": 0.9, "num": 5}},
        {"id": "pairs", "check": "separated_sets", "n": 16, "measure": "haar_sphere",
         "num_pairs": 40, "N": 5001},
        {"id": "ratio", "check": "norm_ratio_transfer", "n": 16, "K": "l2", "L": "l1",
         "measure": "haar_sphere", "N": 3001}]})
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("CONCMETER_SEED", None)
    probe = subprocess.Popen([sys.executable, "-c", _FORK_PROBE, str(cfg), str(tmp_path / "out")],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                             start_new_session=True)
    try:
        _, err = probe.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(probe.pid, signal.SIGKILL)     # the probe and its hung workers
        probe.communicate()
        raise
    assert probe.returncode == 0, err
    names = sorted(p.name for p in (tmp_path / "out1").iterdir())
    assert names == ["floor.json", "pairs.json", "ratio.json", "summary.csv"]
    assert names == sorted(p.name for p in (tmp_path / "out2").iterdir())
    for name in names:
        assert (tmp_path / "out2" / name).read_bytes() == (tmp_path / "out1" / name).read_bytes()


def test_benchmark_demo_config_is_the_users_demo():
    # the benchmark runs its own copy of the demo config
    root = Path(__file__).parents[1]
    assert ((root / "benchmarks" / "demo.json").read_bytes()
            == (root / "configs" / "demo.json").read_bytes())


def test_run_empty_job_list(tmp_path):
    cfg = write_config(tmp_path, {"jobs": []})
    out = tmp_path / "out"
    res = run_cli("run", str(cfg), "--out", str(out))
    assert res.returncode == 0
    assert (out / "summary.csv").read_text().splitlines()[0].startswith("job_id")


def test_run_rejects_unknown_keys(tmp_path):
    cfg = write_config(tmp_path, {"jobs": [], "extra_key": 1})
    res = run_cli("run", str(cfg))
    assert res.returncode == 1
    assert "extra_key" in res.stderr

    cfg = write_config(tmp_path, {"jobs": [{"check": "cube_floor", "n": 2,
                                            "bogus": True}]})
    res = run_cli("run", str(cfg))
    assert res.returncode == 1
    assert "bogus" in res.stderr


def test_run_rejects_unknown_family(tmp_path):
    cfg = write_config(tmp_path, {"jobs": [
        {"check": "separated_sets", "n": 4, "measure": "weibull"}]})
    res = run_cli("run", str(cfg))
    assert res.returncode == 1
    assert "weibull" in res.stderr


def test_run_rejects_missing_required(tmp_path):
    cfg = write_config(tmp_path, {"jobs": [{"check": "radial_transfer", "n": 8}]})
    res = run_cli("run", str(cfg))
    assert res.returncode == 1
    assert "'p'" in res.stderr


CUBE = {"check": "cube_floor", "n": 2, "N": 2000}
RATIO = {"check": "norm_ratio_transfer", "n": 4, "K": "l2", "L": "l1",
         "measure": "haar_sphere"}
LIP = {"check": "lipschitz_transfer", "n": 4, "measure": "gaussian",
       "map": {"kind": "identity"}, "lip": 1.0}
PAIRS = {"check": "separated_sets", "n": 4, "measure": "haar_sphere"}
SHELL = {"check": "shell_inclusion", "n": 4, "K": "l2", "L": "l1",
         "measure": "haar_sphere", "eps": 0.5}
EMBED = {"check": "sup_embedding", "n": 4, "d": 1.0}
RADIAL = {"check": "radial_transfer", "n": 16, "p": 1}


def _named(cases):
    """pytest params from ``(name, *values)`` rows.  A row's id is its name,
    then ``-`` and its last value when that is text (the field or message
    the case expects), so inserting a row renames no other test."""
    names = [name for name, *_ in cases]
    assert len(set(names)) == len(names), "case names must be unique"
    return [pytest.param(*values, id=name + (f"-{values[-1]}" if isinstance(values[-1], str)
                                             else ""))
            for name, *values in cases]


@pytest.mark.parametrize("cfg, field", _named([
    ("cfg0", {"jobs": [{**CUBE, "profile": "sphere"}]}, "jobs[0].profile"),
    ("cfg1", {"jobs": [{"check": "shell_inclusion", "n": 4, "K": "l2", "L": "l1",
                        "measure": "haar_sphere", "eps": 0.5, "profile": "sphere"}]},
     "jobs[0].profile"),
    ("cfg2", {"jobs": [{"check": "separated_sets", "n": 4, "measure": "haar_sphere",
                        "eps": [0.1, 0.2]}]}, "jobs[0].eps"),
    ("cfg3", {"seed": "x", "jobs": [CUBE]}, "seed"),
    ("cfg4", {"jobs": [{**CUBE, "n": "abc"}]}, "jobs[0].n"),
    ("cfg5", {"jobs": [{**CUBE, "N": 500.7}]}, "jobs[0].N"),
    ("cfg6", {"jobs": [{**CUBE, "measure": "uniform_ball"}]}, "jobs[0].measure"),
    ("cfg7", {"jobs": [{**RATIO, "probes": 100}]}, "jobs[0].probes"),
    ("cfg8", {"jobs": [{**RATIO, "lambda": 2.0}]}, "jobs[0].lambda"),
    ("cfg9", {"jobs": [CUBE, {"check": "separated_sets", "n": 4, "measure": "weibull"}]},
     "jobs[1].measure"),
    ("cfg10", {"jobs": [{**CUBE, "check": ["cube_floor"]}]}, "jobs[0].check"),
    ("cfg11", {"jobs": [{**CUBE, "id": "a"}, CUBE, {**CUBE, "id": "a"}]}, "jobs[2].id"),
    ("cfg12", {"jobs": [{**CUBE, "id": "job001"}, CUBE]}, "jobs[1].id"),
    ("cfg13", {"jobs": [CUBE, {**RATIO, "profile": {"name": "nope"}}]}, "jobs[1].profile"),
    ("cfg14", {"jobs": [{**RATIO, "profile": {"name": "custom", "C": 1.0}}]}, "jobs[0].profile"),
    ("cfg15", {"jobs": [{**RATIO, "profile": 3}]}, "jobs[0].profile"),
    ("cfg16", {"jobs": [CUBE, {**LIP, "map": {"kind": "rotate"}}]}, "jobs[1].map"),
    ("cfg17", {"jobs": [{**LIP, "map": {"kind": "scale"}}]}, "jobs[0].map"),
    ("cfg18", {"jobs": [{**LIP, "map": "identity"}]}, "jobs[0].map"),
    ("cfg19", {"jobs": [{**LIP, "map": {"kind": "coordinate", "index": 4}}]}, "jobs[0].map"),
    ("cfg20", {"jobs": [{**CUBE, "n": 0}]}, "jobs[0].n"),
    ("cfg21", {"jobs": [CUBE, {**RATIO, "n": -3}]}, "jobs[1].n"),
    ("cfg22", {"jobs": [{**CUBE, "N": 0}]}, "jobs[0].N"),
    ("cfg23", {"jobs": [{**LIP, "N": -1.0}]}, "jobs[0].N"),
    ("cfg24", {"jobs": [CUBE, {**PAIRS, "num_pairs": 0}]}, "jobs[1].num_pairs"),
    ("cfg25", {"jobs": [{**PAIRS, "num_pairs": -2}]}, "jobs[0].num_pairs"),
    ("cfg26", {"jobs": [{**SHELL, "probes": 0}]}, "jobs[0].probes"),
    ("cfg27", {"jobs": [{**SHELL, "probes": True}]}, "jobs[0].probes"),
    ("cfg28", {"jobs": [CUBE, {"check": "radial_transfer", "n": 16, "p": 3}]}, "jobs[1].p"),
    ("cfg29", {"jobs": [CUBE, {"check": "radial_transfer", "n": 4100, "p": 2}]}, "jobs[1].n"),
    # malformed eps grids: short strings, empty, decreasing or negative
    # grids, fractional counts and unknown scales
    ("cfg30", {"jobs": [{**CUBE, "eps": "0.1:0.9"}]}, "jobs[0].eps"),
    ("cfg31", {"jobs": [CUBE, {**CUBE, "eps": "0.1:0.9:3:lg"}]}, "jobs[1].eps"),
    ("cfg32", {"jobs": [CUBE, {**CUBE, "eps": {"start": 0.1, "stop": 0.9, "num": 0}}]},
     "jobs[1].eps"),
    ("cfg33", {"jobs": [CUBE, {**CUBE, "eps": {"start": 0.1, "stop": 0.9, "num": 1.7}}]},
     "jobs[1].eps"),
    ("cfg34", {"jobs": [CUBE, {**CUBE, "eps": {"start": 0.1, "stop": 0.9, "num": 3,
                                               "scale": "Log"}}]}, "jobs[1].eps"),
    ("cfg35", {"jobs": [CUBE, {**CUBE, "eps": [0.5, 0.1]}]}, "jobs[1].eps"),
    ("cfg36", {"jobs": [CUBE, {**CUBE, "eps": [-0.1, 0.5]}]}, "jobs[1].eps"),
    ("cfg37", {"jobs": [CUBE, {**CUBE, "eps": []}]}, "jobs[1].eps"),
    # a Lipschitz constant and a single eps must be positive
    ("cfg38", {"jobs": [CUBE, {**LIP, "lip": -1}]}, "jobs[1].lip"),
    ("cfg39", {"jobs": [CUBE, {**SHELL, "eps": -0.5}]}, "jobs[1].eps"),
    # so must an embedding's d and a radial transfer's lambda
    ("cfg40", {"jobs": [CUBE, {**EMBED, "d": 0}]}, "jobs[1].d"),
    ("cfg41", {"jobs": [CUBE, {**RADIAL, "lambda": -1}]}, "jobs[1].lambda"),
    # a measure's lp exponent is at least 1, as a norm's is
    ("cfg42", {"jobs": [CUBE, {**CUBE, "measure": "uniform_ball", "p": 0.5}]}, "jobs[1].measure"),
    ("cfg43", {"jobs": [CUBE, {**CUBE, "measure": "cone_surface", "p": "x"}]}, "jobs[1].measure"),
    # an id is the stem of a report file inside the output directory
    ("cfg44", {"jobs": [CUBE, {**CUBE, "id": 5}]}, "jobs[1].id"),
    ("cfg45", {"jobs": [CUBE, {**CUBE, "id": ""}]}, "jobs[1].id"),
    ("cfg46", {"jobs": [CUBE, {**CUBE, "id": ".hidden"}]}, "jobs[1].id"),
    ("cfg47", {"jobs": [CUBE, {**CUBE, "id": "../escaped"}]}, "jobs[1].id"),
    ("cfg48", {"jobs": [CUBE, {**CUBE, "id": "a/b"}]}, "jobs[1].id"),
    ("cfg49", {"jobs": [CUBE, {**CUBE, "id": "a\0b"}]}, "jobs[1].id"),
    # a profile object takes name, C and c, and its constants are positive
    ("cfg50", {"jobs": [CUBE, {**RATIO, "profile": {"name": "sphere", "cc": 9}}]},
     "jobs[1].profile"),
    ("cfg51", {"jobs": [CUBE, {**RATIO, "profile": {"name": "custom", "C": 0, "c": 0.25}}]},
     "jobs[1].profile"),
    ("cfg52", {"jobs": [CUBE, {**RATIO, "profile": {"name": "sphere", "c": -1}}]},
     "jobs[1].profile"),
    ("cfg53", {"output_dir": 3, "jobs": [CUBE]}, "output_dir"),
    # Path("") is the working directory
    ("cfg54", {"output_dir": "", "jobs": [CUBE]}, "output_dir"),
    ("cfg55", {"output_dir": None, "jobs": [CUBE]}, "output_dir"),
    # JSON's Infinity and NaN are no numbers a check can test with
    ("cfg56", {"jobs": [CUBE, {**PAIRS, "profile": {"name": "custom", "C": math.inf, "c": 0.5}}]},
     "jobs[1].profile"),
    ("cfg57", {"jobs": [CUBE, {**RATIO, "profile": {"name": "sphere", "c": math.inf}}]},
     "jobs[1].profile"),
    ("cfg58", {"jobs": [CUBE, {**LIP, "lip": math.inf}]}, "jobs[1].lip"),
    ("cfg59", {"jobs": [CUBE, {**LIP, "map": {"kind": "scale", "factor": math.inf}}]},
     "jobs[1].map"),
    ("cfg60", {"jobs": [CUBE, {**LIP, "map": {"kind": "scale", "factor": math.nan}}]},
     "jobs[1].map"),
    ("cfg61", {"jobs": [CUBE, {**EMBED, "d": math.inf}]}, "jobs[1].d"),
    ("cfg62", {"jobs": [CUBE, {**RADIAL, "lambda": math.inf}]}, "jobs[1].lambda"),
    ("cfg63", {"jobs": [CUBE, {**CUBE, "eps": [0.1, math.inf]}]}, "jobs[1].eps"),
    ("cfg64", {"jobs": [CUBE, {**CUBE, "eps": "0.1,inf"}]}, "jobs[1].eps"),
    # a check that takes medians needs a sample of at least MEDIAN_MIN_COUNT
    ("cfg65", {"jobs": [CUBE, {**RATIO, "N": 50}]}, "jobs[1].N"),
    ("cfg66", {"jobs": [CUBE, {**SHELL, "N": 99}]}, "jobs[1].N"),
    ("cfg67", {"jobs": [CUBE, {**RADIAL, "N": 1}]}, "jobs[1].N"),
    # a job-level p must be read by its measure token
    ("cfg68", {"jobs": [{"check": "cube_floor", "n": 8, "measure": "haar_sphere", "p": 3}]},
     "jobs[0].p"),
    ("cfg69", {"jobs": [CUBE, {**CUBE, "measure": "gaussian", "p": "inf"}]}, "jobs[1].p"),
    ("cfg70", {"jobs": [CUBE, {**CUBE, "measure": {"family": "ggp", "p": 1}, "p": 2}]},
     "jobs[1].p"),
    # and a measure object's p must be read by its family
    ("cfg71", {"jobs": [CUBE, {**CUBE, "measure": {"family": "haar_sphere", "p": 1.5}}]},
     "jobs[1].measure"),
    # a misspelled key of a measure or norm object once ran an untransformed body
    ("cfg72", {"jobs": [CUBE, {**CUBE, "measure": {"family": "uniform_ball", "p": "inf",
                                                   "transfrom": [[2, 0], [0, 2]]}}]},
     "jobs[1].measure"),
    ("cfg73", {"jobs": [CUBE, {**PAIRS, "n": 2,
                               "metric": {"p": 2, "transfrom": [[2, 0], [0, 2]]}}]},
     "jobs[1].metric"),
    # eps numbers are JSON numbers; only the CLI's text forms parse text
    ("cfg74", {"jobs": [CUBE, {**CUBE, "eps": ["0.1", "0.5"]}]}, "jobs[1].eps"),
    ("cfg75", {"jobs": [CUBE, {**CUBE, "eps": {"start": "0.1", "stop": "0.5", "num": 3}}]},
     "jobs[1].eps"),
    # a transform's entries are JSON numbers: text and booleans once read as numbers
    ("cfg76", {"jobs": [{"check": "separated_sets", "n": 2, "measure": "gaussian",
                         "metric": {"p": 2, "transform": [["2", "0"], [True, "2"]]}}]},
     "jobs[0].metric"),
    # a Lipschitz constant below the map's exact one is a false claim
    ("cfg77", {"jobs": [CUBE, {**LIP, "lip": 0.5}]}, "jobs[1].lip"),
    ("cfg78", {"jobs": [CUBE, {**LIP, "map": {"kind": "scale", "factor": 3}, "lip": 2}]},
     "jobs[1].lip"),
    ("cfg79", {"jobs": [CUBE, {**LIP, "n": 64, "map": {"kind": "coordinate"}, "lip": 0.5}]},
     "jobs[1].lip"),
    # the cube floor's measure must live on the unit cube: a body norm whose
    # body reaches at most 1 along every axis
    ("cube_gaussian", {"jobs": [CUBE, {**CUBE, "measure": "gaussian"}]}, "jobs[1].measure"),
    ("cube_ggp", {"jobs": [CUBE, {**CUBE, "measure": "ggp", "p": 1}]}, "jobs[1].measure"),
    ("cube_half_transform", {"jobs": [CUBE, {**CUBE, "measure": {
        "family": "uniform_ball", "p": "inf", "transform": [[0.5, 0], [0, 0.5]]}}]},
     "jobs[1].measure"),
]))
def test_run_malformed_config_fails_before_any_job(tmp_path, monkeypatch, capsys,
                                                   cfg, field):
    def ran(*args, **kwargs):
        raise AssertionError("a job ran before the config was validated")

    monkeypatch.delenv("CONCMETER_SEED", raising=False)
    monkeypatch.setattr(cli.verify, "run_check", ran)
    out = tmp_path / "out"
    code = cli.main(["run", str(write_config(tmp_path, cfg)), "--out", str(out),
                     "--jobs", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{field}:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cfg, message", [
    ({"jobs": [CUBE], "jobz": []},
     "a config takes no keys ['jobz']"),
    ({"jobs": [CUBE, {**CUBE, "eps": {"start": 0.1, "stpo": 0.9, "num": 3}}]},
     "jobs[1].eps: an eps grid takes no keys ['stpo']"),
    ({"jobs": [CUBE, {**RATIO, "profile": {"name": "sphere", "cc": 9}}]},
     "jobs[1].profile: a profile takes no keys ['cc']"),
    ({"jobs": [CUBE, {**LIP, "map": {"kind": "identity", "factor": 2}}]},
     "jobs[1].map: map kind 'identity' takes no keys ['factor']"),
    ({"jobs": [CUBE, {**RATIO, "K": {"p": 2, "transfrom": [[2, 0, 0, 0]] * 4}}]},
     "jobs[1].K: a norm takes no keys ['transfrom']"),
    ({"jobs": [CUBE, {**CUBE, "measure": {"family": "uniform_ball", "p": "inf",
                                          "trans": [[1, 0], [0, 1]]}}]},
     "jobs[1].measure: a measure takes no keys ['trans']"),
], ids=["config", "eps", "profile", "map", "norm", "measure"])
def test_every_config_object_refuses_an_unknown_key(tmp_path, monkeypatch, capsys,
                                                    cfg, message):
    def ran(*args, **kwargs):
        raise AssertionError("a job ran before the config was validated")

    monkeypatch.delenv("CONCMETER_SEED", raising=False)
    monkeypatch.setattr(cli.verify, "run_check", ran)
    code = cli.main(["run", str(write_config(tmp_path, cfg)), "--out",
                     str(tmp_path / "out"), "--jobs", "1"])
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert code == 1
    assert len(errors) == 1 and message in errors[0]
    assert not (tmp_path / "out").exists()


def test_run_rejects_non_positive_sizes_by_name(tmp_path, capsys):
    cfg = {"jobs": [CUBE, {**PAIRS, "num_pairs": 0}]}
    assert cli.main(["run", str(write_config(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert "jobs[1].num_pairs: expected a positive integer, got 0" in err


@pytest.mark.parametrize("eps", ["0.1:0.9", "0.1:0.9:3:lg", "0.1:0.9:1.7", "0.5,0.1", "",
                                 "0.1:x:3", "0.1,inf"])
def test_alpha_rejects_malformed_eps(tmp_path, capsys, eps):
    out = tmp_path / "a.csv"
    code = cli.main(["alpha", "--measure", "gaussian", "--eps", eps, "--n", "4",
                     "--N", "200", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and "eps grid" in err and not out.exists()


@pytest.mark.parametrize("argv, message", _named([
    ("argv0", ["alpha", "--measure", "gaussian", "--n", "4", "--eps", "0.1:x:3", "--out", "a.csv"],
     "cannot parse eps grid '0.1:x:3'"),
    ("argv1", ["alpha", "--measure", "gaussian", "--n", "4", "--eps", "0.5", "--metric", "lx",
               "--out", "a.csv"], "cannot parse norm 'lx'"),
    ("argv2", ["median", "--measure", "gaussian", "--norm", "l2", "--n", "4", "--N", "0"],
     "argument --N: expected a positive integer, got '0'"),
    ("argv3", ["beta", "--K", "l2", "--L", "l1", "--measure", "gaussian", "--n", "3,x",
               "--out", "b.csv"],
     "argument --n: expected a comma list of positive integers, got '3,x'"),
    ("argv4", ["transport", "--p", "3", "--n", "4", "--out", "t.csv"],
     "--p: the radial transfer catalog covers p in [1, 2]"),
    ("argv5", ["transport", "--p", "1", "--n", "5000", "--out", "t.csv"],
     "--n: n / p = 5000 exceeds 2048"),
    ("argv6", ["verify", "cube_floor", "--n", "x"],
     "argument --n: expected a positive integer, got 'x'"),
    ("argv7", ["verify", "cube_floor", "--n", "0"],
     "argument --n: expected a positive integer, got '0'"),
    ("argv8", ["verify", "cube_floor", "--N", "0"],
     "argument --N: expected a positive integer, got '0'"),
    ("argv9", ["run", "nope.json"], "No such file or directory: 'nope.json'"),
    ("argv10", ["alpha", "--measure", "gaussian", "--n", "4", "--N", "200", "--eps", "0.5",
                "--out", "missing/a.csv"], "No such file or directory: 'missing/a.csv'"),
    ("argv11", ["alpha", "--measure", "gaussian", "--n", "-3", "--eps", "0.5", "--out", "a.csv"],
     "argument --n: expected a positive integer, got '-3'"),
    ("argv12", ["pushforward", "--K", "l2", "--L", "l1", "--measure", "gaussian", "--n", "4",
                "--N", "2.5", "--out", "p.csv"],
     "argument --N: expected a positive integer, got '2.5'"),
    ("argv13", ["transport", "--n", "0", "--out", "t.csv"],
     "argument --n: expected a positive integer, got '0'"),
    ("argv14", ["median", "--measure", "gaussian", "--norm", "llinf", "--n", "4"],
     "cannot parse norm 'llinf'"),
    ("argv15", ["beta", "--K", "l2", "--L", "l1", "--measure", "gaussian", "--n", "3,0",
                "--out", "b.csv"],
     "argument --n: expected a comma list of positive integers, got '3,0'"),
    ("argv16", ["beta", "--K", "l2", "--L", "l1", "--measure", "gaussian", "--n", "",
                "--out", "b.csv"],
     "argument --n: expected a comma list of positive integers, got ''"),
    ("argv17", ["beta", "--K", "l2", "--L", "l1", "--measure", "gaussian", "--n", "4,,8",
                "--out", "b.csv"],
     "argument --n: expected a comma list of positive integers, got '4,,8'"),
    # a --p that the measure does not read
    ("argv18", ["median", "--measure", "gaussian", "--p", "3", "--norm", "l2", "--n", "4"],
     "gaussian reads no lp exponent p"),
    ("argv19", ["alpha", "--measure", "gaussian", "--p", "3", "--n", "4", "--eps", "0.5",
                "--out", "a.csv"], "gaussian reads no lp exponent p"),
    ("argv20", ["beta", "--K", "l2", "--L", "l1", "--measure", "gaussian", "--p", "3", "--n", "4",
                "--out", "b.csv"], "gaussian reads no lp exponent p"),
    ("argv21", ["pushforward", "--K", "l2", "--L", "l1", "--measure", "gaussian", "--p", "3",
                "--n", "4", "--out", "p.csv"], "gaussian reads no lp exponent p"),
]))
def test_malformed_invocation_exits_1_with_one_error_line(tmp_path, argv, message):
    # exit 2 is kept for a failed check; usage, input and file errors all exit 1
    res = run_cli(*argv, cwd=tmp_path)
    errors = [line for line in res.stderr.splitlines() if "error:" in line]
    assert res.returncode == 1
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in res.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_bad_jobs_fails_before_creating_out(tmp_path, jobs):
    cfg = write_config(tmp_path, {"jobs": [CUBE, {**CUBE, "id": "b"}]})
    out = tmp_path / "out"
    res = run_cli("run", str(cfg), "--out", str(out), "--jobs", jobs)
    assert res.returncode == 1
    assert f"argument --jobs: expected a positive integer, got '{jobs}'" in res.stderr
    assert not out.exists()


def test_run_accepts_profile_and_map_tokens(tmp_path):
    jobs = [{**RATIO, "profile": "sphere"},
            {**RATIO, "profile": {"name": "custom", "C": 1.0, "c": 0.25}},
            {**RATIO, "profile": None},
            {**LIP, "map": {"kind": "scale", "factor": 0.5}},
            {**LIP, "map": {"kind": "coordinate", "index": 1}, "profile": "gaussian"}]
    parsed = cli.validate_config({"jobs": jobs})
    assert [params.get("profile") for _, _, params in parsed[:3]] == [
        "sphere", {"name": "custom", "C": 1.0, "c": 0.25}, None]
    assert parsed[3][2]["map_cfg"] == {"kind": "scale", "factor": 0.5}


@pytest.mark.parametrize("argv", _named([
    ("argv0", ["run", "config.json"]),
    ("argv1", ["median", "--measure", "gaussian", "--norm", "l2", "--n", "4"]),
    ("argv2", ["alpha", "--measure", "gaussian", "--eps", "0.5", "--n", "4", "--out", "a.csv"]),
    ("argv3", ["beta", "--K", "l2", "--L", "l1", "--measure", "gaussian", "--n", "4",
               "--out", "b.csv"]),
    ("argv4", ["pushforward", "--K", "l2", "--L", "l1", "--measure", "gaussian", "--n", "4",
               "--out", "p.csv"]),
    ("argv5", ["transport", "--n", "4", "--out", "t.csv"]),
    ("argv6", ["verify", "cube_floor"]),
]))
def test_malformed_env_seed_is_named(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("CONCMETER_SEED", "x")
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, {"jobs": [CUBE]})
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "CONCMETER_SEED: expected an integer, got 'x'" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_run_passes_measure_to_cube_floor(tmp_path):
    cfg = write_config(tmp_path, {"jobs": [
        {**CUBE, "id": "edge", "measure": "cone_surface", "p": "inf"}]})
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
    payload = json.loads((out / "edge.json").read_text())
    assert payload["inputs"]["measure"]["family"] == "cone_surface"


def test_run_exit_2_on_failed_check(tmp_path):
    # a deliberately false profile (C ~ 0) makes the transfer bound fail
    cfg = write_config(tmp_path, {"jobs": [
        {"id": "doomed", "check": "norm_ratio_transfer", "n": 8, "K": "l2",
         "L": "l2", "measure": "haar_sphere", "N": 5000,
         "eps": [0.05, 0.1, 0.2],
         "profile": {"name": "custom", "C": 1e-9, "c": 0.25}}]})
    out = tmp_path / "out"
    res = run_cli("run", str(cfg), "--out", str(out))
    assert res.returncode == 2
    payload = json.loads((out / "doomed.json").read_text())
    assert payload["verdict"] == "fail"


def test_run_env_seed_override(tmp_path):
    cfg = write_config(tmp_path, {"seed": 3, "jobs": [
        {"id": "floor", "check": "cube_floor", "n": 2, "N": 5000,
         "eps": [0.2, 0.5]}]})
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    run_cli("run", str(cfg), "--out", str(out1))
    run_cli("run", str(cfg), "--out", str(out2), env={"CONCMETER_SEED": "77"})
    a = json.loads((out1 / "floor.json").read_text())
    b = json.loads((out2 / "floor.json").read_text())
    assert a["inputs"]["seed"] == 3 and b["inputs"]["seed"] == 77
    assert a["grid"]["lhs"] != b["grid"]["lhs"]


def test_run_deterministic_across_worker_counts(tmp_path):
    cfg = write_config(tmp_path, GOOD_CONFIG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli("run", str(cfg), "--out", str(out1), "--jobs", "1").returncode == 0
    assert run_cli("run", str(cfg), "--out", str(out2), "--jobs", "2").returncode == 0
    for name in ("floor.json", "embed.json", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_alpha_csv_deterministic_and_monotone(tmp_path):
    out1 = tmp_path / "a1.csv"
    out2 = tmp_path / "a2.csv"
    args = ["alpha", "--measure", "haar_sphere", "--metric", "l2", "--n", "16",
            "--N", "20000", "--eps", "0.05:1.0:8", "--seed", "5"]
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = np.loadtxt(out1, delimiter=",", skiprows=2)
    assert np.all(np.diff(data[:, 1]) <= 1e-12)
    assert out1.read_text().startswith("# config:")
    # the argmax direction is an index into the n + 32 directions, written as an int
    ids = [int(line.split(",")[3]) for line in out1.read_text().splitlines()[2:]]
    assert len(ids) == 8 and all(0 <= i < 16 + 32 for i in ids)


def test_alpha_empty_eps_usage_error(tmp_path):
    res = run_cli("alpha", "--measure", "haar_sphere", "--n", "8",
                  "--eps", "", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 1
    assert "eps" in res.stderr


def test_beta_identity_column(tmp_path):
    out = tmp_path / "b.csv"
    res = run_cli("beta", "--K", "l2", "--L", "l2", "--measure", "cone_surface",
                  "--p", "2", "--variant", "beta", "--n", "8,16",
                  "--N", "5000", "--out", str(out))
    assert res.returncode == 0, res.stderr
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert all(float(row[1]) == pytest.approx(1.0, abs=1e-9) for row in rows)


@pytest.mark.parametrize("variant", ["beta", "beta_tilde"])
def test_beta_exit_1_on_a_sample_too_small_for_its_interval(variant, tmp_path):
    out = tmp_path / "b.csv"
    res = run_cli("beta", "--K", "l2", "--L", "l1", "--measure", "haar_sphere",
                  "--variant", variant, "--n", "4", "--N", "1", "--out", str(out))
    assert res.returncode == 1
    assert "at least 100 samples" in res.stderr
    assert not out.exists()


def test_median_command_seed_override():
    base = run_cli("median", "--measure", "uniform_ball", "--p", "2",
                   "--norm", "l2", "--n", "8", "--N", "5000")
    override = run_cli("median", "--measure", "uniform_ball", "--p", "2",
                       "--norm", "l2", "--n", "8", "--N", "5000",
                       env={"CONCMETER_SEED": "99"})
    assert base.returncode == override.returncode == 0
    a, b = json.loads(base.stdout), json.loads(override.stdout)
    assert a["seed"] == 1 and b["seed"] == 99
    assert a["median"] != b["median"]


def test_transport_command(tmp_path):
    out = tmp_path / "u.csv"
    res = run_cli("transport", "--p", "1", "--n", "16", "--out", str(out))
    assert res.returncode == 0
    info = json.loads(res.stdout)
    assert info["n_times_lipschitz"] == pytest.approx(2.3528, abs=0.001)
    lines = out.read_text().splitlines()
    assert lines[1] == "r,u"


def test_pushforward_command(tmp_path):
    out = tmp_path / "img.csv"
    res = run_cli("pushforward", "--K", "l2", "--L", "l1", "--measure",
                  "haar_sphere", "--n", "4", "--N", "200", "--out", str(out))
    assert res.returncode == 0
    data = np.loadtxt(out, delimiter=",", skiprows=2)
    assert np.allclose(np.abs(data).sum(axis=1), 1.0, atol=1e-9)


# SHA-256 of the output bytes at N = 5001: one partial sample chunk at
# n = 3, four chunks (the last partial) at n = 20
FROZEN_STREAMED_OUTPUTS = {
    ("pushforward", 3): "988299adb67e2a4a36969de3b07b8defc449b352cc62a28f1d20471683179eed",
    ("pushforward", 20): "de8e414fb0fa1b0435ff967d5a35b5126429e16ecb1b0e6ca98079fe567deaee",
    ("median", 3): "37dc3dd06b39318b7bc5d8293dbce30419221cfe7457354a5cc99b5c7f879d10",
    ("median", 20): "78c09dafbd22b9207c0321ad62876b32bf143ff644070b4c3d5d1b909d51a2f6",
}


@pytest.mark.parametrize("command, n", sorted(FROZEN_STREAMED_OUTPUTS))
def test_streamed_commands_keep_their_bytes(tmp_path, command, n):
    if command == "pushforward":
        out = tmp_path / "img.csv"
        measure = ["haar_sphere"] if n == 3 else ["gaussian"]
        res = run_cli("pushforward", "--K", "l2", "--L", "l1", "--measure", *measure,
                      "--n", str(n), "--N", "5001", "--seed", "4", "--out", str(out))
        payload = out.read_bytes()
    else:
        measure = ["haar_sphere"] if n == 3 else ["ggp", "--p", "1.5"]
        res = run_cli("median", "--measure", *measure, "--norm", "l1",
                      "--n", str(n), "--N", "5001", "--seed", "4")
        payload = res.stdout.encode()
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(payload).hexdigest() == FROZEN_STREAMED_OUTPUTS[(command, n)]


@pytest.mark.parametrize("command", ["pushforward", "median"])
def test_streamed_commands_hold_no_batch(tmp_path, monkeypatch, command):
    # the image goes to the file, and the norms into their vector, chunk by
    # chunk: the peak is the norm vector and the median's sorted copy plus
    # a chunk's temporaries per stream thread, not the 5 MiB batch (0.6
    # batches in all at one thread)
    argv = {"pushforward": ["pushforward", "--K", "l2", "--L", "l1",
                            "--out", str(tmp_path / "img.csv")],
            "median": ["median", "--norm", "l1"]}[command]
    argv += ["--measure", "gaussian", "--n", "64", "--N", "10000"]
    outputs = 2 * 10000 * 8
    for threads in (1, 2):
        monkeypatch.setattr(rng, "_pool_size", threads)
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= outputs + threads * (0.6 * 10000 * 64 * 8 - outputs), threads


def test_run_sizes_its_workers_by_the_jobs_it_has(tmp_path, monkeypatch):
    # two jobs under --jobs 8 on 8 cores: two worker processes of 4 threads
    # each, not 8 processes of one; the reports are those of --jobs 1
    made = []

    class Recorder:     # runs the jobs in this process
        def __init__(self, max_workers, initializer, initargs):
            made.append((max_workers, initializer, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Recorder)
    cfg = write_config(tmp_path, GOOD_CONFIG)
    for jobs in ("8", "1"):
        assert cli.main(["run", str(cfg), "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    assert made == [(2, rng._set_pool_size, (4,))]
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == ["embed.json", "floor.json", "summary.csv"]
    for name in names:
        assert (tmp_path / "8" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

    # the default --jobs is the usable core count, not the machine's: on 2
    # of 8 cores a three-job config runs on two workers of one thread each
    made.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    three = {**GOOD_CONFIG, "jobs": GOOD_CONFIG["jobs"] + [
        {**GOOD_CONFIG["jobs"][0], "id": "floor2"}]}
    assert cli.main(["run", str(write_config(tmp_path, three)),
                     "--out", str(tmp_path / "default")]) == 0
    assert made == [(2, rng._set_pool_size, (1,))]


def test_verify_command(tmp_path):
    out = tmp_path / "rep.json"
    res = run_cli("verify", "cube_floor", "--n", "4", "--N", "20000",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "pass"
    res = run_cli("verify", "never_heard_of_it")
    assert res.returncode == 1


@pytest.mark.parametrize("argv, flag", [
    (["norm_ratio_transfer", "--N", "50"], "--N"),
    (["radial_transfer", "--n", "5000", "--N", "200"], "--n"),
])
def test_verify_names_the_flag_at_fault(capsys, monkeypatch, argv, flag):
    # the row's fault hook runs on the filled arguments before any check runs
    check = cli.verify.CHECK_SPECS[argv[0]].fn.__name__
    monkeypatch.setattr(cli.verify, check, lambda **kw: pytest.fail("the check ran"))
    assert cli.main(["verify", *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")


# SHA-256 and exit code of `concmeter verify <id> --N 2000 --out <file>`:
# each check's report with every argument but N taken from its row's default,
# recorded under numpy 2.4.6
VERIFY_REPORTS = {
    "cube_floor": (
        0, "754f58108f6c9dc73df622f76f285925e9d270c561a634cf4c6281487201c512"),
    "lipschitz_transfer": (
        0, "eb1984ea176ffb3c6acbfc9a8e27bbca0dac7618f38242bbb23117a6e7611e7e"),
    "norm_ratio_transfer": (
        0, "6d17ed034e2c248dd3e0d2aa56e86bdf87134500ac707cc61bd574318e7ff868"),
    "radial_transfer": (
        0, "f4eed8d7be24375cf8a1b10f341d5a9ec444bdbdd8ec795b6f3d1bcdb12d4574"),
    "separated_sets": (
        0, "165201912d7ed4aea6a45fe9182bd2c874cbdbd44326d047b75e8e2bccba8801"),
    "shell_inclusion": (
        0, "c770846b195c8c69fecfd3cbc1c32ebff54dd94a41874c81ef7a3fc2e874c2fa"),
    "sup_embedding": (
        0, "d25de2f5a5395e78526b60ad89b6bb95580565767ee62c64dd672a39f1f61a2c"),
}


@pytest.mark.parametrize("check_id", sorted(cli.verify.CHECK_SPECS))
def test_verify_default_report_frozen(tmp_path, check_id):
    code, digest = VERIFY_REPORTS[check_id]
    out = tmp_path / "report.json"
    res = run_cli("verify", check_id, "--N", "2000", "--out", str(out))
    assert res.returncode == code, res.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_parse_helpers():
    assert cli.parse_eps("0.1,0.2,0.3") == [0.1, 0.2, 0.3]
    grid = cli.parse_eps("0.1:1:4:log")
    assert len(grid) == 4 and grid[0] == pytest.approx(0.1)
    with pytest.raises(cli.ConfigError):
        cli.parse_eps([])
    with pytest.raises(cli.ConfigError):
        cli.parse_norm("gaussian", 4)
    assert cli.parse_norm("linf", 3).p == float("inf")
    norm = cli.parse_norm("l1.5", 6)
    assert norm.p == 1.5 and norm.dim == 6
