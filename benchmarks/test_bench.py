"""Tests of the benchmark itself: span arithmetic, tracing, determinism.

    python3 -m pytest benchmarks/test_bench.py -q

Workloads run here at reduced sizes (``small=True``).
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times, uncovered  # noqa: E402


def test_self_time_arithmetic_on_nested_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, -1),
        Span("verify.run_check", 1.0, 4.0, 0),
        Span("rng.normals", 2.0, 3.0, 1),
        Span("measures.sample", 3.5, 6.0, 0),   # overlaps run_check: covered once
        Span("cli.main", 11.0, 12.0, -1),
    ]
    st = self_times(spans)
    assert st["cli.main"] == pytest.approx((10.0 - 5.0) + 1.0)
    assert st["verify.run_check"] == pytest.approx(2.0)
    assert st["rng.normals"] == pytest.approx(1.0)
    assert st["measures.sample"] == pytest.approx(2.5)
    assert uncovered(spans, 0.0, 13.0) == pytest.approx(2.0)
    layers = layer_metrics(spans, Counter(), 0.0, 13.0)
    assert layers["cli.self_s"] == pytest.approx(6.0)
    assert layers["verify.self_s"] == pytest.approx(2.0)
    assert layers["concentration.self_s"] == 0.0
    assert layers["unattributed_s"] == pytest.approx(2.0)


def _build(name, tmp_path, seed=3):
    return workloads.build(name, seed, tmp_path, small=True)


def _traced(run_pass):
    tracer = Tracer()
    with tracer.installed():
        outcome = run_pass()
    return outcome, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced(name, tmp_path):
    run_pass = _build(name, tmp_path)
    plain = run_pass()
    traced, tracer = _traced(run_pass)
    assert plain.failed == 0 and plain.attempted > 0, plain.errors
    assert traced.digest == plain.digest
    # patches are undone: the library's own functions are back in place
    from concmeter import measures, verify
    assert verify.sample is measures.sample
    assert not hasattr(measures.sample, "__wrapped__")
    assert tracer.spans


def test_tracer_sees_calls_inside_the_package(tmp_path):
    _, tracer = _traced(_build("beta_sweep", tmp_path))
    names = {s.name for s in tracer.spans}
    parents = {(tracer.spans[s.parent].name, s.name) for s in tracer.spans
               if s.parent >= 0}
    # rng.gammas reaches normals through rng's globals
    assert ("rng.gammas", "rng.normals") in parents
    # no curve; the only concentration call is the median of beta
    assert {n for n in names if n.startswith("concentration.")} == {
        "concentration.empirical_median"}
    metrics = layer_metrics(tracer.spans, tracer.counts, 0.0, 0.0)
    assert 0.0 < metrics["rng.gammas.accept_ratio"] <= 1.0
    assert metrics["concentration.directions"] == 0.0

    _, tracer = _traced(_build("demo", tmp_path))
    parents = {(tracer.spans[s.parent].name, s.name) for s in tracer.spans
               if s.parent >= 0}
    # verify imports sample by name
    assert ("verify.check_separated_sets", "measures.sample") in parents

    _, tracer = _traced(_build("radial_maps", tmp_path))
    metrics = layer_metrics(tracer.spans, tracer.counts, 0.0, 0.0)
    assert metrics["rng.variates"] == 0.0
    assert metrics["measures.gamma_cdf.calls"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_runs_give_identical_digests(name, tmp_path):
    first = _build(name, tmp_path)()
    second = _build(name, tmp_path)()
    assert first.digest == second.digest


def test_demo_reports_do_not_depend_on_jobs(tmp_path):
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps(workloads.demo_config(3, small=True)))
    reports = {}
    for jobs in (1, 2):
        out_dir = tmp_path / f"jobs{jobs}"
        assert workloads.run_demo_config(cfg_path, out_dir, jobs) == 0
        reports[jobs] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert reports[1] == reports[2]


def test_pass_times_every_operation(tmp_path):
    outcome = _build("beta_sweep", tmp_path)()
    assert len(outcome.times) == outcome.attempted == 3
    assert all(wall > 0.0 and cpu >= 0.0 and ref > 0.0
               for wall, cpu, ref in outcome.times.values())


def test_seed_changes_sampled_outputs(tmp_path):
    assert (_build("demo", tmp_path, seed=1)().digest
            != _build("demo", tmp_path, seed=2)().digest)


def _run_script(script, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "CONCMETER_SEED"}
    env.update(env_extra or {})
    return subprocess.run([sys.executable, str(script), "--workload", "radial_maps",
                           "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, env=env, timeout=60)


def test_refuses_concmeter_seed_in_environment():
    proc = _run_script(HERE / "run.py", {"CONCMETER_SEED": "5"})
    assert proc.returncode != 0
    assert "CONCMETER_SEED" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_sources(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's own files
    bench = tmp_path / "benchmarks"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run_script(bench / "run.py")
    assert proc.returncode != 0
    assert "no concmeter sources" in proc.stderr
    assert proc.stdout == ""
