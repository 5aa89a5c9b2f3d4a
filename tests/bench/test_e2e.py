"""The end-to-end benchmark in ``benchmarks/e2e``, at reduced sizes.

Every workload runs and passes its output checks; metric names are
well formed; ``BENCHMARK.json`` and the runner declare the same
workloads and metrics; a traced repetition reproduces the untraced
modeled and virtual-clock results and puts back every attribute it
patched; a planted wrong result makes the run exit non-zero.
"""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "benchmarks" / "e2e"

_spec = importlib.util.spec_from_file_location("e2e_run", BENCH / "run.py")
run = sys.modules["e2e_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)
suite = run._import_suite()
from probes import LayerClock, Probe  # noqa: E402  (benchmarks/e2e)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def small(name):
    """The named workload shrunk to well under a second per input set."""
    spec = suite.WORKLOADS[name]
    if isinstance(spec, suite.Replay):
        return replace(spec, key_range=min(spec.key_range, 4096),
                       n_ops=1500)
    load = replace(spec.config.load, n_requests=300,
                   key_range=min(spec.config.load.key_range, 4096))
    return replace(spec, samples=2, config=replace(spec.config, load=load))


@pytest.mark.parametrize("name", sorted(suite.WORKLOADS))
def test_every_workload_runs(name):
    res = run.measure(small(name), 7, seconds=0)
    assert res["correct"], res["errors"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(values) == [m.name for m in run.END_TO_END]
    assert all(v > 0 for v in values.values()), values


def test_metric_names_and_units():
    names = [m.name for m in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    for m in run.END_TO_END + run.PER_LAYER:
        assert NAME.match(m.name), m.name
        assert UNIT.match(m.unit), m.unit
        assert m.better in ("higher", "lower")
    for m in run.END_TO_END:
        assert 0 < m.bound <= 0.25
    setup = run.METRICS["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in run.END_TO_END)
    assert set(suite.SELF_TIME_METRICS.values()) <= set(run.METRICS)


def test_benchmark_json_agrees_with_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert doc["paths"] == ["benchmarks/e2e", "tests/bench"]
    assert doc["run_seconds"] == run.DEFAULT_SECONDS
    assert doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in suite.WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in run.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in run.PER_LAYER]


def _current(owner, name):
    if isinstance(owner, type):
        return vars(owner).get(name, Probe._MISSING)
    return getattr(owner, name)


@pytest.mark.parametrize("name", sorted(suite.WORKLOADS))
def test_trace_keeps_results_and_restores_patches(name):
    spec = small(name)
    plain = suite.run_rep(spec, 3)
    clock, counts = LayerClock(), suite.TraceCounts()
    with Probe() as probe:
        suite.install_trace(probe, clock, counts)
        patched = list(probe._saved)
        traced = suite.run_rep(spec, 3, clock=clock)
    assert traced.errors == []
    assert traced.digest == plain.digest
    assert traced.model == plain.model
    assert traced.latency == plain.latency
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, (owner, attr)
    assert clock.total_self_s() <= traced.wall_s
    assert set(traced.layers) <= set(run.METRICS)


def test_traced_run_reports_every_layer_metric():
    res = run.measure(small("serve-scan"), 5, seconds=0, trace=True)
    assert res["correct"], res["errors"]
    assert list(res["metrics"]) == [m.name for m in run.PER_LAYER]
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert values["core.range_tx_per_query"] > 0
    assert values["serve.latency_samples"] == 300
    assert values["bench.other_s"] >= 0


def test_latency_recorder_leaves_the_campaign_unchanged():
    spec = small("serve-overload")
    cfg = spec.config_for(11)
    bare = suite.run_serve_campaign(cfg)
    rep = suite.serve_rep(spec, 11)
    assert rep.digest[0] == tuple(sorted(bare.stats.counters().items()))
    assert rep.digest[1] == bare.total_steps
    assert sum(rep.latency.values()) == bare.stats.completed


def _flip_first(result):
    result.results[0] = not result.results[0]
    return result


@pytest.mark.parametrize("name,owner,attr", [
    ("replay-mixed", "VectorizedBackend", "execute"),
    ("replay-interleaved", "InterleavedBackend", "execute"),
    ("serve-scan", "ShardedMap", "execute_batch"),
])
def test_planted_wrong_result_fails_the_run(name, owner, attr, monkeypatch,
                                            capsys):
    cls = {"VectorizedBackend": suite.vectorized.VectorizedBackend,
           "InterleavedBackend": suite.InterleavedBackend,
           "ShardedMap": suite.ShardedMap}[owner]
    original = getattr(cls, attr)
    monkeypatch.setattr(cls, attr, lambda *a, **k: _flip_first(
        original(*a, **k)))
    monkeypatch.setitem(suite.WORKLOADS, name, small(name))
    status = run.main(["--workload", name, "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert last["correct"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for rel in ("benchmarks/e2e", "tests/bench"):
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "replay-mixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_compare_verdicts():
    wall = run.METRICS["wall_ops_per_s"]          # higher is better, 25%
    model = run.METRICS["goodput_mops"]
    same = [100.0, 101.0, 99.0, 100.5]
    assert run.verdict(model, same, same, list(zip(same, same))) == \
        "identical"
    assert run.verdict(wall, same, [99.0, 100.0, 98.5, 99.5],
                       list(zip(same, same))) == "within"
    assert run.verdict(wall, same, [70.0, 71.0, 69.0, 70.5], []) == "worse"
    # A gain needs ten pairs; fewer only show it is no regression.
    assert run.verdict(wall, same, [130.0, 131.0, 129.0, 130.5], []) == \
        "within"
    noisy = [50.0, 150.0, 70.0, 130.0]
    assert run.verdict(wall, noisy, noisy, []) == "unresolved"
    assert run.verdict(wall, noisy, [160.0, 170.0, 165.0, 161.0], []) == \
        "within"
    b = [x * 1.05 for x in same * 3]
    pairs = list(zip(same * 3, b))
    assert run.verdict(wall, same * 3, b, pairs) == "better"
