"""Tests of the benchmark itself, at tiny shapes.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import harness
import layers

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, **changes):
    return dataclasses.replace(
        harness.WORKLOADS[name], duration_s=1.0, iterations=3, n_bases=2, **changes
    )


@pytest.fixture(scope="module")
def probe():
    return harness.SpeedProbe()


def run_tiny(wl, trace, tmp_path, probe):
    lines = []
    args = argparse.Namespace(seed=3, seconds=0.01, trace=trace)
    code = harness.run(wl, args, tmp_path, emit=lines.append, min_samples=4, probe=probe)
    return code, [json.loads(line) for line in lines]


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(name, trace, kind, tmp_path, probe):
    code, lines = run_tiny(tiny(name), trace, tmp_path, probe)
    result = lines[-1]
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_run_counts_two_separations_per_iteration_plus_one(tmp_path, probe):
    wl = tiny("paper_quartic")
    _, lines = run_tiny(wl, 1, tmp_path, probe)
    calls = lines[-1]["metrics"]["pipeline.separate_calls"]["value"]
    assert calls == 2 * wl.iterations + 1


def test_all_zero_clip_lands_in_fail_frac(tmp_path, probe):
    wl = tiny("clips_ip", gains_db=(float("-inf"), 0.0))
    code, lines = run_tiny(wl, 0, tmp_path, probe)
    result, summary = lines[-1], lines[-2]["summary"]
    assert code == 0 and result["correct"] is True
    assert result["failed"] >= 1
    assert summary["fail_frac"]["value"] == result["failed"] / result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1.0 - summary["fail_frac"]["value"])


def test_ladder_counts_are_fixed_by_seconds_for_any_seed(tmp_path, probe):
    wl = dataclasses.replace(harness.WORKLOADS["clips_ip"], iterations=3)  # full-size clips
    passes = 2
    seconds = passes * harness.LADDER_PASS_S
    for seed in (3, 4):
        runner = harness.Runner(wl, tmp_path, probe=probe)
        phase = harness.run_phase(runner, seed, seconds, 0, float("inf"))
        assert phase.attempted == passes * len(wl.gains_db)
        assert phase.failed == passes * sum(g <= -20.0 for g in wl.gains_db)


def test_corrupted_cost_trace_trips_the_descent_check():
    costs = json.loads(harness.REFERENCE_FILE.read_text())["paper_quartic"]
    assert harness.descent_violations(costs) == []
    corrupted = list(costs)
    k = len(corrupted) // 2
    # A rise of 1.0, the fault `ggdilrma benchmark --inject-fault` plants in a trace.
    corrupted[k] = corrupted[k - 1] + 1.0
    assert harness.descent_violations(corrupted) == [k + 1]
    wl = harness.WORKLOADS["paper_quartic"]
    with pytest.raises(harness.CheckFailed, match="cost increased"):
        harness.check(harness.Outcome(ok=True, costs=corrupted), wl)


def test_failed_check_fails_the_run(tmp_path, monkeypatch, probe):
    def planted(out, wl):
        raise harness.CheckFailed("planted")

    monkeypatch.setattr(harness, "check", planted)
    code, lines = run_tiny(tiny("paper_quartic"), 0, tmp_path, probe)
    assert code == 1
    assert lines[-1]["correct"] is False


def test_missing_layer_is_reported_absent_and_wrappers_are_removed():
    module = types.SimpleNamespace(separate=lambda xd, W: xd)
    original = module.separate
    tracer = layers.Tracer()
    tracer.install({"pipeline": module})
    assert "pipeline.iteration_step" in tracer.absent
    assert "pipeline.separate" not in tracer.absent
    module.separate(1, 2)
    assert [s.name for s in tracer.spans] == ["pipeline.separate"]
    tracer.uninstall()
    assert module.separate is original


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "clips_ip", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
