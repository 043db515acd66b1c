"""Tests of the benchmark itself, at sizes that run in seconds.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as cli  # noqa: E402
from perfbench import suite  # noqa: E402
from perfbench.spans import LAYER_SPANS, SpanRecorder  # noqa: E402

TINY = suite.Sizes(grid_accesses=60, grid_footprint=512, sweep_accesses=30,
                   sweep_footprint=1024, warm_repeats=2, recoveries=2,
                   segment=40, recovery_footprint=512, warmup=100,
                   explore_accesses=16, explore_footprint=64,
                   setup_repeats=1)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(suite.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    report = suite.run(workload, 3, 0, trace, ROOT, sizes=TINY)
    assert report["attempted"] > 0 and report["failed"] == 0
    cli.print_report(report)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name


def test_traced_and_untraced_runs_print_the_same_digest():
    untraced = suite.run("grid", 5, 0, False, ROOT, sizes=TINY)
    traced = suite.run("grid", 5, 0, True, ROOT, sizes=TINY)
    assert untraced["digest"] == traced["digest"]
    assert suite.run("grid", 6, 0, False, ROOT,
                     sizes=TINY)["digest"] != untraced["digest"]


def test_benchmark_json_lists_the_suite_metrics():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(suite.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        suite.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        suite.per_layer_units()


def test_a_wrong_result_counts_as_a_failed_cell(monkeypatch):
    from repro.baselines.base import SecureMemoryController

    read = SecureMemoryController.read_data
    calls = []

    def wrong_once(self, block_addr):
        value = read(self, block_addr)
        calls.append(block_addr)
        return value ^ 1 if len(calls) == 1 else value

    monkeypatch.setattr(SecureMemoryController, "read_data", wrong_once)
    tally = suite.Tally()
    part = suite.GridPart(TINY, 3, tally, suite.Speedometer())
    part.unit(False)
    assert tally.attempted == len(part.specs)
    assert tally.failed == 1
    assert sum(r is None for r in part.first) == 1


def test_a_broken_recovery_counts_as_failed_and_the_run_goes_on(
        monkeypatch):
    from repro.sim.system import SecureNVMSystem

    recover = SecureNVMSystem.recover
    calls = []

    def lose_a_node(self):
        report = recover(self)
        calls.append(self.scheme)
        if len(calls) == 1:  # forget one recovered dirty node
            for offset, _node in self.controller.metacache.dirty_entries():
                self.controller.metacache.mark_clean(offset)
                break
        return report

    monkeypatch.setattr(SecureNVMSystem, "recover", lose_a_node)
    tally = suite.Tally()
    part = suite.RecoveryPart(TINY, 3, tally, suite.Speedometer())
    out = part.unit(False)
    assert tally.failed == 1
    first, *rest = suite.RECOVERABLE
    assert out[first] == [None]  # its unit stops at the failure
    assert all(None not in out[scheme] and
               len(out[scheme]) == TINY.recoveries for scheme in rest)


def test_self_time_is_duration_minus_children(tmp_path):
    import time

    recorder = SpanRecorder(tmp_path)
    inner = recorder.wrap("inner", lambda: time.sleep(0.02))
    outer = recorder.wrap("outer", lambda: (time.sleep(0.01), inner()))
    outer()
    totals = recorder.totals()
    assert totals["inner"][1] == totals["outer"][1] == 1
    assert 0.02 <= totals["inner"][0] < 0.05
    assert 0.01 <= totals["outer"][0] < 0.02
    recorder.write(tmp_path / "spans.npz")
    assert (tmp_path / "spans.npz").is_file()


def test_installing_wraps_every_copy_and_removing_restores(tmp_path):
    import repro.faults.registry as registry
    import repro.integrity.metacache as metacache

    fire = registry.fire
    recorder = SpanRecorder(tmp_path)
    with recorder.installed():
        assert registry.fire is not fire and metacache.fire is not fire
        registry.fire("controller.read")
        metacache.fire("controller.read")
    assert metacache.fire is fire and registry.fire is fire
    assert recorder.totals()["faults.fire"][1] == 2


def test_every_layer_target_exists():
    import importlib

    for _name, module, attr in LAYER_SPANS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner)


def test_without_the_program_the_run_fails_fast(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
