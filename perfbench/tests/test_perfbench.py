"""Tests of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT / "benchmarks"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracer as tracing  # noqa: E402
from run import END_TO_END, PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, workload_specs  # noqa: E402

TINY = "0.01"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_run_reports():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS


def test_spec_sets_equal_the_harness_panels(monkeypatch):
    import _harness
    from repro.experiments import ExperimentSpec

    for workload, (figure, _backend, _workers, streamed, scale) in WORKLOADS.items():
        monkeypatch.setenv("REPRO_BENCH_SCALE", str(scale))
        ours = [ExperimentSpec.from_dict(s) for s in workload_specs(workload, 2023)]
        if streamed:
            theirs = [_harness._algorithm_spec(name) for name in ("uniform", "hybrid")]
            theirs = [replace(s, traffic=replace(s.traffic, streaming=True))
                      for s in theirs]
            assert ours[:2] == theirs
            assert ours[2].algorithm.name == "rbma"
            assert ours[2].traffic == theirs[0].traffic
        else:
            assert ours == [s.with_seed(2023) for s in _harness.figure_specs(figure)]


def test_self_times_subtract_children_once():
    spans = [
        {"pid": 1, "id": 0, "parent": None, "name": "sched.execute", "start": 0.0, "end": 10.0},
        {"pid": 1, "id": 1, "parent": 0, "name": "engine.run", "start": 1.0, "end": 9.0},
        {"pid": 1, "id": 2, "parent": 1, "name": "engine.run", "start": 2.0, "end": 8.0},
        {"pid": 1, "id": 3, "parent": 2, "name": "core.serve.rbma", "start": 3.0, "end": 7.0},
        {"pid": 2, "id": 0, "parent": None, "name": "core.serve.bma", "start": 0.0, "end": 5.0},
    ]
    own = tracing.self_times(spans)
    assert own[(1, 0)] == 2.0 and own[(1, 1)] == 2.0 and own[(1, 3)] == 4.0
    assert tracing.busy(spans, "engine.") == 8.0
    assert tracing.layer_self(spans, "simulation.engine") == 4.0
    assert [s["name"] for s in tracing.outermost(spans, "core.serve")] == [
        "core.serve.rbma", "core.serve.bma"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_prints_every_metric_and_covers_the_panel(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", "1", "--scale", TINY)
    assert proc.returncode == 0, proc.stderr
    for name, unit in {**END_TO_END, "error_rate": "fraction"}.items():
        line = next(l for l in proc.stdout.splitlines() if l.split()[:1] == [name])
        assert line.split()[2] == unit
    assert "error_rate" in proc.stdout and " 0 fraction" in proc.stdout
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER_UNITS
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_tiny_untraced_run_reports_end_to_end_metrics():
    proc = bench("--workload", "fig4-serial", "--seed", "5", "--seconds", "0",
                 "--scale", TINY)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_pin_fails_the_run(tmp_path):
    pins = tmp_path / "pins.json"
    common = ("--workload", "fig4-serial", "--seed", "2023", "--seconds", "0",
              "--scale", TINY, "--pins", str(pins))
    written = bench(*common, "--write-pins")
    assert written.returncode == 0, written.stderr
    data = json.loads(pins.read_text())
    data["workloads"]["fig4-serial"]["specs"][0]["total_routing_cost"] += 1.0
    pins.write_text(json.dumps(data))

    proc = bench(*common)
    assert proc.returncode == 1
    result = last_json(proc)
    assert not result["correct"] and result["failed"] > 0
    error_line = next(l for l in proc.stdout.splitlines() if l.split()[:1] == ["error_rate"])
    assert float(error_line.split()[1]) > 0
    assert "pinned" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "fig4-serial", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
