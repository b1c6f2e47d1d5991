"""Smoke test of the benchmark itself: tiny seeded runs of every workload.

Run from the root of a checkout with ``python -m pytest bench/test_smoke.py``.
It checks that every named metric is reported with its unit, that the
correctness counters are present, that the traced run puts every wrapped
attribute back, and that the command refuses to run without the package
source.  It has no wall-clock thresholds.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

run.use_checkout_source()


def _attributes() -> dict:
    return {(m, a): getattr(importlib.import_module(m), a, None) for m, a, _ in spans.TARGETS}


def test_declared_metrics_match_the_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    before = _attributes()
    res = run.measure(workload, seed=3, seconds=0.01, trace=trace, setup_repeats=1)
    after = _attributes()
    assert all(after[key] is value for key, value in before.items())

    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in res["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert res["correct"] is True
    checks = res["details"]["checks"]
    for key in ("failed_share", "wrong_points", "corner_wrong_points", "corner_aborts"):
        assert key in checks
    assert checks["wrong_points"] >= checks["corner_wrong_points"]


def test_command_prints_result_last():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "landscape", "--seed", "5",
         "--seconds", "0.01", "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_command_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "landscape", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
