"""Smoke test of the benchmark itself: one minimal run of each workload, traced and not.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_smoke.py

Each run must exit 0, end with the result line, pass every output check
(the default seed is checked against bench/expected.json) and emit
exactly the metrics BENCHMARK.json names, with their units.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert "digests checked against bench/expected.json: yes" in lines
    assert any(line.startswith("metric error_rate 0.0 ") for line in lines)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_record_holds_environment(tmp_path):
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline-csv", "--seconds", "1",
         "--out", str(out)], cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert set(record["env"]) == {"python", "numpy", "nproc", "platform"}
    assert record["commit"] and len(record["config_sha256"]) == 64
    assert record["digests"] == json.loads(
        open(os.path.join(BENCH, "expected.json")).read())["pipeline-csv"]["0"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
