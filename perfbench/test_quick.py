"""The benchmark's own test: quick mode keeps every check and the contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _result(_run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _result(_run(workload, 1))
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    trace = HERE / "out" / f"trace-{workload}-3.jsonl"
    lines = trace.read_text().splitlines()
    assert "summary" in json.loads(lines[0])
    spans = [json.loads(line) for line in lines[1:]]
    assert spans and all(s["op"] > 0 for s in spans
                         if s["name"].startswith("client/"))


def test_same_seed_repeats_every_count():
    first, second = (_run("serve-churn", 0).stdout for _ in range(2))
    notes = [[line for line in out.splitlines()
              if line.startswith("# updates") or line.startswith("# epochs")]
             for out in (first, second)]
    assert notes[0] and notes[0] == notes[1]
    ratio = [json.loads(out.splitlines()[-1])["metrics"]["coarse_edge_ratio"]
             for out in (first, second)]
    assert ratio[0] == ratio[1]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
