"""Smoke tests for the campaign benchmark, each workload shrunk to seconds.

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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 1


def run_bench(workload: str, trace: int, digests: Path, *extra: str, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke",
         "--digests", str(digests), *extra],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("perfbench") / "digests.json"
    for workload in WORKLOADS:
        proc = run_bench(workload, 0, path, "--record")
        assert proc.returncode == 0, proc.stderr
    return path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace, digests):
    proc = run_bench(workload, trace, digests)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']}: ") and f" {m['unit']} " in line
                   for line in lines), m["name"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize(
    "workload, part, layer",
    [
        ("napa-scale", "transfers", "streaming"),
        ("resume-analysis", "transfers", "trace"),
        ("legacy-campaign", "flows", "trace"),
        ("napa-scale", "analysis", "core"),
        ("legacy-campaign", "report", "report"),
    ],
)
def test_corrupted_recorded_digest_fails_the_run(workload, part, layer, digests, tmp_path):
    recorded = json.loads(digests.read_text(encoding="utf-8"))
    entry = recorded[workload][str(SEED)]
    key = part if part == "report" else sorted(k for k in entry if k.endswith(f"/{part}"))[0]
    entry[key] = "0" * 64
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(recorded), encoding="utf-8")

    proc = run_bench(workload, 0, corrupted)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    app = key.split("/")[0] if part != "report" else "pplive"
    assert any(line.startswith(f"FAILED {app}: {layer} output differs") for line in lines)


def test_fails_without_the_program(tmp_path, digests):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, digests, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
