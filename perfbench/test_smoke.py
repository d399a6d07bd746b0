"""Smoke test of the benchmark: every workload at the tiny size, untraced
and traced, must pass its checks and report exactly the metrics that
BENCHMARK.json names, with their units.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_KEYS = {"numpy", "blas", "blas_threads", "python", "nproc", "git_commit", "seed"}


def run_tiny(workload: str, trace: int) -> list[str]:
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_the_declared_metrics(workload, trace):
    lines = run_tiny(workload, trace)
    header = json.loads(lines[0])["env"]
    assert ENV_KEYS <= set(header)
    assert set(header["blas_threads"].values()) == {"1"}

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert not isinstance(reported["value"], bool)
