"""perfbench/worker.py in trace mode, once per benchmark workload at its tiny sizes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_mode_smoke(tmp_path, workload):
    # seed 1, a 0.01 s budget (one pair of passes), traced, tiny
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(ROOT), workload, "1", "0.01", "1", "1",
         str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["passes"] and len(result["traced"]) == len(result["passes"])
    for run in result["passes"] + result["traced"]:
        assert run["problems"] == [] and run["failed"] == 0
    assert all(run["layers"]["cli.commands"] == run["attempted"] for run in result["traced"])
    assert result["probe"] is None or result["probe"]["problems"] == []
    assert result["thread_speedup"] > 0.0
