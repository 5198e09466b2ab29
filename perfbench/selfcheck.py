"""Fast self-check of the benchmark (about a minute).

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced at tiny sizes and checks
that each run exits 0, reports correct outputs, and emits exactly the
metrics BENCHMARK.json names, each with its unit.  Only the cylinder-bowen
defaults probe may fail.  Last, it copies BENCHMARK.json and perfbench/
into a bare directory and checks that the benchmark refuses to run there.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.NAMES):
        print("BENCHMARK.json workloads differ from perfbench/workloads.py")
        return 1
    errors = []
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny")
            where = f"{name} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result, extra = json.loads(lines[-1]), json.loads(lines[-2])
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{where}: metrics {sorted(got.items())} != {sorted(expected[trace].items())}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{where}: incorrect outputs: {proc.stderr.strip()[-400:]}")
            probe_fails = extra["fail_rate"] > 0
            if probe_fails != (name == "cylinder-bowen"):
                errors.append(f"{where}: fail_rate {extra['fail_rate']}")
            print(f"ok  {where}: {len(got)} metrics, attempted {result['attempted']}")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", workloads.NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}")
        else:
            print(f"ok  bare directory: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for err in errors:
        print(f"FAIL {err}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
