"""tools/op_costs.py runs a workload's ops and prints one cost row per op."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_op_costs_smoke_on_tiny_cylinder_bowen():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_costs.py"), "--src", str(ROOT),
         "--workload", "cylinder-bowen", "--tiny", "--passes", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["op", "wall_ms", "user_ms", "sys_ms", "minflt"]
    assert [row.split()[0] for row in rows] == ["0-bowen", "1-bowen", "2-selftest", "pass"]
    for row in rows:
        wall, user, system, faults = map(float, row.split()[-4:])
        assert wall > 0.0 and user >= 0.0 and system >= 0.0 and faults >= 0.0
