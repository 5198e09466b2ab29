"""Per-op cost of one benchmark workload: wall time, CPU time and minor page faults.

Usage: python3 tools/op_costs.py --src DIR --workload NAME [--seed S] [--passes N] [--tiny]

Imports `presdim` from DIR/src and runs the ops of the `perfbench/workloads.py`
workload NAME through `presdim.cli.main` in this process, N passes in a row
(default 5), with the set-up and op calls of `perfbench/worker.py`: each pass
writes its artifacts to a fresh directory, checks them with the workload's
reference checks after its last op, and deletes them.  Each op is measured by
`time.perf_counter` and `resource.getrusage(RUSAGE_SELF)` around its call.
Prints, for each op and for the whole pass, the median over the passes of its
wall time, user CPU, system CPU (all in ms) and minor page faults.  The
benchmark reports wall time only; a change that moves work into page faults
or the kernel shows here.  `perfbench/` is only imported, from the tree this
script lives in, so both runs of a comparison get the same configs:

    python3 tools/op_costs.py --src ../parent --workload partition-pressure
    python3 tools/op_costs.py --src . --workload partition-pressure

Exits 1 if an op fails its reference check.
"""
from __future__ import annotations

import argparse
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import worker  # noqa: E402
import workloads  # noqa: E402

COLUMNS = ("wall_ms", "user_ms", "sys_ms", "minflt")


def _usage() -> tuple[float, float, float, int]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return time.perf_counter() * 1e3, ru.ru_utime * 1e3, ru.ru_stime * 1e3, ru.ru_minflt


def run(src: Path, name: str, seed: int, passes: int, tiny: bool) -> tuple[list[str], list[list[tuple]], list[str]]:
    """(op labels, per-op list of per-pass cost tuples, reference-check problems)."""
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as sink:
        presdim, wl, paths = worker._setup(src, name, seed, tiny, Path(tmp))
        labels = [f"{i}-{op.command} {op.config or ''}".rstrip() for i, op in enumerate(wl.ops)]
        costs = [[] for _ in wl.ops]
        problems = []
        for p in range(passes):
            root = Path(tmp) / f"pass{p}"
            runs = []
            for i, op in enumerate(wl.ops):
                out = root / f"{i}-{op.command}"
                before = _usage()
                code = worker._run_op(presdim, op, paths, out, sink)
                costs[i].append(tuple(a - b for a, b in zip(_usage(), before)))
                runs.append((op, code, out))
            for op, code, out in runs:
                problems += [f"pass {p} {op.command} {op.config}: {msg}"
                             for msg in workloads.check_op(op, code, out, wl.configs)]
            shutil.rmtree(root)
    return labels, costs, problems


def table(labels: list[str], costs: list[list[tuple]]) -> str:
    """One row per op and one for the whole pass: the median of each column over the passes."""
    per_pass = [tuple(map(sum, zip(*op_costs))) for op_costs in zip(*costs)]
    width = max(map(len, labels + ["pass"]))
    lines = [f"{'op':<{width}}" + "".join(f"{c:>10}" for c in COLUMNS)]
    for label, rows in zip(labels + ["pass"], costs + [per_pass]):
        medians = [statistics.median(col) for col in zip(*rows)]
        lines.append(f"{label:<{width}}" + "".join(f"{m:>10.1f}" for m in medians[:3]) + f"{medians[3]:>10.0f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="source tree holding src/presdim")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--tiny", action="store_true", help="the workload's small configs")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    labels, costs, problems = run(args.src.resolve(), args.workload, args.seed, args.passes, args.tiny)
    print(table(labels, costs))
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
