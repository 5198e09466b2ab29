"""SHA-256 of every artifact the benchmark workloads write, for one source tree.

Usage: python3 tools/artifact_digests.py --src DIR [--seeds 1 2 3]

Imports `presdim` from DIR/src and runs every op and the probe of each
`perfbench/workloads.py` workload (full size, each seed) through
`presdim.cli.main` in this process.  `perfbench/workloads.py` is only
imported, from the tree this script lives in, so both runs of a comparison
get the same configs.  Prints one JSON object keyed by
"seed/workload/index-command-config" with each op's exit code, its stdout
(the temporary directory replaced by "<tmp>"), the sha256 of each file it
wrote, and for each CSV file the sha256 of its values: the little-endian
float64 bytes of every numeric cell, header skipped.  A refactor that keeps
the CLI's output shows no difference between two trees, and a change of
number format alone changes a byte digest but not the values digest:

    diff <(python3 tools/artifact_digests.py --src ../parent) \\
         <(python3 tools/artifact_digests.py --src .)
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _digests(out: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def _values_digest(path: Path) -> str:
    values = []
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            with contextlib.suppress(ValueError):
                values.append(float(cell))
    return hashlib.sha256(np.array(values, dtype="<f8").tobytes()).hexdigest()


def run(cli, seeds: list[int]) -> dict[str, dict]:
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for name in workloads.NAMES:
                wl = workloads.build(name, seed)
                root = Path(tmp) / f"{seed}-{name}"
                root.mkdir()
                paths = {}
                for cfg, text in wl.configs.items():
                    paths[cfg] = str(root / f"{cfg}.ini")
                    Path(paths[cfg]).write_text(text)
                ops = wl.ops + ((wl.probe,) if wl.probe is not None else ())
                for i, op in enumerate(ops):
                    key = f"{i}-{op.command}-{op.config}"
                    out = root / key
                    stdout = io.StringIO()
                    with contextlib.redirect_stdout(stdout):
                        code = cli.main(op.argv(paths, str(out)))
                    entries[f"{seed}/{name}/{key}"] = {
                        "exit": code,
                        "stdout": stdout.getvalue().replace(tmp, "<tmp>"),
                        "artifacts": _digests(out) if out.is_dir() else {},
                        "values_sha256": {
                            str(path.relative_to(out)): _values_digest(path) for path in sorted(out.rglob("*.csv"))
                        } if out.is_dir() else {},
                    }
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="source tree holding src/presdim")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    src = (args.src / "src").resolve()
    sys.path.insert(0, str(src))
    import presdim.cli

    if not Path(presdim.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"presdim imported from {presdim.cli.__file__}, not from {src}")
    json.dump(run(presdim.cli, args.seeds), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
