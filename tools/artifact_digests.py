"""SHA-256 of every artifact the benchmark workloads write, for one source tree.

Usage: python3 tools/artifact_digests.py --src DIR [--seeds 1 2 3]

Imports `presdim` from DIR/src and runs every op and the probe of each
`perfbench/workloads.py` workload (full size, each seed) through
`presdim.cli.main` in this process, then three groups that no workload has.
`lattice-walk` runs `counting` and `verify-hdim` on the rank-3 unit
lattice G43 at t_max 12 and a skewed rank-2 lattice, so the lattice walk is
compared at every rank.  `bowen-sweep` runs `bowen` on roots that reach the
Bowen sampler's power passes and exact sums, which no workload's roots do.
`selftest-trials` runs `selftest` at 1, 12 and 300 trials, whose max errors
show single-row kernel bits.
`perfbench/workloads.py` is only imported, from
the tree this script lives in, so both runs of a comparison get the same
configs.  Prints one JSON object keyed by
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
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _lattice_walk(seed: int) -> workloads.Workload:
    """`counting` and `verify-hdim` on G43 (unit axes; j 2-9 passes at radius 45) and on a skewed G32."""
    rng = random.Random(seed)
    xi43 = " ".join(repr(round(rng.uniform(-0.5, 0.5), 6)) for _ in range(3))
    xi32 = " ".join(repr(round(rng.uniform(-0.5, 0.5), 6)) for _ in range(2))
    configs = {
        "g43": ("[group]\nambient = 4\nrank = 3\nalpha_1 = 1.0 0.0 0.0\nalpha_2 = 0.0 1.0 0.0\n"
                f"alpha_3 = 0.0 0.0 1.0\n\n[orbit]\nxi = {xi43}\nradius = 45\n\n"
                "[boxdim]\nsource = orbit\nj_min = 2\nj_max = 9\n\n[counting]\nt_max = 12.0\nlevels = 50\n"),
        "skew32": ("[group]\nambient = 3\nrank = 2\nalpha_1 = 1.0 0.0\nalpha_2 = 0.3 0.9\n\n"
                   f"[orbit]\nxi = {xi32}\nradius = 200\n\n[boxdim]\nsource = orbit\nj_min = 4\nj_max = 12\n\n"
                   "[counting]\nt_max = 25.0\nlevels = 50\n"),
    }
    ops = tuple(workloads.Op(command, cfg, "") for cfg in configs for command in ("counting", "verify-hdim"))
    return workloads.Workload(configs, ops)


def _bowen_sweep(seed: int) -> workloads.Workload:
    """`bowen` on roots that take power passes or exact sums, the same for every seed.

    Linear: dyadic-1000 over t 0.5..1.5 at tol 1e-12, whose lower curve sums to 1 - 2^-1000 at t = 1
    and needs an exact sum there, and oscillating from t = 0.49, where the series converges with no
    certified upper tail, so that curve is inf.  Cylinder: dyadic-60 at order 3 over t 0.5..1.5, whose
    D_w are powers of 2 that sum to 1 - 3 2^-60 on both sides at t = 1 (exact sums), E_2 at order 12
    with tol 1e-12, capped Gauss (cap 8) at order 3, and gauss-restricted 10..73 at order 3.
    """
    bowen = "\n\n[bowen]\nmethod = "
    configs = {
        "dyadic-linear": f"[partition]\ngenerator = dyadic\ntruncation = 1000{bowen}linear\ntol = 1e-12\n"
                         "t_low = 0.5\nt_high = 1.5\n",
        "oscillating-linear": f"[partition]\ngenerator = oscillating{bowen}linear\nt_low = 0.49\nt_high = 1.5\n",
        "dyadic-cylinder": f"[partition]\ngenerator = dyadic\ntruncation = 60{bowen}cylinder\norder = 3\n"
                           "tol = 1e-6\nt_low = 0.5\nt_high = 1.5\n",
        "e2": f"[partition]\ngenerator = gauss-restricted\ndigits = 1 2{bowen}cylinder\norder = 12\ntol = 1e-12\n",
        "capped-gauss": f"[partition]\ngenerator = gauss\ntruncation = 1000{bowen}cylinder\norder = 3\n"
                        "alphabet_cap = 8\ntol = 1e-9\n",
        "gauss-restricted": f"[partition]\ngenerator = gauss-restricted\n"
                            f"digits = {' '.join(map(str, range(10, 74)))}{bowen}cylinder\norder = 3\ntol = 1e-9\n",
    }
    return workloads.Workload(configs, tuple(workloads.Op("bowen", cfg, "") for cfg in configs))


def _selftest_trials(seed: int) -> workloads.Workload:
    """`selftest` at 1, 12 and 300 trials, the same for every seed: the max errors of small samples
    show the last bits of single rows, which the 10,000-trial default can hide."""
    configs = {f"trials-{n}": f"[selftest]\ntrials = {n}\n" for n in (1, 12, 300)}
    return workloads.Workload(configs, tuple(workloads.Op("selftest", cfg, "") for cfg in configs))


_GROUPS = {"lattice-walk": _lattice_walk, "bowen-sweep": _bowen_sweep, "selftest-trials": _selftest_trials}


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
            for name in (*workloads.NAMES, *_GROUPS):
                wl = _GROUPS[name](seed) if name in _GROUPS else workloads.build(name, seed)
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
