"""presdim benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Each run starts fresh single-client Python
processes (perfbench/worker.py) that import presdim from ./src: eight that
only set up (four before the workload, four after) and one that also runs
the workload's commands through `presdim.cli.main` in a closed loop, with
numeric libraries capped to one thread (`--threads 2` cylinder runs add one
pool thread).  A speed sampler (speed.py) follows each of them in turn.

--trace 0 reports the end-to-end metrics: setup_s (median of the nine
set-ups: process start to presdim imported and configs written), wall_ref_s
(median pass time of the command sequence) and peak_rss_mb.  Both times are
at reference speed: scaled by the machine speed sampled while they ran, see
speed.py.  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics, among them the raw median pass time wall_s.  Both
print the environment, then the workload's wall_s, fail_rate and
root_width, then as last line the JSON result.
`--workload all` runs every workload in both modes and prints a table.

`attempted`/`failed` count the workload's commands; a command fails when its
exit code or its artifact check is wrong.  The cylinder-bowen defaults probe
(a known defect) is counted in fail_rate only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 9
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "wall_s": "s",
    "fail_rate": "ratio",
    "root_width": "1",
    "trace.overhead_s": "s",
    "boxdim.cover_sphere_s": "s",
    "boxdim.cover_sphere_calls": "count",
    "boxdim.points_per_s": "1/s",
    "boxdim.cloud_build_s": "s",
    "boxdim.cloud_points": "count",
    "boxdim.cover_line_s": "s",
    "boxdim.gap_bounds_s": "s",
    "boxdim.saturated_levels": "count",
    "numerics.sum_s": "s",
    "numerics.sum_calls": "count",
    "numerics.sum_terms": "count",
    "numerics.terms_per_s": "1/s",
    "interval_partition.cylinder_sums_s": "s",
    "interval_partition.cylinder_sums_calls": "count",
    "interval_partition.cylinder_words": "count",
    "interval_partition.thread_speedup": "ratio",
    "interval_partition.build_s": "s",
    "interval_partition.build_calls": "count",
    "interval_partition.verdict_calls": "count",
    "pressure.self_s": "s",
    "pressure.curve_evals": "count",
    "hyperbolic.scalar_s": "s",
    "hyperbolic.scalar_calls": "count",
    "hyperbolic.us_per_scalar_call": "us",
    "hyperbolic.orbit_s": "s",
    "hyperbolic.orbit_points": "count",
    "poincare.partial_s": "s",
    "poincare.lattice_terms": "count",
    "poincare.exponent_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "B",
    "cli.commands": "count",
}
# numeric libraries get one thread each, so a run uses at most two
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def _spawn(args: argparse.Namespace, workdir: Path, setup_only: bool, deadline: float, sampler):
    """Start a worker, followed by `sampler`; return (process, its set-up (start, end), watchdog)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), args.workload, str(args.seed),
           str(args.seconds), str(args.trace), "1" if args.tiny else "0", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_CAPS)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    sampler.follow(proc.pid)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup = (t0, time.perf_counter())
    if line.strip() != "ready":
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise RunError(f"worker did not set up (got {line!r}, exit {proc.poll()})")
    return proc, setup, watchdog


def _finish(proc, watchdog) -> str:
    try:
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise RunError(f"worker exited with {code}")
    return out


def _measure(args: argparse.Namespace) -> tuple[list[float], list[float], dict]:
    """Raw set-up times, set-up times at reference speed, and the worker's result.

    Passes in the result gain `wall_ref_s`, their time at reference speed.
    """
    deadline = time.monotonic() + DEADLINE_S
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    with speed.Sampler() as sampler:
        def setup_only(i: int) -> tuple[float, float]:
            proc, setup, watchdog = _spawn(args, workdir / f"setup{i}", True, deadline, sampler)
            _finish(proc, watchdog)
            return setup

        try:
            # half the set-ups before the workload and half after: a vCPU's
            # speed changes from second to second, so the median draws on more states
            setups = [setup_only(i) for i in range(SETUP_REPS // 2)]
            proc, setup, watchdog = _spawn(args, workdir / "run", False, deadline, sampler)
            setups.append(setup)
            out = _finish(proc, watchdog)
            setups += [setup_only(i) for i in range(SETUP_REPS // 2, SETUP_REPS - 1)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        samples = sampler.stop()
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    res = json.loads(lines[-1])
    for p in res["passes"] + res["traced"]:
        p["wall_ref_s"] = sum(speed.at_reference(samples, t0, t1) for t0, t1 in p.pop("spans"))
    res["speed"] = {"samples": len(samples), "median_kernel_s": statistics.median(k for _, k in samples)}
    return [t1 - t0 for t0, t1 in setups], [speed.at_reference(samples, *s) for s in setups], res


def _median(values) -> float:
    return float(statistics.median(values))


def _environment(args, versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None  # a checkout without .git has no commit; src_sha256 identifies the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "presdim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        **versions, "commit": commit, "src_sha256": src.hexdigest(),
    }


def run_one(args: argparse.Namespace) -> int:
    setups, setups_ref, res = _measure(args)
    passes, traced = res["passes"], res["traced"]
    every = passes + traced
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    for p in every:
        for problem in p["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    probe = res["probe"]
    probe_failed = int(bool(probe and probe["problems"]))
    if probe_failed:
        print(f"known-defect probe failed: {' '.join(probe['command'])}: {probe['problems']}", file=sys.stderr)
    fail_rate = (failed + probe_failed) / (attempted + (probe is not None))
    width = max(p["root_width"] for p in every)
    wall = _median(p["wall_s"] for p in passes)

    if args.trace:
        layers = {k: _median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        values = {
            "wall_s": wall,
            "fail_rate": fail_rate,
            "root_width": width,
            "trace.overhead_s": _median(t["wall_ref_s"] - p["wall_ref_s"] for p, t in zip(passes, traced)),
            "interval_partition.thread_speedup": res["thread_speedup"],
            "cli.artifact_bytes": _median(p["artifact_bytes"] for p in traced),
            **layers,
        }
        units = PER_LAYER
    else:
        values = {
            "setup_s": _median(setups_ref),
            "wall_ref_s": _median(p["wall_ref_s"] for p in passes),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"env": _environment(args, res["versions"])}))
    print(json.dumps({"pass_walls": [p["wall_s"] for p in passes], "pass_ref_walls": [p["wall_ref_s"] for p in passes],
                      "traced_walls": [p["wall_s"] for p in traced], "setups": setups,
                      "setups_ref": setups_ref,
                      "speed": res.get("speed"), "wall_s": wall, "fail_rate": fail_rate,
                      "root_width": width}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced; a table of every metric."""
    worst = 0
    for name in workloads.NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                worst = max(worst, proc.returncode)
                continue
            lines = proc.stdout.strip().splitlines()
            result, extra = json.loads(lines[-1]), json.loads(lines[-2])
            print(f"{name} trace={trace} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} passes={len(extra['pass_walls'])}+{len(extra['traced_walls'])}")
            if trace == 0:
                for key in ("wall_s", "fail_rate", "root_width"):
                    print(f"  {key:40s} {extra[key]:>16.6g} {PER_LAYER[key]}")
            for key, m in result["metrics"].items():
                print(f"  {key:40s} {m['value']:>16.6g} {m['unit']}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "presdim" / "cli.py").is_file():
        print(f"error: no presdim sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
