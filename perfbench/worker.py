"""One workload in one fresh Python process: set up, then timed passes.

Usage (from run.py): worker.py ROOT WORKLOAD SEED SECONDS TRACE TINY WORKDIR [--setup-only]

Set-up imports presdim from ROOT/src and writes the workload's configs, then
prints "ready" so the parent can time it.  A pass runs the workload's
commands in order through `presdim.cli.main` (closed loop, one command at a
time); its wall time covers the commands only, and the artifact checks run
after it; each command's (start, end) on the system-wide monotonic clock
goes into the result, so that run.py can give it at reference speed
(speed.py).  Passes repeat
until SECONDS are used.  With TRACE=1 an untimed warm-up pass comes first,
then each untraced pass is followed by a traced one.
The last stdout line is a JSON object with the per-pass results.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads


def _setup(root: Path, workload: str, seed: int, tiny: bool, workdir: Path):
    sys.path.insert(0, str(root / "src"))
    import presdim.cli  # noqa: F401  (the import every CLI call pays)

    if not Path(presdim.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"presdim imported from {presdim.__file__}, not from {root / 'src'}")
    wl = workloads.build(workload, seed, tiny)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in wl.configs.items():
        path = workdir / f"{name}.ini"
        path.write_text(text)
        paths[name] = str(path)
    return presdim, wl, paths


def _run_op(presdim, op, paths, out: Path, sink) -> int:
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return presdim.cli.main(op.argv(paths, str(out)))


def _pass(presdim, wl, paths, out_root: Path, sink) -> dict:
    """Run every op once, timing each; then check the artifacts."""
    outs = [out_root / f"{i}-{op.command}" for i, op in enumerate(wl.ops)]
    codes, spans = [], []
    for op, out in zip(wl.ops, outs):
        t0 = time.perf_counter()
        codes.append(_run_op(presdim, op, paths, out, sink))
        spans.append((t0, time.perf_counter()))
    problems, widths, artifact_bytes, failed = [], [], 0, 0
    for op, out, code in zip(wl.ops, outs, codes):
        found = workloads.check_op(op, code, out, wl.configs)
        width = workloads.root_width(out)
        if width is not None:
            widths.append(width)
        failed += bool(found)
        problems += [f"{op.command} {op.config}: {p}" for p in found]
        artifact_bytes += sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    shutil.rmtree(out_root, ignore_errors=True)
    return {
        "wall_s": sum(t1 - t0 for t0, t1 in spans),
        "spans": spans,
        "attempted": len(wl.ops),
        "failed": failed,
        "problems": problems,
        "root_width": max(widths) if widths else 0.0,
        "artifact_bytes": artifact_bytes,
    }


def _repeat(step, budget: float) -> list:
    """Call step(i) once, and again while the next call would end within 10% over budget."""
    results, durations = [], []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - t0 + statistics.median(durations) > 1.1 * budget:
            return results


def _thread_speedup(presdim, tiny: bool) -> float:
    """threads=1 time over threads=2 time of one capped-Gauss order-4 table."""
    ip = presdim.interval_partition
    bmap = ip.make_branch_map(ip.build_partition("gauss", 1000))
    cap = 8 if tiny else 32
    times = {1: [], 2: []}
    for _ in range(3):
        for threads in (1, 2):
            t0 = time.perf_counter()
            ip.cylinder_derivative_sums(bmap, 4, [1.0], alphabet_cap=cap, threads=threads)
            times[threads].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[2])


def main(argv: list[str]) -> int:
    root, workload, seed, seconds, trace, tiny, workdir = argv[:7]
    root, workdir = Path(root), Path(workdir)
    seed, seconds, trace, tiny = int(seed), float(seconds), trace == "1", tiny == "1"
    presdim, wl, paths = _setup(root, workload, seed, tiny, workdir)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    result = {"passes": [], "traced": [], "probe": None}
    with open(os.devnull, "w") as sink:
        def plain(i):
            return _pass(presdim, wl, paths, workdir / f"pass{i}", sink)

        tracer = tracing.Tracer(presdim)

        def pair(i):
            """An untraced pass, then a traced one: neighbours share the machine's state."""
            untraced = plain(i)
            tracer.install()
            try:
                traced = _pass(presdim, wl, paths, workdir / f"traced{i}", sink)
            finally:
                tracer.uninstall()
            traced["layers"] = tracing.layer_metrics(tracer)
            tracer.clear()
            return untraced, traced

        if trace:
            plain("warmup")  # untimed, so that neither pass of the first pair runs cold
            pairs = _repeat(pair, seconds)
            result["passes"] = [untraced for untraced, _ in pairs]
            result["traced"] = [traced for _, traced in pairs]
            result["thread_speedup"] = _thread_speedup(presdim, tiny)
        else:
            result["passes"] = _repeat(plain, seconds)
        if wl.probe is not None:
            out = workdir / "probe"
            code = _run_op(presdim, wl.probe, paths, out, sink)
            result["probe"] = {"command": wl.probe.argv(paths, str(out)),
                               "problems": workloads.check_op(wl.probe, code, out, wl.configs)}

    import numpy
    import scipy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
