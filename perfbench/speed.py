"""The machine's speed while presdim runs, and times at reference speed.

On a shared host a vCPU runs the same code up to 1.6x slower for a second
or more at a time, as other tenants come and go, and the two vCPUs of one
machine do not slow down together.  Raw timings of a run therefore spread
past a useful bound.  `Sampler` starts a child process (this file run as a
script) that, ten times a second, moves to the vCPU where the process it
follows last ran and times a fixed kernel there.  `at_reference` turns an
interval of that process into its time at reference speed: the interval's
length times the mean of REFERENCE_S / kernel time over the samples taken in
it.  The slowdowns hit interpreted Python about twice as hard as numpy array
work, and presdim does both, so the kernel is half an integer loop and half
in-place numpy sorts.  It is benchmark code on fixed data, so no change to
presdim can move it; it takes about 2% of the followed process's vCPU.
"""
from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

# about the kernel's CPU time on a 2.1 GHz Xeon vCPU; only the scale of the
# reported times depends on it
REFERENCE_S = 0.0022
INTERVAL_S = 0.1
_ITERATIONS = 15_000
_SORTS = 3
_DATA = np.random.default_rng(0).random(50_000)
_BUFFER = np.empty_like(_DATA)


def kernel_s() -> float:
    """CPU time of a fixed integer loop plus a few in-place sorts of fixed data.

    CPU time, not wall time: on the followed process's vCPU the kernel is
    sometimes preempted by that process, and the wait says nothing about speed.
    """
    t0 = time.thread_time()
    s = 0
    for i in range(_ITERATIONS):
        s += i * i
    for _ in range(_SORTS):
        _BUFFER[:] = _DATA
        _BUFFER.sort()
    return time.thread_time() - t0


class Sampler:
    """Kernel timings on the vCPU of the process last passed to `follow`, until `stop()`.

    Samples are (perf_counter at the kernel's midpoint, kernel seconds);
    perf_counter is the system-wide monotonic clock, so readings of
    different processes compare.  The child also ends when this process
    dies, since that closes its stdin.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":  # numpy imported, before any timing
            self.__exit__()
            raise RuntimeError("speed sampler did not start")

    def follow(self, pid: int) -> None:
        self._proc.stdin.write(f"{pid}\n")
        self._proc.stdin.flush()

    def stop(self) -> list[tuple[float, float]]:
        self._proc.stdin.close()
        out = self._proc.stdout.read()
        if self._proc.wait() != 0:
            raise RuntimeError(f"speed sampler exited with {self._proc.returncode}")
        return [tuple(s) for s in json.loads(out)]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()
        if not self._proc.stdin.closed:
            self._proc.stdin.close()


def at_reference(samples: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Seconds from t0 to t1 at reference speed; an interval with no sample uses its nearest two."""
    inside = [k for t, k in samples if t0 <= t <= t1]
    if not inside:
        mid = 0.5 * (t0 + t1)
        inside = [k for _, k in sorted(samples, key=lambda s: abs(s[0] - mid))[:2]]
    return (t1 - t0) * statistics.fmean(REFERENCE_S / k for k in inside)


def _sample() -> None:
    samples, pid, cpu = [], None, None
    print("ready", flush=True)
    while True:
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            data = os.read(sys.stdin.fileno(), 4096)
            if not data:  # stop() or the parent's death
                break
            pid = int(data.split()[-1])
            continue
        if pid is None:
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                where = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39: last CPU
        except (FileNotFoundError, ProcessLookupError):  # between two followed processes
            continue
        if where != cpu:
            os.sched_setaffinity(0, {where})
            cpu = where
        t0 = time.perf_counter()
        k = kernel_s()
        samples.append((0.5 * (t0 + time.perf_counter()), k))
    try:
        json.dump(samples, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:  # the parent is gone
        os._exit(1)


if __name__ == "__main__":
    _sample()
