"""Workload definitions: generated configs, CLI command lists and reference checks.

A workload is a list of `Op`s, each one `presdim` CLI command on one config.
`build(name, seed, tiny)` returns the configs (INI text, drawn from `seed`)
and the ops; `check_op` compares the artifacts an op wrote with references
that do not come from presdim.  Only the standard library is used here, so
the orchestrator can import this module without loading numpy.
"""
from __future__ import annotations

import configparser
import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Jenkinson-Pollicott (2018): Hausdorff dimension of E_2 (digits {1, 2})
E2_DIMENSION = 0.5312805062772051

NAMES = ("orbit-hdim", "partition-pressure", "cylinder-bowen")


@dataclass(frozen=True)
class Op:
    """One CLI command, expected to exit 0 and pass its reference check."""

    command: str
    config: str | None  # key into the workload's configs, None for selftest
    expect: str  # name of the reference check in CHECKS
    threads: int = 1

    def argv(self, config_paths: dict[str, str], out_dir: str) -> list[str]:
        argv = [self.command, "--out", out_dir, "--threads", str(self.threads)]
        if self.config is not None:
            argv += ["--config", config_paths[self.config]]
        return argv


@dataclass(frozen=True)
class Workload:
    configs: dict[str, str]
    ops: tuple[Op, ...]
    # run once per run after the timed passes: documented defaults that are
    # expected to run but currently do not (a known defect)
    probe: Op | None = None


def _group_cfg(ambient, rank, xi, radius, j_min, j_max, poincare_radius=None):
    alphas = "\n".join(
        f"alpha_{i + 1} = " + " ".join("1.0" if c == i else "0.0" for c in range(ambient - 1))
        for i in range(rank)
    )
    text = (
        f"[group]\nambient = {ambient}\nrank = {rank}\n{alphas}\n\n"
        f"[orbit]\nxi = {' '.join(repr(x) for x in xi)}\nradius = {radius}\n\n"
        f"[boxdim]\nsource = orbit\nj_min = {j_min}\nj_max = {j_max}\n\n"
        "[counting]\nt_max = 25.0\nlevels = 50\n"
    )
    if poincare_radius is not None:
        text += f"\n[poincare]\ns = 1.5\nradius = {poincare_radius}\n"
    return text


def _orbit_hdim(rng: random.Random, tiny: bool) -> Workload:
    # G32 stops at j_max 12: at radius 200 the window leaves +-0.1 of k/2 at
    # j_max 13 and verify-hdim FAILs at 14 (an estimator limitation)
    r32, j32, r21, j21 = (120, (3, 10), 10_000, (6, 15)) if tiny else (200, (4, 12), 30_000, (6, 16))
    xi32 = [round(rng.uniform(-0.5, 0.5), 6) for _ in range(2)]
    xi21 = [round(rng.uniform(-0.5, 0.5), 6)]
    configs = {
        "g32": _group_cfg(3, 2, xi32, r32, *j32, poincare_radius=r32),
        "g21": _group_cfg(2, 1, xi21, r21, *j21),
    }
    ops = (
        Op("orbit", "g32", "orbit_csv"),
        Op("verify-hdim", "g32", "verify_hdim"),
        Op("poincare", "g32", "poincare"),
        Op("boxdim", "g21", "orbit_boxdim"),
        Op("verify-hdim", "g21", "verify_hdim"),
        Op("counting", "g21", "counting"),
    )
    return Workload(configs, ops)


def _partition_pressure(rng: random.Random, tiny: bool) -> Workload:
    n = 100_000 if tiny else 1_000_000
    u = round(rng.uniform(0.0, 0.2), 6)
    v = round(rng.uniform(0.0, 0.2), 6)
    gauss_ts = sorted({1.0, round(0.6 + u, 6), round(1.05 + u, 6), round(1.45 + u, 6)})
    configs = {
        "gauss": (
            f"[partition]\ngenerator = gauss\ntruncation = {n}\n\n"
            f"[pressure]\nt_list = {' '.join(repr(t) for t in gauss_ts)}\n\n"
            "[bowen]\nmethod = linear\ntol = 1e-9\n"
        ),
        "oscillating": f"[partition]\ngenerator = oscillating\ntruncation = {n}\n",
        "power-law": (
            f"[partition]\ngenerator = power-law\nexponent = 1.5\ntruncation = {n}\n\n"
            "[bowen]\nmethod = linear\ntol = 1e-9\n"
        ),
        "log-squared": (
            f"[partition]\ngenerator = log-squared\ntruncation = {n}\n\n"
            f"[pressure]\nt_grid = {round(1.1 + v, 6)!r}:{round(2.6 + v, 6)!r}:0.5\n"
        ),
    }
    ops = (
        Op("pressure", "gauss", "gauss_pressure"),
        Op("verify-main", "gauss", "verify_main_gauss"),
        Op("bowen", "gauss", "root_contains_one"),
        Op("verify-main", "oscillating", "verify_main_oscillating"),
        Op("bowen", "power-law", "root_contains_one"),
        Op("s-infinity", "power-law", "s_infinity_power_law"),
        Op("pressure", "log-squared", "log_squared_pressure"),
        Op("s-infinity", "log-squared", "s_infinity_log_squared"),
    )
    return Workload(configs, ops)


def _cylinder_bowen(rng: random.Random, tiny: bool) -> Workload:
    # both systems are checked against fixed constants, so nothing is seeded.
    # `selftest` rides along: run alone, its wall_s spread across runs was
    # 0.20-0.26, too close to the 0.24 bound for a workload of its own
    e2_order, cap = (10, 8) if tiny else (16, 32)
    configs = {
        "e2": (
            "[partition]\ngenerator = gauss-restricted\ndigits = 1 2\n\n"
            f"[bowen]\nmethod = cylinder\norder = {e2_order}\ntol = 1e-6\n"
        ),
        "capped-gauss": (
            "[partition]\ngenerator = gauss\ntruncation = 1000\n\n"
            f"[bowen]\nmethod = cylinder\norder = 4\nalphabet_cap = {cap}\ntol = 1e-6\n"
        ),
        "defaults": "[partition]\ngenerator = gauss\n\n[bowen]\nmethod = cylinder\n",
    }
    if tiny:
        configs["selftest"] = "[selftest]\ntrials = 200\n"
    ops = (
        Op("bowen", "e2", "e2_root", threads=2),
        Op("bowen", "capped-gauss", "capped_gauss_root", threads=2),
        # the selftest RNG seed is fixed inside presdim, so `rng` cannot reach it
        Op("selftest", "selftest" if tiny else None, "selftest"),
    )
    probe = Op("bowen", "defaults", "bracketed")
    return Workload(configs, ops, probe)


_BUILDERS = {
    "orbit-hdim": _orbit_hdim,
    "partition-pressure": _partition_pressure,
    "cylinder-bowen": _cylinder_bowen,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return _BUILDERS[name](random.Random(seed), tiny)


# ---------------------------------------------------------------------------
# reference checks: each returns a list of problems (empty when correct)


def _json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def _within(value, target, tol, what) -> list[str]:
    if abs(value - target) <= tol:
        return []
    return [f"{what} {value!r} not within {tol} of {target!r}"]


def _contains(lo, hi, target, what) -> list[str]:
    if lo <= target <= hi:
        return []
    return [f"{what} [{lo!r}, {hi!r}] misses {target!r}"]


def _overall_pass(doc, what) -> list[str]:
    return [] if doc.get("overall") == "PASS" else [f"{what} overall {doc.get('overall')!r}"]


def _config(cfg_text: str, section: str, key: str) -> str:
    parser = configparser.ConfigParser()
    parser.read_string(cfg_text)
    return parser.get(section, key)


def _orbit_csv(out, cfg):
    radius = int(_config(cfg, "orbit", "radius"))
    rank = int(_config(cfg, "group", "rank"))
    with open(out / "orbit.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    problems = []
    if len(rows) - 1 != (2 * radius + 1) ** rank:
        problems.append(f"orbit.csv has {len(rows) - 1} points, expected {(2 * radius + 1) ** rank}")
    for row in rows[1:]:
        norm = math.sqrt(math.fsum(float(x) ** 2 for x in row))
        if abs(norm - 1.0) > 1e-9:
            problems.append(f"orbit point {row} is not a unit vector")
            break
    return problems


def _verify_hdim(out, cfg):
    doc = _json(out, "verify_hdim.json")
    half_k = doc["rank"] / 2
    lo, hi = doc["orbit_dimension"]
    return (
        _overall_pass(doc, "verify-hdim")
        + _within(lo, half_k, 0.1, "orbit dimension low")
        + _within(hi, half_k, 0.1, "orbit dimension high")
        + _within(doc["counting_final_slope"], half_k, 0.05, "counting slope")
    )


def _poincare(out, cfg):
    doc = _json(out, "poincare.json")
    s, radius, rank = doc["s"], doc["radius"], doc["rank"]
    if rank != 2:
        return [f"poincare reference is written for rank 2, got {rank}"]
    # generators are the unit axes, so |N . alpha| = |N|
    terms = [
        math.exp(-2.0 * s * math.asinh(0.5 * math.hypot(a, b)))
        for a in range(-radius, radius + 1)
        for b in range(-radius, radius + 1)
    ]
    ref = math.fsum(terms)
    problems = _within(doc["partial_sum"], ref, 1e-12 * ref, "poincare partial sum")
    if doc["tail_classification"] != "convergent-with-bound" or not doc["tail_bound"] > 0:
        problems.append(f"poincare tail {doc['tail_classification']} {doc['tail_bound']!r}")
    return problems


def _orbit_boxdim(out, cfg):
    doc = _json(out, "boxdim.json")
    half_k = int(_config(cfg, "group", "rank")) / 2
    return _within(doc["lower_dim"], half_k, 0.1, "box dimension low") + _within(
        doc["upper_dim"], half_k, 0.1, "box dimension high")


def _counting(out, cfg):
    doc = _json(out, "counting.json")
    problems = _within(doc["final_slope"], doc["rank"] / 2, 0.05, "counting slope")
    if doc["rank"] == 1:  # unit generator: #{n : |n| <= 2 sinh(t/2)}
        with open(out / "counting.csv", newline="") as fh:
            for row in list(csv.DictReader(fh)):
                t = float(row["t"])
                ref = 2 * math.floor(2.0 * math.sinh(0.5 * t)) + 1
                if int(row["count"]) != ref:
                    problems.append(f"count at t={t} is {row['count']}, expected {ref}")
                    break
    return problems


def _pressure_rows(out):
    with open(out / "pressure.csv", newline="") as fh:
        return [{k: float(v) if k not in ("method",) else v for k, v in r.items()}
                for r in csv.DictReader(fh)]


def _pressure_rows_ok(rows, threshold):
    problems = []
    for r in rows:
        if r["t"] > threshold and not (math.isfinite(r["upper"]) and r["lower"] <= r["upper"]):
            problems.append(f"pressure row t={r['t']} is not a finite bracket")
    return problems


def _gauss_pressure(out, cfg):
    rows = _pressure_rows(out)
    ts = [float(t) for t in _config(cfg, "pressure", "t_list").split()]
    problems = [] if len(rows) == len(ts) else [f"{len(rows)} pressure rows for {len(ts)} t"]
    ones = [r for r in rows if r["t"] == 1.0]
    if len(ones) != 1:
        return problems + ["no pressure row at t = 1"]
    # the gauss partition tiles (0, 1], so P(1) = log 1 = 0
    return problems + _contains(ones[0]["lower"], ones[0]["upper"], 0.0, "P(1)") + _pressure_rows_ok(rows, 0.5)


def _log_squared_pressure(out, cfg):
    start, stop, step = (float(x) for x in _config(cfg, "pressure", "t_grid").split(":"))
    rows = _pressure_rows(out)
    expected = int(round((stop - start) / step)) + 1
    problems = [] if len(rows) == expected else [f"{len(rows)} pressure rows, expected {expected}"]
    return problems + _pressure_rows_ok(rows, 1.0)


def _verify_main_gauss(out, cfg):
    doc = _json(out, "verify_main.json")
    s = doc["s_infinity"]
    return _overall_pass(doc, "verify-main") + _contains(s["s_low"], s["s_high"], 0.5, "gauss s_infinity")


def _verify_main_oscillating(out, cfg):
    doc = _json(out, "verify_main.json")
    s = doc["s_infinity"]
    # local decay slopes alternate 1, 2 on blocks of ratio 3, so the gap
    # ratios have limsup (3 + 1)/(2*3 + 3) = 4/9, the exact threshold
    problems = _overall_pass(doc, "verify-main") + _contains(s["s_low"], s["s_high"], 4 / 9, "oscillating band")
    if s["status"] != "band":
        problems.append(f"oscillating s_infinity status {s['status']!r}, expected 'band'")
    return problems


def _s_infinity(target):
    def check(out, cfg):
        doc = _json(out, "s_infinity.json")
        return _contains(doc["s_low"], doc["s_high"], target, f"{doc['generator']} s_infinity")
    return check


def _root(out) -> tuple[dict, list[str]]:
    doc = _json(out, "bowen.json")
    problems = [] if doc["status"] == "bracketed" else [f"bowen status {doc['status']!r}"]
    return doc, problems


def _root_contains(target):
    def check(out, cfg):
        doc, problems = _root(out)
        return problems + _contains(doc["root_low"], doc["root_high"], target, "bowen root")
    return check


def _bracketed(out, cfg):
    return _root(out)[1]


def _capped_gauss_root(out, cfg):
    # Hensley: dim E_N = 1 - 6/(pi^2 N) - 72 log N/(pi^4 N^2) + O(1/N^2); the
    # bracket must meet that estimate widened by 0.01 and stay below 1 on the left
    doc, problems = _root(out)
    n = int(_config(cfg, "bowen", "alphabet_cap"))
    est = 1 - 6 / (math.pi ** 2 * n) - 72 * math.log(n) / (math.pi ** 4 * n * n)
    if not (doc["root_low"] <= est + 0.01 and doc["root_high"] >= est - 0.01 and doc["root_low"] < 1.0):
        problems.append(f"capped gauss root [{doc['root_low']!r}, {doc['root_high']!r}] vs Hensley {est:.4f}")
    return problems


def _selftest(out, cfg):
    doc = _json(out, "selftest.json")
    problems = _overall_pass(doc, "selftest")
    problems += [f"{r['name']}: {r['passed']}/{r['total']}" for r in doc["results"] if r["passed"] != r["total"]]
    return problems


CHECKS = {
    "orbit_csv": _orbit_csv,
    "verify_hdim": _verify_hdim,
    "poincare": _poincare,
    "orbit_boxdim": _orbit_boxdim,
    "counting": _counting,
    "gauss_pressure": _gauss_pressure,
    "log_squared_pressure": _log_squared_pressure,
    "verify_main_gauss": _verify_main_gauss,
    "verify_main_oscillating": _verify_main_oscillating,
    "s_infinity_power_law": _s_infinity(1 / 1.5),
    "s_infinity_log_squared": _s_infinity(1.0),
    "root_contains_one": _root_contains(1.0),
    "e2_root": _root_contains(E2_DIMENSION),
    "capped_gauss_root": _capped_gauss_root,
    "bracketed": _bracketed,
    "selftest": _selftest,
}


def check_op(op: Op, code: int, out_dir: Path, configs: dict[str, str]) -> list[str]:
    """Problems with `op`'s exit code and the artifacts it wrote to `out_dir`."""
    if code != 0:
        return [f"exit {code}, expected 0"]
    cfg = configs.get(op.config, "") if op.config else ""
    try:
        return CHECKS[op.expect](out_dir, cfg)
    except (OSError, KeyError, ValueError, configparser.Error) as exc:
        return [f"{op.command}: unreadable artifact ({exc!r})"]


def root_width(out_dir: Path) -> float | None:
    """root_high - root_low of a bowen artifact in `out_dir`, if there is one."""
    path = out_dir / "bowen.json"
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    return doc["root_high"] - doc["root_low"]
