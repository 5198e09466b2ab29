"""Top-level acceptance gate: one verdict line per criterion, pinned tolerances.

Each test prints `CRITERION nn: PASS/FAIL (detail) [elapsed / budget]` so a
plain pytest run yields one line per criterion; assertions carry the same
tolerances as the printed verdicts.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from presdim import cli
from presdim.boxdim import PointCloud, estimate_box_dimension, gap_exponent_bounds
from presdim.hyperbolic import (
    ParabolicGroupSpec,
    _bourdon,
    _orbit_distance,
    _translate,
    identity_suite,
    parabolic_orbit,
)
from presdim.interval_partition import build_partition, make_branch_map, refine_partition
from presdim.poincare import counting_exponent, critical_exponent
from presdim.pressure import (
    bowen_root_cylinder,
    bowen_root_linear,
    find_s_infinity,
    pressure_linear,
)

G21 = ParabolicGroupSpec(2, 1, np.array([[1.0]]))
G31 = ParabolicGroupSpec(3, 1, np.array([[1.0, 0.0]]))
G32 = ParabolicGroupSpec(3, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))


def _verdict(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    in_time = elapsed <= budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"CRITERION {num:02d}: {status} ({detail}) [{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, detail
    assert in_time, f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget"


def test_criterion_01_gauss_s_infinity_and_gap_bounds():
    t0 = time.perf_counter()
    part = build_partition("gauss", 1_000_000)
    est = find_s_infinity(part)
    gb = gap_exponent_bounds(part)
    ok = (
        est.s_low <= 0.5 <= est.s_high
        and est.width <= 0.01
        and abs(gb.L_lower - 0.5) <= 0.02
        and abs(gb.L_upper - 0.5) <= 0.02
    )
    detail = (
        f"bracket [{est.s_low:.6f}, {est.s_high:.6f}], "
        f"gap bounds [{gb.L_lower:.6f}, {gb.L_upper:.6f}]"
    )
    _verdict(1, ok, detail, time.perf_counter() - t0, 10.0)


def test_criterion_02_box_dimension_of_reciprocals():
    t0 = time.perf_counter()
    part = build_partition("gauss", 1_000_000)
    cloud = PointCloud(part.endpoints(), "line")
    deltas = 2.0 ** -np.arange(6.0, 19.0)
    est = estimate_box_dimension(cloud, deltas)
    # the endpoints are 1/n, n = 1..10^6+1, and 1/n lies in the cell
    # floor(2^j / n), so the occupied cells are counted in exact integers
    n = np.arange(1, 1_000_002, dtype=np.int64)
    counts = [int(np.unique((1 << j) // n).size) for j in range(6, 19)]
    ok = (
        0.45 <= est.lower_dim <= est.upper_dim <= 0.55
        and est.counts.tolist() == counts
    )
    detail = f"window [{est.lower_dim:.4f}, {est.upper_dim:.4f}], counts pinned"
    _verdict(2, ok, detail, time.perf_counter() - t0, 30.0)


def test_criterion_03_sandwich_chain_five_generators():
    t0 = time.perf_counter()
    cases = [
        ("gauss", dict(truncation=1_000_000)),
        ("dyadic", dict(truncation=1000)),
        ("power-law", dict(truncation=1_000_000, exponent=1.5)),
        ("log-squared", dict(truncation=1_000_000)),
        ("oscillating", dict(truncation=1_000_000)),
    ]
    ok = True
    spreads = {}
    for gen, kw in cases:
        part = build_partition(gen, **kw)
        est = find_s_infinity(part, tol=1e-4)
        gb = gap_exponent_bounds(part)
        eps = est.width + gb.edge_drift
        s_mid = est.midpoint
        spreads[gen] = gb.spread
        ok = ok and (gb.L_lower - eps <= s_mid <= gb.L_upper + eps)
    # the interleaved generator has no box dimension: wide window required,
    # and only the inequality chain above is asserted for it
    ok = ok and spreads["oscillating"] >= 0.1
    detail = "chain holds for 5 generators, oscillating spread " \
             f"{spreads['oscillating']:.3f} >= 0.1"
    _verdict(3, ok, detail, time.perf_counter() - t0, 60.0)


def test_criterion_04_bowen_roots():
    t0 = time.perf_counter()
    dyadic = bowen_root_linear(build_partition("dyadic", 1000), tol=1e-9)
    ok = dyadic.lower <= 1.0 <= dyadic.upper and dyadic.upper - dyadic.lower <= 4e-9

    bmap = make_branch_map(build_partition("gauss-restricted", digits=(1, 2)))
    brackets = {n: bowen_root_cylinder(bmap, n, tol=1e-7) for n in (8, 12, 16)}
    log_c = math.log(4.0)
    prev = None
    lo, hi = 0.0, 1.0
    for n, br in brackets.items():
        width = br.upper - br.lower
        t_mid = 0.5 * (br.lower + br.upper)
        ok = ok and br.status == "bracketed"
        ok = ok and width <= 2.0 * log_c * t_mid / n + 1e-6
        if prev is not None:  # nested within the coarser enclosure
            ok = ok and prev.lower - 1e-7 <= br.lower and br.upper <= prev.upper + 1e-7
        prev = br
        lo, hi = max(lo, br.lower), min(hi, br.upper)
    ok = ok and lo < hi and hi - lo <= 1e-2
    detail = (
        f"dyadic root [{dyadic.lower:.10f}, {dyadic.upper:.10f}], "
        f"digits {{1,2}} intersection [{lo:.7f}, {hi:.7f}] width {hi - lo:.2e}"
    )
    _verdict(4, ok, detail, time.perf_counter() - t0, 120.0)


def test_criterion_05_iterate_identity():
    t0 = time.perf_counter()
    # truncation keeps every depth-3 cylinder endpoint exactly representable
    part = build_partition("dyadic", 16)
    bmap = make_branch_map(part)
    base = refine_partition(bmap, 1)  # the truncated system as a finite partition
    worst = 0.0
    for k in (2, 3):
        ref = refine_partition(bmap, k)
        for t in (0.6, 1.0, 2.0):
            lhs = pressure_linear(ref, t).value
            rhs = k * pressure_linear(base, t).value
            worst = max(worst, abs(lhs - rhs))
    _verdict(5, worst <= 1e-12, f"max identity defect {worst:.3e}", time.perf_counter() - t0, 1.0)


def test_criterion_06_parabolic_critical_exponents():
    t0 = time.perf_counter()
    ok = True
    details = []
    for group in (G21, G31, G32):
        half_k = group.rank / 2.0
        est = critical_exponent(group, tol=0.01)
        cf = counting_exponent(group, t_max=25.0, levels=50)
        ok = ok and est.s_low <= half_k <= est.s_high and est.width <= 0.02
        ok = ok and abs(cf.final_slope - half_k) <= 0.05
        details.append(
            f"(n={group.ambient},k={group.rank}): bracket [{est.s_low:.4f}, {est.s_high:.4f}], "
            f"slope {cf.final_slope:.4f}"
        )
    _verdict(6, ok, "; ".join(details), time.perf_counter() - t0, 60.0)


def test_criterion_07_orbit_box_dimension_and_three_way_check(tmp_path, capsys):
    t0 = time.perf_counter()
    cloud1 = parabolic_orbit(G21, [0.0], 100_000)
    est1 = estimate_box_dimension(cloud1, 2.0 ** -np.arange(6.0, 19.0))
    cloud2 = parabolic_orbit(G32, [0.0, 0.0], 400)
    est2 = estimate_box_dimension(cloud2, 2.0 ** -np.arange(4.0, 15.0))
    ok = (
        abs(est1.lower_dim - 0.5) <= 0.1
        and abs(est1.upper_dim - 0.5) <= 0.1
        and abs(est2.lower_dim - 1.0) <= 0.1
        and abs(est2.upper_dim - 1.0) <= 0.1
    )

    cfg = tmp_path / "hdim.ini"
    cfg.write_text(
        "[group]\nambient = 2\nrank = 1\nalpha_1 = 1.0\n\n"
        "[orbit]\nxi = 0.0\nradius = 100000\n\n"
        "[boxdim]\nj_min = 6\nj_max = 18\n\n"
        "[counting]\nt_max = 25.0\nlevels = 50\n"
    )
    code = cli.main(["verify-hdim", "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    doc = json.loads((tmp_path / "out" / "verify_hdim.json").read_text())
    ok = ok and code == 0 and doc["overall"] == "PASS"
    detail = (
        f"k=1 window [{est1.lower_dim:.4f}, {est1.upper_dim:.4f}], "
        f"k=2 window [{est2.lower_dim:.4f}, {est2.upper_dim:.4f}], "
        f"three-way spread {doc['three_way_spread']:.4f}"
    )
    _verdict(7, ok, detail, time.perf_counter() - t0, 180.0)


def test_criterion_08_geometry_identity_suite():
    t0 = time.perf_counter()
    results = identity_suite(10_000, np.random.default_rng(918273645))
    ok = len(results) == 9 and all(r["passed"] == r["total"] == 10_000 for r in results)
    detail = ", ".join(f"{r['name']} {r['max_error']:.2e} <= {r['tolerance']:g}" for r in results)
    _verdict(8, ok, detail, time.perf_counter() - t0, 10.0)


def test_criterion_09_parabolic_sandwich_spread():
    t0 = time.perf_counter()
    ks = np.unique(np.geomspace(50, 10_000, 60).astype(np.int64))
    # (xi_k | xi_{k+1})_o = -log of their Bourdon metric, xi_k = N_k.xi the orbit of xi = 0
    k = np.concatenate([ks, -ks]).astype(float)[:, None]
    xi, o, finite = np.zeros((len(k), 1)), np.broadcast_to([0.0, 1.0], (len(k), 2)), np.zeros(len(k), dtype=bool)
    a, b = _translate(xi, k @ G21.alphas), _translate(xi, (k + 1.0) @ G21.alphas)
    diffs = -np.log(_bourdon(a, finite, b, finite, o)) - _orbit_distance(k @ G21.alphas)
    spread = float(diffs.max() - diffs.min())
    ok = np.all(np.isfinite(diffs)) and spread <= 1.0
    detail = f"values in [{diffs.min():.5f}, {diffs.max():.5f}], spread {spread:.5f} <= 1"
    _verdict(9, ok, detail, time.perf_counter() - t0, 10.0)


def test_criterion_10_thread_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    gauss_cfg = tmp_path / "gauss.ini"
    gauss_cfg.write_text("[partition]\ngenerator = gauss\ntruncation = 1000000\n")
    g21_cfg = tmp_path / "g21.ini"
    g21_cfg.write_text(
        "[group]\nambient = 2\nrank = 1\nalpha_1 = 1.0\n\n"
        "[orbit]\nxi = 0.0\nradius = 100000\n\n"
        "[boxdim]\nj_min = 6\nj_max = 18\n\n"
        "[counting]\nt_max = 25.0\nlevels = 50\n"
    )
    g32_cfg = tmp_path / "g32.ini"
    g32_cfg.write_text(
        "[group]\nambient = 3\nrank = 2\nalpha_1 = 1.0 0.0\nalpha_2 = 0.0 1.0\n\n"
        "[orbit]\nxi = 0.0 0.0\nradius = 100\n\n"
        "[counting]\nt_max = 25.0\nlevels = 50\n"
    )
    # the cylinder Bowen root is the one command here whose work is split
    # across --threads workers
    e2_cfg = tmp_path / "e2.ini"
    e2_cfg.write_text(
        "[partition]\ngenerator = gauss-restricted\ndigits = 1 2\n\n"
        "[bowen]\nmethod = cylinder\norder = 16\ntol = 1e-6\n"
    )
    runs = [
        ("s-infinity", gauss_cfg, ["s_infinity.json"]),
        ("gaps", gauss_cfg, ["gaps.json"]),
        ("counting", g21_cfg, ["counting.csv", "counting.json"]),
        ("verify-hdim", g21_cfg, ["verify_hdim.json"]),
        ("counting", g32_cfg, ["counting.csv", "counting.json"]),
        ("orbit", g32_cfg, ["orbit.csv"]),
        ("bowen", e2_cfg, ["bowen.json"]),
    ]
    ok = True
    checked = 0
    for idx, (command, cfg, artifacts) in enumerate(runs):
        digests = []
        for threads in (1, 2, 4, 8):
            out = tmp_path / f"run{idx}_t{threads}"
            code = cli.main(
                [command, "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
            )
            ok = ok and code == 0
            digests.append(
                tuple(hashlib.sha256((out / a).read_bytes()).hexdigest() for a in artifacts)
            )
        ok = ok and len(set(digests)) == 1
        checked += len(artifacts)
    capsys.readouterr()
    detail = f"{checked} artifacts byte-identical across threads 1/2/4/8 over {len(runs)} commands"
    _verdict(10, ok, detail, time.perf_counter() - t0, 120.0)
