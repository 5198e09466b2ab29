"""End-to-end CLI runs against small configs in a temp directory."""

import ast
import configparser
import hashlib
import json
import math
import os
import re
import runpy
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import presdim
from presdim import cli
from presdim.boxdim import PointCloud, estimate_box_dimension
from presdim.hyperbolic import ParabolicGroupSpec, parabolic_orbit
from presdim.interval_partition import build_partition


def _write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr()


GAUSS_PRESSURE = """\
[partition]
generator = gauss
truncation = 65536

[pressure]
t_grid = 0.4:1.2:0.05
"""

GROUP21 = """\
[group]
ambient = 2
rank = 1
alpha_1 = 1.0

[orbit]
xi = 0.0
radius = 2000

[boxdim]
j_min = 6
j_max = 14

[counting]
t_max = 18.0
levels = 30
"""
ORBIT_21 = GROUP21.replace("[boxdim]", "[boxdim]\nsource = orbit")


def test_pressure_csv_grid(tmp_path, capsys):
    cfg = _write_config(tmp_path, "g.ini", GAUSS_PRESSURE)
    code, out = _run(["pressure", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
    assert code == 0
    lines = (tmp_path / "o" / "pressure.csv").read_text().splitlines()
    assert lines[0] == "t,lower,upper,method,truncation,tail_bound"
    assert len(lines) == 1 + 17
    rows = [ln.split(",") for ln in lines[1:]]
    for row in rows:
        if float(row[0]) <= 0.5:
            assert row[2] == "inf"  # divergent upper bound
        else:
            assert float(row[1]) <= float(row[2]) < float("inf")


def test_pressure_t_list_power_law(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "p.ini",
        "[partition]\ngenerator = power-law\nexponent = 1.5\ntruncation = 10000\n\n"
        "[pressure]\nt_list = 0.5 0.7 1.0\n",
    )
    code, out = _run(["pressure", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "(3 rows)" in out.out
    lines = (tmp_path / "pressure.csv").read_text().splitlines()
    rows = {float(ln.split(",")[0]): [float(x) for x in ln.split(",")[1:3]] for ln in lines[1:]}
    assert list(rows) == [0.5, 0.7, 1.0]
    # lengths ~ n^(-1.5): sum length^t diverges at t = 2/3 and below
    assert rows[0.5] == [math.inf, math.inf]
    assert 0.0 < rows[0.7][0] <= rows[0.7][1] < math.inf
    # the intervals tile (0, 1], so P(1) = log 1 = 0
    assert rows[1.0][0] <= 0.0 <= rows[1.0][1]


def test_s_infinity_json_and_hash(tmp_path, capsys):
    cfg = _write_config(tmp_path, "g.ini", "[partition]\ngenerator = gauss\ntruncation = 100000\n")
    code, out = _run(["s-infinity", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "s_infinity.json").read_text())
    assert doc["command"] == "s-infinity"
    assert doc["config_hash"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert doc["s_low"] <= 0.5 <= doc["s_high"]
    assert doc["status"] == "bracket"
    assert "bracket [" in out.out


def test_bowen_linear_dyadic(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "d.ini",
        "[partition]\ngenerator = dyadic\ntruncation = 1000\n\n[bowen]\nmethod = linear\ntol = 1e-9\n",
    )
    code, _ = _run(["bowen", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "bowen.json").read_text())
    assert doc["status"] == "bracketed"
    assert doc["root_low"] <= 1.0 <= doc["root_high"]
    assert doc["root_high"] - doc["root_low"] <= 4e-9


def test_bowen_cylinder_restricted(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "b.ini",
        "[partition]\ngenerator = gauss-restricted\ndigits = 1,2\n\n"
        "[bowen]\nmethod = cylinder\norder = 8\ntol = 1e-6\n",
    )
    code, _ = _run(["bowen", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "bowen.json").read_text())
    assert doc["root_low"] <= 0.5312805 <= doc["root_high"]
    assert doc["root_high"] - doc["root_low"] <= 2.0 * 0.54 * math.log(4.0) / 8 + 2e-6


def test_bowen_cylinder_documented_defaults(tmp_path, capsys):
    # no order given: the deepest order whose 64^order words fit the cap
    cfg = _write_config(tmp_path, "c.ini", "[partition]\ngenerator = gauss\n\n[bowen]\nmethod = cylinder\n")
    code, _ = _run(["bowen", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "bowen.json").read_text())
    assert doc["status"] == "bracketed"
    assert (doc["order"], doc["alphabet_cap"]) == (3, 64)
    # Hensley: the digits 1..64 give a dimension of about 0.990
    assert doc["root_low"] <= 0.99 <= doc["root_high"]
    # the same bits as when each exponent reduced both sides
    assert (doc["root_low"], doc["root_high"]) == (0.9435627018337681, 1.0570560744404958)


def test_bowen_alphabet_cap_below_one_exits_2(tmp_path, capsys):
    for cap in (0, -3):
        for order in ("", "order = 2\n"):
            cfg = _write_config(
                tmp_path, "c.ini",
                f"[partition]\ngenerator = gauss\n\n[bowen]\nmethod = cylinder\n{order}alphabet_cap = {cap}\n",
            )
            code, out = _run(["bowen", "--config", str(cfg), "--out", str(tmp_path)], capsys)
            assert code == 2, (cap, order)
            assert "[bowen] alphabet_cap" in out.err
    assert not (tmp_path / "bowen.json").exists()


GAUSS_BOXDIM = """\
[partition]
generator = gauss
truncation = 20000

[boxdim]
source = endpoints
j_min = 6
j_max = 14
"""


@pytest.mark.parametrize("source", ["endpoints", "orbit"])
def test_boxdim_counts_match_the_estimator(tmp_path, capsys, source):
    if source == "endpoints":
        text = GAUSS_BOXDIM
        cloud = PointCloud(build_partition("gauss", 20_000).endpoints(), "line")
    else:
        text = ORBIT_21
        group = ParabolicGroupSpec(2, 1, np.array([[1.0]]))
        cloud = parabolic_orbit(group, [0.0], 2000)
    cfg = _write_config(tmp_path, "b.ini", text)
    code, out = _run(["boxdim", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    deltas = 2.0 ** -np.arange(6, 15)
    est = estimate_box_dimension(cloud, deltas)
    rows = (tmp_path / "boxdim_counts.csv").read_text().splitlines()
    assert rows[0] == "delta,count,algorithm"
    assert rows[1:] == [f"{d!r},{c},grid-cells" for d, c in zip(deltas.tolist(), est.counts.tolist())]
    doc = json.loads((tmp_path / "boxdim.json").read_text())
    assert (doc["source"], doc["cloud_size"]) == (source, cloud.count)
    assert doc["counts"] == est.counts.tolist()
    assert (doc["lower_dim"], doc["upper_dim"]) == (est.lower_dim, est.upper_dim)


GROUP43 = """\
[group]
ambient = 4
rank = 3
alpha_1 = 1.0 0.0 0.0
alpha_2 = 0.0 1.0 0.0
alpha_3 = 0.0 0.0 1.0

[orbit]
xi = 0.0 0.0 0.0
radius = 8

[boxdim]
source = orbit
j_min = 1
j_max = 8
"""


def test_rank_3_orbit_box_counts_and_lattice_counts(tmp_path, capsys):
    # sphere cells in R^4 pack 15 bits per axis; rank-3 lattice counts hold about (2 reach)^2 / 2 rows
    cfg = _write_config(tmp_path, "g43.ini", GROUP43)
    code, _ = _run(["boxdim", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    cloud = parabolic_orbit(ParabolicGroupSpec(4, 3, np.eye(3)), [0.0, 0.0, 0.0], 8)
    doc = json.loads((tmp_path / "boxdim.json").read_text())
    assert (doc["source"], doc["cloud_size"]) == ("orbit", cloud.count)
    assert doc["counts"] == estimate_box_dimension(cloud, 2.0 ** -np.arange(1, 9)).counts.tolist()
    code, out = _run(["verify-hdim", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "config error: [counting] enumeration cap exceeded; the largest achievable t_max is 16.12" in out.err
    cfg = _write_config(tmp_path, "g43c.ini", GROUP43 + "\n[counting]\nt_max = 10\n")
    code, _ = _run(["counting", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads((tmp_path / "counting.json").read_text())["final_slope"] == pytest.approx(1.5, abs=0.05)


def test_gaps_json(tmp_path, capsys):
    cfg = _write_config(tmp_path, "g.ini", "[partition]\ngenerator = gauss\ntruncation = 100000\n")
    code, _ = _run(["gaps", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "gaps.json").read_text())
    assert doc["L_lower"] <= 0.5 <= doc["L_upper"]
    assert doc["edge_drift"] >= 0.0
    assert doc["fitted_limit"] == pytest.approx(0.5, abs=0.02)


ORBIT_CASES = [
    ("[group]\nambient = 2\nrank = 1\nalpha_1 = 1.0\n\n[orbit]\nxi = 0.0\nradius = 50\n", "x1,x2", 101),
    # the lattice holds points p and p/|p|^2, which share x1 and x2 on the sphere,
    # so only the third key orders them
    ("[group]\nambient = 3\nrank = 2\nalpha_1 = 0.5 0.0\nalpha_2 = 0.0 0.5\n\n"
     "[orbit]\nxi = 0.0 0.0\nradius = 4\n", "x1,x2,x3", 81),
]


def test_orbit_csv(tmp_path, capsys):
    for text, header, count in ORBIT_CASES:
        cfg = _write_config(tmp_path, "o.ini", text)
        code, out = _run(["orbit", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 0
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + count
        assert f"{count} unit vectors" in out.out
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        assert all(a < b for a, b in zip(rows, rows[1:]))
        # every cell reads back as the orbit coordinate, bit for bit (xi = 0 puts exact zeros in)
        parsed = configparser.ConfigParser()
        parsed.read_string(text)
        pts = cli._orbit_cloud(parsed).points
        assert np.array(rows).tobytes() == pts[np.lexsort(pts.T[::-1])].tobytes()
        assert 0.0 in pts


_TIES = np.array([[0.5, 0.5, 0.3], [0.5, 0.5, -0.1], [0.5, 0.5, 0.3], [0.5, 0.5, 0.2], [-0.5, 1.0, 0.0],
                  [0.5, 0.5, -0.1]])
_ZEROS = np.array([[0.0, 0.0], [-0.0, -1.0], [0.0, -0.0], [-0.0, 0.0], [1.0, -0.0], [-0.0, -1.0], [0.0, 1.0]])


@pytest.mark.parametrize("pts", [
    parabolic_orbit(ParabolicGroupSpec(3, 2, np.eye(2)), [0.0, 0.0], 20).points,  # xi = 0: 924 of 1681 x1 tied
    _TIES,  # rows that differ in x3 only, and repeated rows
    _ZEROS,  # -0.0 and 0.0 are equal keys, so repeats keep their index order
    np.random.default_rng(3).integers(-2, 3, size=(500, 4)).astype(float),
    np.array([[0.25, 1.0]]),
    # big enough that the x1 argsort is not stable: repeated rows and x1 ties must fall back on the index
    np.random.default_rng(5).integers(-1, 2, size=(3000, 3)).astype(float),
    np.repeat(np.random.default_rng(6).normal(size=(300, 2)), 7, axis=0),
], ids=["G32-xi-0", "x3-ties", "signed-zeros", "grid-R4", "one-row", "repeats-R3", "repeats-R2"])
def test_orbit_row_order_is_lexsort(pts):
    assert cli._row_order(pts).tolist() == np.lexsort(pts.T[::-1]).tolist()


def _format_rows(values: np.ndarray) -> bytes:
    return "".join(",".join(format(v, ".16e") for v in row) + "\n" for row in values.tolist()).encode()


# signed zeros, subnormals, the far exponents and the neighbours of the powers of ten around the
# array path's range 1e-11 <= |v| < 10, where the guessed decimal exponent is one off
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
                1.7976931348623157e308, math.inf, -math.inf, math.nan] + [
    sign * math.nextafter(10.0 ** j, to) for j in range(-12, 2) for to in (math.inf, -math.inf) for sign in (1, -1)]
_DYADICS = st.builds(lambda m, e, sign: sign * math.ldexp(m, e), st.integers(1, 2 ** 12), st.integers(-70, 6),
                     st.sampled_from([1.0, -1.0]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS), _DYADICS), min_size=1, max_size=60),
       st.integers(1, 4))
def test_orbit_cells_are_format_16e(values, width):
    values = np.array(values + [1.0] * (-len(values) % width)).reshape(-1, width)
    assert b"".join(cli._e16_rows(values)) == _format_rows(values)


@pytest.mark.parametrize("values", [
    [0, 10 ** 8 - 1] + [n for j in range(1, 9) for n in (10 ** j - 1, 10 ** j, 10 ** j + 1) if n < 10 ** 8],
    np.random.default_rng(3).integers(0, 10 ** 8, size=10_000).tolist(),
], ids=["edges", "random"])
def test_digits8_is_format_08d(values):
    words = cli._digits8(np.array(values, dtype=np.uint64)).astype("<u8")
    assert words.view("S8").tolist() == [format(x, "08d").encode() for x in values]


def test_orbit_cells_round_half_to_even_at_exact_ties():
    # m 2^e with a short m ends in 5 at the 18th significant digit for some e: an exact tie
    m, e = np.meshgrid(np.arange(1, 1 << 10), np.arange(-70, 5), indexing="ij")
    values = np.ldexp(m.ravel().astype(float), e.ravel())
    assert b"".join(cli._e16_rows(values.reshape(-1, 3))) == _format_rows(values.reshape(-1, 3))
    ties = [v for v in values.tolist() if len(digits := Decimal(v).normalize().as_tuple().digits) == 18
            and digits[-1] == 5]
    # both ways: to the even digit below, and up to it
    kept = {Decimal(v).normalize().as_tuple().digits[-2] % 2 for v in ties}
    assert len(ties) > 100 and kept == {0, 1}


@pytest.mark.parametrize("group, xi, radius", [
    (ParabolicGroupSpec(3, 2, np.eye(2)), [-0.365636, 0.347434], 200),  # the orbit-hdim benchmark's, seed 1
    (ParabolicGroupSpec(4, 3, np.eye(3)), [0.0, 0.0, 0.0], 20),
], ids=["G32", "G43"])
def test_orbit_cloud_cells_are_format_16e(group, xi, radius):
    pts = parabolic_orbit(group, xi, radius).points
    assert b"".join(cli._e16_rows(pts)) == _format_rows(pts)


def test_poincare_identity_count(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "p.ini",
        "[group]\nambient = 2\nrank = 1\nalpha_1 = 1.0\n\n[poincare]\ns = 0.0\nradius = 2\n",
    )
    code, _ = _run(["poincare", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "poincare.json").read_text())
    assert doc["partial_sum"] == 5.0


def test_counting_outputs_and_thread_determinism(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.ini", GROUP21)
    blobs = {}
    for threads in (1, 4):
        out_dir = tmp_path / f"t{threads}"
        code, _ = _run(
            ["counting", "--config", str(cfg), "--out", str(out_dir), "--threads", str(threads)],
            capsys,
        )
        assert code == 0
        blobs[threads] = (
            (out_dir / "counting.csv").read_bytes(),
            (out_dir / "counting.json").read_bytes(),
        )
    assert blobs[1] == blobs[4]
    header, first = blobs[1][0].decode().splitlines()[:2]
    assert header == "t,count,slope"
    assert len(first.split(",")) == 3


def test_verify_main_dyadic_passes(tmp_path, capsys):
    cfg = _write_config(tmp_path, "d.ini", "[partition]\ngenerator = dyadic\ntruncation = 1000\n")
    code, out = _run(["verify-main", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "PASS: gap-bounds sandwich s_infinity" in out.out
    assert "overall: PASS" in out.out
    doc = json.loads((tmp_path / "verify_main.json").read_text())
    assert doc["overall"] == "PASS"
    # gap window spreads over a quarter unit: only the inequality is asserted
    assert doc["note"]
    names = [a["name"] for a in doc["assertions"]]
    assert "s_infinity equals the box dimension" not in names


def test_verify_main_gauss_asserts_equality(tmp_path, capsys):
    # the paper's first theorem: s_infinity equals the box dimension of the endpoints
    cfg = _write_config(tmp_path, "g.ini", "[partition]\ngenerator = gauss\ntruncation = 100000\n")
    code, out = _run(["verify-main", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "PASS: s_infinity equals the box dimension" in out.out
    assert "overall: PASS" in out.out
    doc = json.loads((tmp_path / "verify_main.json").read_text())
    assert doc["overall"] == "PASS" and doc["note"] == ""
    assert [a["status"] for a in doc["assertions"]] == ["PASS"] * 4


def test_verify_main_log_squared_inconclusive(tmp_path, capsys):
    # s_infinity = 1, but the box window of 20,000 endpoints ends near 0.71:
    # below it by more than the tolerance, yet within the gap extrapolation
    # distance (0.33), so the miss is a resolution limit
    cfg = _write_config(tmp_path, "l.ini", "[partition]\ngenerator = log-squared\ntruncation = 20000\n")
    code, out = _run(["verify-main", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "INCONCLUSIVE: s_infinity at most the upper box dimension" in out.out
    assert "overall: INCONCLUSIVE" in out.out
    doc = json.loads((tmp_path / "verify_main.json").read_text())
    assert doc["overall"] == "INCONCLUSIVE"
    status = {a["name"]: a["status"] for a in doc["assertions"]}
    assert status["s_infinity at most the upper box dimension"] == "INCONCLUSIVE"


def test_verify_main_fails_where_the_box_window_is_past_the_lag(tmp_path, capsys):
    # 5,000 log-squared endpoints counted at deltas 2^-16 .. 2^-26: the box window (upper end
    # near 0.53) is further below s_infinity = 1 than the tolerance and the gap lag (0.35) together
    cfg = _write_config(tmp_path, "l.ini", "[partition]\ngenerator = log-squared\ntruncation = 5000\n\n"
                                           "[boxdim]\nj_min = 16\nj_max = 26\n")
    code, out = _run(["verify-main", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "FAIL: s_infinity at most the upper box dimension" in out.out
    doc = json.loads((tmp_path / "verify_main.json").read_text())
    assert doc["overall"] == "FAIL"
    status = {a["name"]: a["status"] for a in doc["assertions"]}
    assert status["s_infinity at most the upper box dimension"] == "FAIL"
    assert doc["box_dimension"]["upper_dim"] + 0.05 + 0.35 < doc["s_infinity"]["s_low"]


def test_verify_hdim_small_group(tmp_path, capsys):
    cfg = _write_config(tmp_path, "h.ini", GROUP21)
    code, out = _run(["verify-hdim", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "verify_hdim.json").read_text())
    assert doc["overall"] == "PASS"
    assert doc["three_way_spread"] <= 0.1
    assert doc["exponent_bracket"][0] <= 0.5 <= doc["exponent_bracket"][1] + doc["tol"]


def test_verify_hdim_tight_agreement_fails(tmp_path, capsys):
    cfg = _write_config(tmp_path, "h.ini", GROUP21 + "\n[verify]\nagreement = 1e-9\n")
    code, out = _run(["verify-hdim", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "FAIL" in out.out


def test_selftest_small_trials(tmp_path, capsys):
    cfg = _write_config(tmp_path, "s.ini", "[selftest]\ntrials = 400\n")
    code, out = _run(["selftest", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "overall: PASS" in out.out
    doc = json.loads((tmp_path / "selftest.json").read_text())
    assert doc["trials"] == 400
    assert len(doc["results"]) == 9
    assert all(r["passed"] == r["total"] for r in doc["results"])


# ---------------------------------------------------------------------------
# error handling


def test_missing_config_exits_2(tmp_path, capsys):
    code, out = _run(["s-infinity", "--config", str(tmp_path / "nope.ini")], capsys)
    assert code == 2
    assert out.err


@pytest.mark.parametrize("command", ["bowen", "verify-main", "orbit"])
def test_command_without_config_returns_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    code, out = _run([command], capsys)
    assert code == 2
    assert out.err == f"error: --config is required for {command}\n"
    assert not list(tmp_path.iterdir())


def test_selftest_without_out_writes_nothing(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, "s.ini", "[selftest]\ntrials = 50\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, out = _run(["selftest", "--config", str(cfg)], capsys)
    assert code == 0
    assert "overall: PASS" in out.out
    assert "wrote" not in out.out
    assert not list(work.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.ini", "work"]


def test_module_runs_as_a_script(monkeypatch, capsys):
    # `python -m presdim.cli` exits with main's code; run in this process, so line tracing sees it
    monkeypatch.setattr(sys, "argv", ["presdim", "s-infinity"])
    monkeypatch.delitem(sys.modules, "presdim.cli")  # runpy warns when the module is already imported
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("presdim.cli", run_name="__main__")
    assert exc.value.code == 2
    assert "--config is required for s-infinity" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_bad_generator_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bad.ini", "[partition]\ngenerator = fibonacci\ntruncation = 10\n")
    code, out = _run(["s-infinity", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "fibonacci" in out.err


def test_malformed_grid_exits_2(tmp_path, capsys):
    # a missing field, a zero step, and a stop below the start
    for grid in ("0.4:1.2", "1:2:0", "2:1:0.5"):
        cfg = _write_config(
            tmp_path, "g.ini",
            f"[partition]\ngenerator = gauss\ntruncation = 1000\n\n[pressure]\nt_grid = {grid}\n",
        )
        code, out = _run(["pressure", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 2, grid
        assert "t_grid" in out.err
    assert not (tmp_path / "pressure.csv").exists()


@pytest.mark.parametrize("command", ["orbit", "boxdim", "verify-hdim"])
def test_orbit_lattice_over_cap_exits_2(tmp_path, capsys, command):
    # 2 * 10^7 + 1 lattice points exceed the enumeration cap of 2 * 10^7
    text = ORBIT_21.replace("radius = 2000", "radius = 10000000")
    cfg = _write_config(tmp_path, "big.ini", text)
    code, out = _run([command, "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "[orbit] lattice cube has 20000001 points, above the cap" in out.err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["counting", "verify-hdim"])
def test_counting_levels_below_six_exit_2(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, "c.ini", GROUP21.replace("levels = 30", "levels = 3"))
    code, out = _run([command, "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "config error: [counting] need at least 6 levels" in out.err
    assert not list(tmp_path.glob("*.json"))


def test_boxdim_unknown_source_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "b.ini", "[partition]\ngenerator = gauss\ntruncation = 100\n\n"
                                           "[boxdim]\nsource = spiral\n")
    code, out = _run(["boxdim", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "[boxdim] source must be endpoints or orbit (got 'spiral')" in out.err


def test_selftest_trials_below_one_exit_2(tmp_path, capsys):
    for trials in (0, -1):
        cfg = _write_config(tmp_path, "s.ini", f"[selftest]\ntrials = {trials}\n")
        code, out = _run(["selftest", "--config", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 2, trials
        assert "[selftest] trials" in out.err
        assert "PASS" not in out.out
    assert not (tmp_path / "selftest.json").exists()


GAUSS_100 = "[partition]\ngenerator = gauss\ntruncation = 100\n"
DYADIC_100 = GAUSS_100.replace("gauss", "dyadic")
DIGITS_12 = "[partition]\ngenerator = gauss-restricted\ndigits = 1 2\n"
POINCARE_21 = "[group]\nambient = 2\nrank = 1\nalpha_1 = 1.0\n\n[poincare]\ns = 1.5\nradius = 10\n"


def test_pressure_dyadic_below_the_float_spacing_of_one(tmp_path, capsys):
    # 1 - 2^-t rounds to 0 below t = 1.1e-16, where the geometric tail, about 1/(t log 2), dominates
    cfg = _write_config(tmp_path, "d.ini", DYADIC_100 + "\n[pressure]\nt_list = 1e-17\n")
    code, _ = _run(["pressure", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    _, row = (tmp_path / "pressure.csv").read_text().splitlines()
    t, lower, upper, _, _, tail = row.split(",")
    with mpmath.workdps(50):
        r = mpmath.mpf(2) ** -mpmath.mpf(t)
        exact = mpmath.log(r / (1 - r))
    assert math.isfinite(float(tail))
    assert float(lower) <= float(upper) < math.inf
    assert float(lower) == pytest.approx(float(exact), rel=1e-14)
    assert float(upper) == pytest.approx(float(exact), rel=1e-14)


@pytest.mark.parametrize("command, text, message", [
    ("s-infinity", "generator = gauss\n", "cannot parse config"),
    ("s-infinity", GAUSS_100.replace("100", "many"), "[partition] truncation must be"),
    ("s-infinity", GAUSS_100.replace("100", "1e5"), "config error: [partition] truncation must be an integer"),
    ("s-infinity", GAUSS_100 + "\n[sinfinity]\ntol = tight\n", "config error: [sinfinity] tol must be a number"),
    ("poincare", POINCARE_21.replace("alpha_1 = 1.0", "alpha_1 = 1.0 one"), "[group] alpha_1 must list numbers"),
    ("s-infinity", "[partition]\ntruncation = 100\n", "missing [partition] generator"),
    # finite interval lists are built with the IntervalPartition constructor, which no config reaches
    *((command, f"[partition]\ngenerator = explicit\n\n{extra}",
       "config error: [partition] unknown generator 'explicit'")
      for command, extra in (("pressure", "[pressure]\nt_list = 1.0\n"), ("gaps", ""), ("bowen", ""))),
    ("s-infinity", "[partition]\ngenerator = gauss-restricted\ndigits = 1 x\n",
     "[partition] digits must list integers"),
    ("poincare", POINCARE_21.replace("rank = 1", "rank = 2\nalpha_2 = 2.0"), "config error: [group] rank"),
    ("boxdim", GAUSS_100 + "\n[boxdim]\nj_min = 10\nj_max = 10\n", "[boxdim] j_min must be below j_max"),
    ("boxdim", GAUSS_100 + "\n[boxdim]\nj_min = 6\nj_max = 10\n", "[boxdim] need a delta grid with at least 8 levels"),
    ("verify-main", GAUSS_100 + "\n[boxdim]\nj_min = 6\nj_max = 10\n",
     "[boxdim] need a delta grid with at least 8 levels"),
    ("bowen", GAUSS_100 + "\n[bowen]\nmethod = spline\n", "[bowen] method must be linear or cylinder (got 'spline')"),
    ("poincare", POINCARE_21.replace("s = 1.5", "s = -1.0"), "config error: [poincare] s must be nonnegative"),
    ("bowen", GAUSS_100 + "\n[bowen]\nmethod = cylinder\norder = 0\n",
     "config error: [bowen] cylinder order must be >= 1"),
    ("bowen", GAUSS_100 + "\n[bowen]\nmethod = cylinder\nalphabet_cap = 1\n",
     "config error: [bowen] a single-branch alphabet has no largest cylinder order; set the order"),
    ("bowen", GAUSS_100 + "\n[bowen]\ntol = -1\n", "config error: [bowen] tolerance must be positive"),
    ("bowen", GAUSS_100 + "\n[bowen]\ntol = nan\n", "config error: [bowen] tolerance must be positive"),
    ("s-infinity", GAUSS_100 + "\n[sinfinity]\ntol = nan\n", "config error: [sinfinity] tolerance must be positive"),
    ("verify-hdim", ORBIT_21 + "\n[verify]\nexponent_tol = nan\n", "config error: [verify] tol must be positive"),
    # halving stalls where the midpoint rounds to an end: an error, not an endless loop
    ("bowen", GAUSS_100 + "\n[bowen]\ntol = 1e-20\n",
     "config error: [bowen] tolerance 1e-20 is finer than the float spacing 1.1102230246251565e-16 at t = "),
    ("s-infinity", GAUSS_100 + "\n[sinfinity]\ntol = 1e-20\n",
     "config error: [sinfinity] tolerance 1e-20 is finer than the float spacing 1.1102230246251565e-16 at t = 0.5"),
    ("verify-hdim", ORBIT_21 + "\n[verify]\nexponent_tol = 1e-20\n",
     "config error: [verify] tolerance 1e-20 is finer than the float spacing 1.1102230246251565e-16 at t = 0.5"),
    ("poincare", POINCARE_21.replace("s = 1.5", "s = nan"), "config error: [poincare] s must be nonnegative"),
    # 2s overflows at s = 1e308; s is checked before any term, so no overflow warning either
    *(("poincare", POINCARE_21.replace("s = 1.5", f"s = {s}"),
       f"config error: [poincare] s must be finite, with 2s below the float range (got {s})")
      for s in ("inf", "1e+308")),
    ("counting", POINCARE_21 + "\n[counting]\nt_max = 2000\n",
     "config error: [counting] enumeration cap exceeded; the largest achievable t_max is 33.62"),
    ("counting", POINCARE_21 + "\n[counting]\nt_max = nan\n", "config error: [counting] t_max must be positive"),
    # independent in exact arithmetic, below the float certificate's resolution
    ("counting", POINCARE_21.replace("ambient = 2\nrank = 1\nalpha_1 = 1.0",
                                     "ambient = 3\nrank = 2\nalpha_1 = 1.0 0.0\nalpha_2 = 1.0 1e-8"),
     "config error: [group] translation vectors must be linearly independent"),
    ("s-infinity", GAUSS_100 + "\n[sinfinity]\ntol = 0\n", "config error: [sinfinity] tolerance must be positive"),
    ("verify-main", GAUSS_100 + "\n[sinfinity]\ntol = 0\n", "config error: [sinfinity] tolerance must be positive"),
    ("gaps", GAUSS_100.replace("100", "1000") + "\n[gaps]\nn_min = 5000\n",
     "config error: [gaps] gap exponents need at least 5000 intervals, got 1000"),
    ("bowen", GAUSS_100.replace("100", "1000") + "\n[bowen]\nt_low = 2\nt_high = 1\n",
     "config error: [bowen] t_low and t_high must be finite with t_low < t_high (got 2.0, 1.0)"),
    ("bowen", "[partition]\ngenerator = gauss-restricted\ndigits = 1 2\n\n"
              "[bowen]\nmethod = cylinder\norder = 8\nt_low = 0.9\nt_high = 0.9\n",
     "config error: [bowen] t_low and t_high must be finite with t_low < t_high (got 0.9, 0.9)"),
    ("bowen", GAUSS_100 + "\n[bowen]\nt_low = nan\n",
     "config error: [bowen] t_low and t_high must be finite with t_low < t_high (got nan, 8.0)"),
    ("boxdim", GROUP43.replace("j_min = 1\nj_max = 8\n", ""),
     "config error: [boxdim] delta below supported resolution 0.0001220703125 in R^4"),
    # 2^2000 and 2^1024 overflow to inf, and inf == 2 inf passes the doubling test
    *((command, GAUSS_100 + f"\n[boxdim]\n{grid}\n", "config error: [boxdim] deltas must be finite")
      for command, grid in (("boxdim", "j_min = -2000"), ("boxdim", "j_min = -1100\nj_max = -1000"),
                            ("verify-main", "j_min = -2000"))),
    # a pressure exponent that is not finite, given or reached by the grid, is a config error
    *(("pressure", partition + f"\n[pressure]\n{ts}\n",
       f"config error: [pressure] pressure exponent t must be finite (got {bad})")
      for partition, ts, bad in ((DYADIC_100, "t_list = nan 1.0", "nan"), (DIGITS_12, "t_list = nan 1.0", "nan"),
                                 (DYADIC_100, "t_list = inf", "inf"), (DYADIC_100, "t_grid = 0:1:inf", "nan"))),
    ("pressure", DYADIC_100 + "\n[pressure]\nt_grid = 0:1e300:1e-300\n",
     "config error: [pressure] t_grid needs step > 0, finite start <= stop and a finite number of steps"),
    # a nan or negative pad or agreement is a config error, not a FAIL verdict
    *(("verify-main", GAUSS_100 + f"\n[verify]\npad = {value}\n",
       f"config error: [verify] pad must be finite and nonnegative (got {value})") for value in ("nan", "-1.0", "inf")),
    *(("verify-hdim", ORBIT_21 + f"\n[verify]\nagreement = {value}\n",
       f"config error: [verify] agreement must be finite and nonnegative (got {value})")
      for value in ("nan", "-1.0", "inf")),
    *((command, ORBIT_21.replace("xi = 0.0", f"xi = {xi}"), f"config error: [orbit] {message}")
      for command in ("orbit", "boxdim", "verify-hdim")
      for xi, message in (("nan", "coordinates must be finite"), ("inf", "coordinates must be finite"),
                          ("0.0 0.0", "boundary point dimension does not match the group"),
                          ("", "boundary point dimension does not match the group"))),
])
def test_config_errors_exit_2_and_name_the_key(tmp_path, capsys, command, text, message):
    cfg = _write_config(tmp_path, "e.ini", text)
    code, out = _run([command, "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert message in out.err
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.json"))


def test_invalid_flag_values_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "g.ini", "[partition]\ngenerator = gauss\ntruncation = 1000\n")
    code, _ = _run(["s-infinity", "--config", str(cfg), "--out", str(tmp_path), "--threads", "0"], capsys)
    assert code == 2
    # tolerances and the truncation are config keys alone, so the hash in every artifact covers them
    for command, flag, value in (("s-infinity", "--tol", "0.1"), ("bowen", "--tol", "nan"),
                                 ("s-infinity", "--truncation", "2000")):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg), "--out", str(tmp_path), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_inline_comments_in_config(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "c.ini",
        "[partition]\ngenerator = gauss  ; reciprocal family\ntruncation = 1000  # small run\n",
    )
    code, _ = _run(["s-infinity", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads((tmp_path / "s_infinity.json").read_text())["truncation"] == 1000


@pytest.mark.parametrize("command, text, artifact, field, expected", [
    ("s-infinity", GAUSS_100.replace("100", "2000"), "s_infinity.json", "truncation", 2000),
    ("s-infinity", GAUSS_100 + "\n[sinfinity]\ntol = 0.003\n", "s_infinity.json", "tol", 0.003),
    ("verify-main", "[partition]\ngenerator = dyadic\ntruncation = 1000\n\n[verify]\npad = 0.25\n",
     "verify_main.json", "pad", 0.25),
    ("verify-hdim", GROUP21 + "\n[verify]\nexponent_tol = 0.02\n", "verify_hdim.json", "tol", 0.02),
], ids=["partition-truncation", "sinfinity-tol", "verify-pad", "verify-exponent-tol"])
def test_documented_inputs_reach_the_artifact(tmp_path, capsys, command, text, artifact, field, expected):
    cfg = _write_config(tmp_path, "i.ini", text)
    code, _ = _run([command, "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads((tmp_path / artifact).read_text())[field] == expected


# A fresh interpreter in which importing scipy fails: presdim must neither need it
# nor load it, also on the certified-tail paths (Gauss pressure, Poincare tail).
WITHOUT_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from presdim import cli

out, pressure_cfg, poincare_cfg = sys.argv[1:]
codes = [cli.main(["pressure", "--config", pressure_cfg, "--out", out + "/pressure"]),
         cli.main(["poincare", "--config", poincare_cfg, "--out", out + "/poincare"])]
assert codes == [0, 0], codes
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""


def test_runs_without_scipy(tmp_path):
    pressure_cfg = _write_config(
        tmp_path, "g.ini", "[partition]\ngenerator = gauss\ntruncation = 1000\n\n[pressure]\nt_list = 0.75 1.5\n"
    )
    poincare_cfg = _write_config(
        tmp_path, "p.ini", "[group]\nambient = 2\nrank = 1\nalpha_1 = 1.0\n\n[poincare]\ns = 1.5\nradius = 50\n"
    )
    src = str(Path(presdim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path), str(pressure_cfg), str(poincare_cfg)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "pressure" / "pressure.csv").exists()
    assert json.loads((tmp_path / "poincare" / "poincare.json").read_text())["tail_bound"] > 0.0


# ---------------------------------------------------------------------------
# README's synopsis and config table against what the CLI reads


README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_config_reads() -> set[tuple[str, str]]:
    """(section, key) of every literal `_get` and `_margin` read in cli.py; `alpha_{i}` counts as `alpha_1`."""
    reads = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "_get":
            section, key = node.args[1:3]
        elif node.func.id == "_margin":
            section, key = ast.Constant("verify"), node.args[1]
        else:
            continue
        if isinstance(key, ast.JoinedStr):
            key = ast.Constant("".join(part.value if isinstance(part, ast.Constant) else "1" for part in key.values))
        if isinstance(key, ast.Constant):  # `_margin` hands its key on to `_get` by name
            reads.add((section.value, key.value))
    return reads


def _readme_config_keys() -> set[tuple[str, str]]:
    """(section, key) of README's config table: each backticked name outside the notes in parentheses."""
    keys = set()
    for line in README.read_text().splitlines():
        row = re.fullmatch(r"\| `\[(\w+)\]` \| (.*?) \| .* \|", line)
        if row is None:
            continue
        cell, dropped = row.group(2), 1
        while dropped:  # innermost parentheses first, so nested ones go too
            cell, dropped = re.subn(r"\([^()]*\)", "", cell)
        keys.update((row.group(1), re.match(r"\w+", name).group()) for name in re.findall(r"`([^`]+)`", cell))
    return keys


def test_readme_synopsis_lists_every_parser_option():
    synopsis = next(line for line in README.read_text().splitlines() if line.startswith("presdim <command>"))
    options = {opt for action in cli._build_parser()._actions for opt in action.option_strings}
    assert set(re.findall(r"--[\w-]+", synopsis)) == options - {"-h", "--help"}


def test_readme_config_table_lists_every_key_the_cli_reads():
    reads = _cli_config_reads()
    assert ("group", "alpha_1") in reads and ("verify", "pad") in reads
    assert _readme_config_keys() == reads
