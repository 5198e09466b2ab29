"""Pressure brackets, critical exponents, and Bowen root enclosures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presdim import pressure
from presdim.interval_partition import PartitionError, build_partition, make_branch_map, refine_partition
from presdim.pressure import (
    CONVERGES_AT_CRITICAL,
    DIVERGES_AT_CRITICAL,
    bowen_root,
    bowen_root_cylinder,
    bowen_root_linear,
    classify_s_infinity_behavior,
    distortion_constant,
    find_s_infinity,
    pressure_cylinder_bracket,
    pressure_linear,
    pressure_over_grid,
)


# ---------------------------------------------------------------------------
# linear (single-branch) pressure


def test_gauss_pressure_vanishes_at_one():
    # sum 1/(n(n+1)) telescopes to 1, so P(1) = 0 exactly
    part = build_partition("gauss", 100000)
    s = pressure_linear(part, 1.0)
    assert s.status == "certified"
    assert s.method == "linear-series"
    assert s.lower <= 0.0 <= s.upper
    assert s.upper - s.lower < 1e-9


def test_gauss_pressure_divergent_below_half():
    part = build_partition("gauss", 100000)
    s = pressure_linear(part, 0.4)
    assert s.divergent
    assert s.value == math.inf
    assert s.upper == math.inf


def test_pressure_certified_brackets_nest_with_truncation():
    # both enclosures are certified for the same limit, so they intersect
    # and the deeper truncation is strictly narrower
    coarse = pressure_linear(build_partition("gauss", 2000), 0.8)
    fine = pressure_linear(build_partition("gauss", 4_000_000), 0.8)
    assert coarse.lower <= fine.upper and fine.lower <= coarse.upper
    assert fine.upper - fine.lower < 0.01 * (coarse.upper - coarse.lower)


def test_pressure_explicit_partition_exact():
    part = build_partition("explicit", intervals=[(0.5, 1.0), (0.0, 0.25)])
    s = pressure_linear(part, 2.0)
    assert s.lower == s.upper == pytest.approx(math.log(0.25 + 0.0625), rel=1e-15)
    assert s.tail_bound == 0.0


def test_pressure_over_grid_matches_single_calls():
    part = build_partition("dyadic", 200)
    grid = [0.5, 1.0, 1.5]
    samples = pressure_over_grid(part, grid)
    assert [s.t for s in samples] == grid
    for s in samples:
        direct = pressure_linear(part, s.t)
        assert s.value == direct.value
    # strictly decreasing in t
    assert samples[0].value > samples[1].value > samples[2].value


def test_pressure_monotone_decreasing_in_t():
    part = build_partition("power-law", 50000, exponent=1.5)
    ts = np.linspace(0.7, 3.0, 12)
    vals = [pressure_linear(part, float(t)).value for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# critical exponent of the length series


def test_s_infinity_gauss():
    est = find_s_infinity(build_partition("gauss", 100000), tol=1e-4)
    assert est.status == "bracket"
    assert est.s_low <= 0.5 <= est.s_high
    assert est.width <= 3e-4
    assert est.divergence_behavior == DIVERGES_AT_CRITICAL


def test_s_infinity_power_law():
    est = find_s_infinity(build_partition("power-law", 100000, exponent=1.5), tol=1e-4)
    assert est.s_low <= 2.0 / 3.0 <= est.s_high
    assert est.divergence_behavior == DIVERGES_AT_CRITICAL


def test_s_infinity_log_squared():
    est = find_s_infinity(build_partition("log-squared", 100000), tol=1e-4)
    assert est.s_low <= 1.0 <= est.s_high
    assert est.divergence_behavior == CONVERGES_AT_CRITICAL


def test_s_infinity_dyadic_all_converge():
    est = find_s_infinity(build_partition("dyadic", 1000))
    assert est.status == "all-converge"
    assert est.s_low == est.s_high == 0.0


def test_s_infinity_oscillating_band():
    est = find_s_infinity(build_partition("oscillating", 100000), tol=1e-4)
    assert est.status == "band"
    assert est.s_low <= 4.0 / 9.0 <= est.s_high
    # the band is genuine: local decay oscillates between two exponents
    assert est.width > 0.05


def test_s_infinity_rejects_bad_tolerance():
    with pytest.raises(PartitionError, match="tolerance"):
        find_s_infinity(build_partition("gauss", 100), tol=0.0)


def test_classification_annotations():
    div = classify_s_infinity_behavior(build_partition("gauss", 100000))
    assert div.verdict == DIVERGES_AT_CRITICAL
    assert "perturbation" in div.annotation
    conv = classify_s_infinity_behavior(build_partition("log-squared", 100000))
    assert conv.verdict == CONVERGES_AT_CRITICAL
    assert conv.annotation != div.annotation
    assert conv.stability_note


# ---------------------------------------------------------------------------
# Bowen roots


def test_bowen_root_synthetic_curves():
    br = bowen_root(lambda t: 1.0 - t, lambda t: 1.2 - t, t_range=(1e-6, 8.0), tol=1e-9)
    assert br.status == "bracketed"
    assert br.lower == pytest.approx(1.0, abs=1e-8)
    assert br.upper == pytest.approx(1.2, abs=1e-8)


def test_bowen_root_reports_unbracketed():
    br = bowen_root(lambda t: 1.0 - t, lambda t: 1.2 - t, t_range=(1e-6, 0.5))
    assert br.status == "not-bracketed"
    assert "not-bracketed" in br.evidence


def test_bowen_root_linear_dyadic():
    # sum 2^-nt = 1 exactly at t = 1
    br = bowen_root_linear(build_partition("dyadic", 1000), tol=1e-9)
    assert br.status == "bracketed"
    assert br.lower <= 1.0 <= br.upper
    assert br.upper - br.lower <= 4e-9


def test_bowen_root_linear_power_law():
    # h(n) = n^-1 telescopes to total mass 1, so the root is exactly 1
    part = build_partition("power-law", 200000, exponent=2.0)
    br = bowen_root_linear(part, tol=1e-6)
    assert br.status == "bracketed"
    assert br.lower <= 1.0 <= br.upper
    assert br.upper - br.lower <= 1e-4


# ---------------------------------------------------------------------------
# cylinder brackets (distortion-corrected iterates)


def test_distortion_constants():
    assert distortion_constant(make_branch_map(build_partition("dyadic", 100))).constant == 1.0
    gauss = distortion_constant(make_branch_map(build_partition("gauss", 100)))
    assert gauss.constant == 4.0
    assert gauss.log_constant == pytest.approx(math.log(4.0))


def test_cylinder_bracket_linear_map_is_exact():
    bmap = make_branch_map(build_partition("dyadic", 12))
    base = pressure_linear(refine_partition(bmap, 1), 0.9)
    for order in (2, 3):
        s = pressure_cylinder_bracket(bmap, 0.9, order)
        assert s.lower == pytest.approx(s.upper, abs=1e-13)
        assert s.value == pytest.approx(base.value, abs=1e-12)


def test_cylinder_bracket_width_obeys_distortion_bound():
    bmap = make_branch_map(build_partition("gauss-restricted", digits=(1, 2)))
    t = 0.53
    for order in (4, 8):
        s = pressure_cylinder_bracket(bmap, t, order)
        assert s.lower <= s.upper
        assert s.upper - s.lower <= 2.0 * t * math.log(4.0) / order + 1e-12


def test_bowen_root_cylinder_restricted_digits():
    bmap = make_branch_map(build_partition("gauss-restricted", digits=(1, 2)))
    coarse = bowen_root_cylinder(bmap, 6, tol=1e-6)
    fine = bowen_root_cylinder(bmap, 12, tol=1e-6)
    assert coarse.status == fine.status == "bracketed"
    # deeper cylinders shrink the enclosure around the common root
    assert coarse.lower - 1e-6 <= fine.lower and fine.upper <= coarse.upper + 1e-6
    assert fine.lower <= 0.5312805 <= fine.upper
    assert fine.upper - fine.lower < coarse.upper - coarse.lower


def test_bowen_root_linear_reduces_each_exponent_once(monkeypatch):
    reduced = []
    real_sum = pressure.compensated_sum

    def counting_sum(values):
        reduced.append(values.tobytes())
        return real_sum(values)

    monkeypatch.setattr(pressure, "compensated_sum", counting_sum)
    br = bowen_root_linear(build_partition("gauss", 20_000), tol=1e-9)
    # the lower and upper bisections share their midpoints
    assert len(reduced) == len(set(reduced)) > 30
    # same bracket as when every curve evaluation ran its own reduction
    assert (br.lower, br.upper) == (0.9999999980912281, 1.000000001953873)


def test_bowen_root_cylinder_samples_each_exponent_once(monkeypatch):
    reduced = []
    real_sums = pressure._cylinder_sums

    def counting_sums(bmap, order, exponents, sides, *args):
        reduced.extend((t, side) for t in exponents for side in sides)
        return real_sums(bmap, order, exponents, sides, *args)

    monkeypatch.setattr(pressure, "_cylinder_sums", counting_sums)
    bmap = make_branch_map(build_partition("gauss-restricted", digits=(1, 2)))
    br = bowen_root_cylinder(bmap, 13, tol=1e-6)
    # each (exponent, side) pair is reduced once; the lower curve reads only
    # sup-side sums and the upper only inf-side ones, 25 each, where sampling
    # both sides at every exponent took 80 reductions
    assert len(reduced) == len(set(reduced)) == 50
    assert (br.lower, br.upper) == (0.526565962774217, 0.5364785450314877)


@settings(max_examples=200, deadline=None)
@given(root=st.floats(-1.0, 3.0), tol=st.floats(1e-12, 1.0), strict=st.booleans())
def test_bisect_keeps_the_root_bracketed(root, tol, strict):
    past_root = (lambda t: t > root) if strict else (lambda t: t >= root)
    lo, hi = pressure._bisect(past_root, -1.5, 3.5, tol)
    assert hi - lo <= tol
    assert past_root(hi) and not past_root(lo)
    assert lo <= root <= hi


def test_bowen_root_cylinder_capped_gauss_pinned():
    # the same bits as when each exponent reduced both sides
    bmap = make_branch_map(build_partition("gauss", 1000))
    br = bowen_root_cylinder(bmap, 4, tol=1e-6, alphabet_cap=8)
    assert (br.lower, br.upper) == (0.8644727579992413, 0.9602026665654778)
