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


@pytest.mark.parametrize("t, status", [(0.45, "undetermined"), (0.49, "uncertified")])
def test_oscillating_pressure_without_tail_certificate(t, status):
    # inside the ratio band convergence is unknown; just above it the series
    # converges but no tail bound is certified; the partial sum is a lower bound either way
    s = pressure_linear(build_partition("oscillating", 100_000), t)
    assert s.status == status
    assert s.upper == s.tail_bound == math.inf
    assert math.isfinite(s.lower) and s.value == s.lower


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


def test_s_infinity_explicit_partition_all_converge():
    est = find_s_infinity(build_partition("explicit", intervals=[(0.5, 1.0), (0.0, 0.25)]))
    assert est.status == "all-converge"
    assert (est.s_low, est.s_high) == (0.0, 0.0)
    assert est.divergence_behavior == CONVERGES_AT_CRITICAL
    assert est.evidence.startswith("finite interval list")


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


def test_bowen_root_reports_root_below_range():
    br = bowen_root(lambda t: 0.5 - t, lambda t: 1.2 - t, t_range=(1.0, 2.0))
    assert br.status == "not-bracketed"
    assert "lower curve: root-below-range" in br.evidence
    assert "upper curve: ok" in br.evidence


def test_bowen_root_rejects_bad_tolerance():
    with pytest.raises(PartitionError, match="tolerance"):
        bowen_root(lambda t: 1.0 - t, lambda t: 1.2 - t, tol=0.0)


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


@pytest.mark.parametrize("generator, truncation, kwargs", [
    ("gauss", 20_000, {}),
    ("dyadic", 1000, {}),
    ("power-law", 200_000, {"exponent": 2.0}),
    ("log-squared", 100_000, {}),
])
def test_bowen_root_linear_brackets_pressure_sign_change(generator, truncation, kwargs):
    # the bracket ends are where the certified pressure bounds change sign
    part = build_partition(generator, truncation, **kwargs)
    br = bowen_root_linear(part)
    assert br.status == "bracketed"
    assert pressure_linear(part, br.lower).lower > 0 >= pressure_linear(part, br.upper).upper


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
    evaluated, reduced = [], []
    real_past, real_sum = pressure._linear_past, pressure.compensated_sum

    def counting_past(partition, t):
        evaluated.append(t)
        return real_past(partition, t)

    def counting_sum(values):
        reduced.append(values.tobytes())
        return real_sum(values)

    monkeypatch.setattr(pressure, "_linear_past", counting_past)
    monkeypatch.setattr(pressure, "compensated_sum", counting_sum)
    br = bowen_root_linear(build_partition("gauss", 20_000), tol=1e-9)
    # the lower and upper bisections share their midpoints
    assert len(evaluated) == len(set(evaluated)) > 30
    # the sum enclosures decide every sign: no exact reduction
    assert reduced == []
    # same bracket as when every curve evaluation ran its own reduction
    assert (br.lower, br.upper) == (0.9999999980912281, 1.000000001953873)


def test_bowen_root_linear_reduces_exactly_where_the_enclosure_straddles(monkeypatch):
    # at the first midpoint t = 1 the dyadic partial sum is 1 - 2^-1000: its
    # enclosure straddles 1, so the lower curve's sign needs the exact sum
    part = build_partition("dyadic", 1000)
    reduced = []
    real_sum = pressure.compensated_sum

    def counting_sum(values):
        reduced.append(values.copy())
        return real_sum(values)

    monkeypatch.setattr(pressure, "compensated_sum", counting_sum)
    br = bowen_root_linear(part, t_range=(0.5, 1.5))
    assert len(reduced) == 1
    assert np.array_equal(reduced[0], part.lengths ** 1.0)
    assert (br.lower, br.upper) == (0.9999999985343387, 1.0000000005343388)


def test_bowen_root_cylinder_samples_each_exponent_once(monkeypatch):
    evaluated, reduced = [], []
    real_past, real_sums = pressure._cylinder_past, pressure._cylinder_sums

    suffix_tables = []

    def counting_past(bmap, m, suffixes, side, t):
        evaluated.append((t, side))
        suffix_tables.append(suffixes)
        return real_past(bmap, m, suffixes, side, t)

    def counting_sums(bmap, m, suffixes, exponents, sides):
        reduced.extend((t, side) for t in exponents for side in sides)
        return real_sums(bmap, m, suffixes, exponents, sides)

    monkeypatch.setattr(pressure, "_cylinder_past", counting_past)
    monkeypatch.setattr(pressure, "_cylinder_sums", counting_sums)
    bmap = make_branch_map(build_partition("gauss-restricted", digits=(1, 2)))
    br = bowen_root_cylinder(bmap, 13, tol=1e-6)
    # each (exponent, side) pair is evaluated once; the lower curve reads only
    # sup-side sums and the upper only inf-side ones, 25 each, where sampling
    # both sides at every exponent took 80 evaluations
    assert len(evaluated) == len(set(evaluated)) == 50
    # the per-lead sum enclosures decide every sign: no exact reduction
    assert reduced == []
    # the depth n-1 suffix tables are built once per root, not once per evaluation
    assert all(tables is suffix_tables[0] for tables in suffix_tables)
    assert (br.lower, br.upper) == (0.526565962774217, 0.5364785450314877)


def test_bowen_root_cylinder_reduces_exactly_where_the_enclosure_straddles(monkeypatch):
    # two affine halves: every depth-12 word has D_w^-1 = 2^-12, so at the first
    # midpoint t = 1 both curves sum to exactly 1 and their enclosures straddle it
    bmap = make_branch_map(build_partition("explicit", intervals=[(0.0, 0.5), (0.5, 1.0)]))
    reduced = []
    real_sums = pressure._cylinder_sums

    def counting_sums(bmap, m, suffixes, exponents, sides):
        reduced.extend((t, side) for t in exponents for side in sides)
        return real_sums(bmap, m, suffixes, exponents, sides)

    monkeypatch.setattr(pressure, "_cylinder_sums", counting_sums)
    br = bowen_root_cylinder(bmap, 12, t_range=(0.5, 1.5))
    assert reduced == [(1.0, "sup"), (1.0, "inf")]
    assert (br.lower, br.upper) == (0.9999985231628418, 1.0000005231628417)


# every tiling generator has sum length = 1, so its pressure root is t = 1
ROOT_ONE_PARTITIONS = {
    name: build_partition(name, 1000, **kwargs)
    for name, kwargs in [("gauss", {}), ("dyadic", {}), ("power-law", {"exponent": 1.5}),
                         ("log-squared", {}), ("oscillating", {})]
}


@pytest.mark.parametrize("name", sorted(ROOT_ONE_PARTITIONS))
def test_series_converges_at_one(name):
    # find_s_infinity starts its search at t = 1, where the lengths of a tiling sum to at most 1
    assert ROOT_ONE_PARTITIONS[name].series_verdict(1.0).status == "converges"


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(ROOT_ONE_PARTITIONS)), offset=st.floats(-1e-3, 1e-3))
def test_linear_curve_signs_match_the_exact_sample(name, offset):
    # whether each curve is <= 0, wherever the enclosure decides it, is the sign of the exactly summed sample
    part = ROOT_ONE_PARTITIONS[name]
    t = 1.0 + offset
    lower_past, upper_past = pressure._linear_past(part, t)
    exact = pressure_linear(part, t)
    exact_lower = math.inf if exact.status == "undetermined" else exact.lower
    assert (lower_past, upper_past) == (not exact_lower > 0.0, not exact.upper > 0.0)


def _cylinder_case(partition, order, cap):
    """(branch map, order, cap, root of each side's curve) for the cylinder sign test."""
    bmap = make_branch_map(partition)
    br = bowen_root_cylinder(bmap, order, tol=1e-9, alphabet_cap=cap)
    return bmap, order, cap, {"sup": br.lower, "inf": br.upper}


CYLINDER_CASES = [
    _cylinder_case(build_partition("gauss-restricted", digits=(1, 2)), 9, None),
    _cylinder_case(build_partition("gauss", 1000), 3, 8),
    _cylinder_case(build_partition("explicit", intervals=[(0.0, 0.5), (0.5, 1.0)]), 9, None),
]


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(CYLINDER_CASES), side=st.sampled_from(["sup", "inf"]),
       offset=st.floats(-1e-3, 1e-3))
def test_cylinder_curve_signs_match_the_exact_sample(case, side, offset):
    # the lower curve sums the sup side, the upper curve the inf side
    bmap, order, cap, roots = case
    t = roots[side] + offset
    m = pressure._effective_alphabet(bmap, cap, order)
    past = pressure._cylinder_past(bmap, m, pressure._word_tables(bmap, m, order - 1), side, t)
    exact = pressure_cylinder_bracket(bmap, t, order, cap)
    assert past == (not (exact.lower if side == "sup" else exact.upper) > 0.0)


@pytest.mark.parametrize("lo, hi, expected", [
    (2.0, 3.0, False),
    (0.5, 2.0, None),  # straddles 1: only the exact sum decides
    (0.0, 0.5, True),  # a zero end compares correctly
    (0.5, 1.0, True),  # an end at exactly 1 decides only from above
    (1.0, 2.0, None),
    (2.0, math.inf, False),  # and so does an infinite one
    (math.nan, math.nan, None),  # nan fails both comparisons
])
def test_decided_only_where_both_ends_fix_the_sign(lo, hi, expected):
    # `_at_most_one` reads the exact sum (here 1.0) only where the ends leave "<= 1" open
    calls = []

    def exact():
        calls.append(1.0)
        return 1.0

    assert pressure._at_most_one(lo, hi, exact) is (True if expected is None else expected)
    assert len(calls) == (expected is None)


def test_log_is_positive_exactly_above_one():
    # the libm property that makes each "sum <= 1" decision the sign of log(sum), as the pressure samples report it
    ys = (np.float64(1.0).view(np.int64) + np.arange(-10**4, 10**4 + 1)).view(np.float64)
    assert all((math.log(y) > 0.0) == (y > 1.0) for y in ys.tolist())


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
