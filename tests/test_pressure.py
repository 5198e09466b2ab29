"""Pressure brackets, critical exponents, and Bowen root enclosures."""

import functools
import math
import random
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from presdim import interval_partition, pressure
from presdim.interval_partition import (
    IntervalPartition,
    PartitionError,
    build_partition,
    cylinder_derivative_sums,
    make_branch_map,
)
from presdim.pressure import (
    CONVERGES_AT_CRITICAL,
    DIVERGES_AT_CRITICAL,
    bowen_root_cylinder,
    bowen_root_linear,
    find_s_infinity,
    pressure_linear,
)


# ---------------------------------------------------------------------------
# linear (single-branch) pressure


def test_gauss_pressure_vanishes_at_one():
    # sum 1/(n(n+1)) telescopes to 1, so P(1) = 0 exactly
    part = build_partition("gauss", 100000)
    s = pressure_linear(part, 1.0)
    assert s.status == "certified"
    assert s.lower <= 0.0 <= s.upper
    assert s.upper - s.lower < 1e-9


def test_gauss_pressure_divergent_below_half():
    part = build_partition("gauss", 100000)
    s = pressure_linear(part, 0.4)
    assert s.status == "divergent"
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
    for tol in (0.0, math.nan):
        with pytest.raises(PartitionError, match="tolerance"):
            find_s_infinity(build_partition("gauss", 100), tol=tol)


# ---------------------------------------------------------------------------
# Bowen roots


def _past(root):
    """`_bisect` samples of the decreasing line root - t: whether it is <= 0 at t, and its value."""
    return lambda t: (root - t <= 0.0, root - t)


def test_root_bracket_synthetic_curves():
    br = pressure._root_bracket(_past(1.0), _past(1.2), t_range=(1e-6, 8.0), tol=1e-9, known=({}, {}))
    assert br.status == "bracketed"
    assert br.lower == pytest.approx(1.0, abs=1e-8)
    assert br.upper == pytest.approx(1.2, abs=1e-8)


def test_root_bracket_reports_unbracketed():
    br = pressure._root_bracket(_past(1.0), _past(1.2), t_range=(1e-6, 0.5), tol=1e-9, known=({}, {}))
    assert br.status == "not-bracketed"
    assert "not-bracketed" in br.evidence


def test_root_bracket_reports_root_below_range():
    br = pressure._root_bracket(_past(0.5), _past(1.2), t_range=(1.0, 2.0), tol=1e-9, known=({}, {}))
    assert br.status == "not-bracketed"
    assert "lower curve: root-below-range" in br.evidence
    assert "upper curve: ok" in br.evidence


def test_root_bracket_rejects_bad_tolerance():
    for tol in (0.0, math.nan):
        with pytest.raises(PartitionError, match="tolerance"):
            pressure._root_bracket(_past(1.0), _past(1.2), t_range=(1e-6, 8.0), tol=tol, known=({}, {}))


def test_root_bracket_samples_only_the_range_ends_it_lacks():
    sampled = []

    def sample(t):
        sampled.append(t)
        return _past(1.0)(t)

    known = ({1e-6: _past(1.0)(1e-6), 8.0: _past(1.0)(8.0)}, {1e-6: _past(1.2)(1e-6)})
    br = pressure._root_bracket(sample, _past(1.2), t_range=(1e-6, 8.0), tol=1e-9, known=known)
    assert br.status == "bracketed"
    assert 1e-6 not in sampled and 8.0 not in sampled
    assert 8.0 in known[1]


@pytest.mark.parametrize("t_range", [(2.0, 1.0), (0.9, 0.9), (math.nan, 8.0), (1e-6, math.inf)],
                         ids=["reversed", "empty", "nan-low", "inf-high"])
def test_root_bracket_rejects_empty_or_infinite_range(t_range):
    with pytest.raises(PartitionError, match="t_low and t_high must be finite with t_low < t_high"):
        pressure._root_bracket(_past(1.0), _past(1.2), t_range=t_range, tol=1e-9, known=({}, {}))


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


def _cylinder_curves(bmap, t, order, cap=None):
    """(lower, upper) = (1/n) log of the sup and the inf side's depth-n cylinder sums at t."""
    (sup_sum, inf_sum), = cylinder_derivative_sums(bmap, order, [t], alphabet_cap=cap)
    return math.log(sup_sum) / order, math.log(inf_sum) / order


def test_cylinder_bracket_linear_map_is_exact():
    part = build_partition("dyadic", 12)
    base = pressure_linear(IntervalPartition(part.left, part.right, "explicit"), 0.9)
    for order in (2, 3):
        lower, upper = _cylinder_curves(make_branch_map(part), 0.9, order)
        assert lower == pytest.approx(upper, abs=1e-13)
        assert 0.5 * (lower + upper) == pytest.approx(base.value, abs=1e-12)


def test_cylinder_bracket_width_obeys_distortion_bound():
    bmap = make_branch_map(build_partition("gauss-restricted", digits=(1, 2)))
    t = 0.53
    for order in (4, 8):
        lower, upper = _cylinder_curves(bmap, t, order)
        assert lower <= upper
        assert upper - lower <= 2.0 * t * math.log(4.0) / order + 1e-12


def test_bowen_root_cylinder_restricted_digits():
    bmap = make_branch_map(build_partition("gauss-restricted", digits=(1, 2)))
    coarse = bowen_root_cylinder(bmap, 6, tol=1e-6)
    fine = bowen_root_cylinder(bmap, 12, tol=1e-6)
    assert coarse.status == fine.status == "bracketed"
    # deeper cylinders shrink the enclosure around the common root
    assert coarse.lower - 1e-6 <= fine.lower and fine.upper <= coarse.upper + 1e-6
    assert fine.lower <= 0.5312805 <= fine.upper
    assert fine.upper - fine.lower < coarse.upper - coarse.lower


def _count(monkeypatch):
    """Spy on the one Bowen sampler.  Returns the (side, rows) of each `_cylinder_rows` call, and a record
    of each `_sample` call in order: its t and exponent e, its side ("lengths" for the linear row, else
    that of its rows), rows, tails and result, a copy of the summary as the call found it (`_reanchor`
    replaces its arrays, never writes them), and how many power passes (`_reanchor`) and exact sums
    (`_rows_total`) it took."""
    built, samples = [], []
    real_rows, real_sample, real_reanchor, real_total = (
        pressure._cylinder_rows, pressure._sample, pressure._reanchor, pressure._rows_total)

    def counting_rows(bmap, order, alphabet_cap, side):
        built.append((side, real_rows(bmap, order, alphabet_cap, side)))
        return built[-1][1]

    def counting_sample(rows, summary, e, tails):
        side = next((side for side, held in built if held is rows), "lengths")
        record = SimpleNamespace(t=e if side == "lengths" else -e, e=e, side=side, rows=rows, tails=tails,
                                 summary=list(summary), powered=0, reduced=0)
        samples.append(record)
        record.result = real_sample(rows, summary, e, tails)
        return record.result

    def counting_reanchor(rows, summary, e):
        samples[-1].powered += 1
        real_reanchor(rows, summary, e)

    def counting_total(rows, e):
        samples[-1].reduced += 1
        return real_total(rows, e)

    monkeypatch.setattr(pressure, "_cylinder_rows", counting_rows)
    monkeypatch.setattr(pressure, "_sample", counting_sample)
    monkeypatch.setattr(pressure, "_reanchor", counting_reanchor)
    monkeypatch.setattr(pressure, "_rows_total", counting_total)
    return built, samples


def _open(summary, e, tails):
    """Whether a summary's enclosure of the rows' sum at e leaves "<= 1" open on the curve of some tail."""
    lo, hi = pressure._summary_enclosure(summary, e)
    return not all(hi + tail <= 1.0 or lo + tail > 1.0 for tail in tails)


def _decisions(sample):
    """(power passes, exact sums) a `_count` record should take: a pass where the summary it found has an end
    that is not finite or leaves a sign open, and an exact sum where the summary re-anchored at e still does."""
    lo, hi = pressure._summary_enclosure(sample.summary, sample.e)
    if math.isfinite(lo) and math.isfinite(hi) and not _open(sample.summary, sample.e, sample.tails):
        return 0, 0
    summary = list(sample.summary)
    pressure._reanchor(sample.rows, summary, sample.e)
    return 1, int(_open(summary, sample.e, sample.tails))


def test_bowen_root_linear_reduces_each_exponent_once(monkeypatch):
    _, samples = _count(monkeypatch)
    verdicts = []  # one per sample of either curve
    real_verdict = IntervalPartition.series_verdict
    monkeypatch.setattr(IntervalPartition, "series_verdict", lambda self, t: verdicts.append(t) or real_verdict(self, t))
    part = build_partition("gauss", 20_000)
    br = bowen_root_linear(part, tol=1e-9)
    # one sample gives both curves, and the upper search starts from the lower one's
    # exponents: 13 samples, where plain halving took 37
    assert len(verdicts) == len(set(verdicts)) == 13
    monkeypatch.undo()  # `_decisions` runs power passes of its own
    # only the samples where the series converges need the sampler
    assert [s.t for s in samples] == [t for t in verdicts if part.series_verdict(t).status == "converges"]
    # a power pass runs only where the length summary leaves a sign open, and an exponent is
    # summed exactly at most once, only where the re-anchored summary's enclosure straddles 1
    assert [(s.powered, s.reduced) for s in samples] == [_decisions(s) for s in samples]
    # same bracket as when every curve evaluation ran its own reduction
    assert (br.lower, br.upper) == (0.9999999980912281, 1.000000001953873)


@pytest.mark.parametrize("name, kwargs", [("gauss", {}), ("power-law", {"exponent": 1.5})])
def test_bowen_root_linear_benchmark_roots_take_no_power_pass(monkeypatch, name, kwargs):
    # the benchmark's two linear roots at truncation 1,000,000: a sample below the divergence threshold
    # needs no enclosure, and the length summary decides every other one, with no power pass
    part = build_partition(name, 1_000_000, **kwargs)
    _, samples = _count(monkeypatch)
    br = bowen_root_linear(part, tol=1e-9)
    assert len(samples) <= 7
    assert [(s.powered, s.reduced) for s in samples] == [(0, 0)] * len(samples)
    assert (br.lower, br.upper) == (0.9999999990225504, 1.0000000010225505)


def test_linear_upper_curve_without_a_certified_tail_is_inf(monkeypatch):
    # at t = 0.49 the ratio window certifies that the oscillating series converges but bounds no upper
    # tail: that curve's sample is +inf, with no power pass and no exact sum
    part = build_partition("oscillating", 100_000)
    verdict = part.series_verdict(0.49)
    assert verdict.status == "converges" and verdict.tail_high is None
    _, samples = _count(monkeypatch)
    bowen_root_linear(part, t_range=(0.49, 1.5))
    first = samples[0]
    assert (first.t, first.tails) == (0.49, (verdict.tail_low, math.inf))
    upper_past, upper_estimate = first.result[1]
    assert upper_past is False and upper_estimate == math.inf
    assert first.powered == first.reduced == 0


def _rows_summary(rows):
    """The block summary `bowen_root_cylinder` builds for one side's rows: anchored at exponent 0."""
    return pressure._length_summary(*rows, head=0, anchor=0.0)


@pytest.mark.parametrize("order, bracket", [
    (13, (0.526565962774217, 0.5364785450314877)),
    (16, (0.5274442967098352, 0.5354943532599805)),  # the benchmark's E_2 root
], ids=["order-13", "order-16"])
def test_bowen_root_cylinder_samples_each_exponent_once(monkeypatch, order, bracket):
    built, samples = _count(monkeypatch)
    bmap = make_branch_map(build_partition("gauss-restricted", digits=(1, 2)))
    br = bowen_root_cylinder(bmap, order, tol=1e-6)
    # each (exponent, side) pair is sampled once; the lower curve reads only sup-side
    # sums and the upper only inf-side ones
    assert len(samples) == len({(s.t, s.side) for s in samples})
    # the block summaries decide the samples far from the roots: at most 8 raise every word to -t,
    # where one power pass per sample took 14
    assert sum(s.powered for s in samples) <= 8
    # the re-anchored summaries decide every sign: no exact reduction
    assert sum(s.reduced for s in samples) == 0
    # each side's rows are built once per root, not once per evaluation
    assert [side for side, _ in built] == ["sup", "inf"]
    assert (br.lower, br.upper) == bracket


STRADDLING_ROOTS = {
    # at t = 1 the dyadic partial sum is 1 - 2^-1000: its enclosure straddles 1,
    # so the lower curve's sign needs the exact sum
    "linear-dyadic": (lambda: bowen_root_linear(build_partition("dyadic", 1000), t_range=(0.5, 1.5)),
                      {(1.0, "lengths")}, (0.9999999985343387, 1.0000000005343388)),
    # two affine halves: every depth-12 word has D_w^-1 = 2^-12, so at t = 1 both
    # curves sum to exactly 1 and their enclosures straddle it
    "cylinder-halves": (lambda: bowen_root_cylinder(
        make_branch_map(build_partition("explicit", intervals=[(0.0, 0.5), (0.5, 1.0)])), 12, t_range=(0.5, 1.5)),
                        {(1.0, "sup"), (1.0, "inf")}, (0.9999985231628418, 1.0000005231628417)),
}


@pytest.mark.parametrize("name", sorted(STRADDLING_ROOTS))
def test_bowen_root_reduces_exactly_where_the_enclosure_straddles(monkeypatch, name):
    run, straddling, bracket = STRADDLING_ROOTS[name]
    _, samples = _count(monkeypatch)
    br = run()
    assert straddling <= {(s.t, s.side) for s in samples if s.reduced}
    monkeypatch.undo()  # `_decisions` runs power passes of its own
    assert [(s.powered, s.reduced) for s in samples] == [_decisions(s) for s in samples]
    assert (br.lower, br.upper) == bracket


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


# every built-in generator, past the summary's head of 4096 lengths where it has a model, with the
# exponent its series starts to converge at (0 for finite ones): 1.5 for log-squared, 4/9 for oscillating
SUMMARY_PARTITIONS = {
    "gauss": (build_partition("gauss", 50_000), 0.5),
    "dyadic": (build_partition("dyadic", 1000), 0.0),
    "power-law-1.5": (build_partition("power-law", 50_000, exponent=1.5), 2.0 / 3.0),
    "power-law-3": (build_partition("power-law", 50_000, exponent=3.0), 1.0 / 3.0),
    "log-squared": (build_partition("log-squared", 50_000), 1.0),
    "oscillating": (build_partition("oscillating", 50_000), 4.0 / 9.0),
    "gauss-restricted": (build_partition("gauss-restricted", digits=range(1, 6001)), 0.0),
    "explicit": (build_partition("explicit", intervals=[(k / 5000, (k + 1) / 5000) for k in range(1, 5000)]), 0.0),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(SUMMARY_PARTITIONS))
def test_summary_enclosure_holds_the_exact_sum(name, data):
    part, s_inf = SUMMARY_PARTITIONS[name]
    t = data.draw(st.one_of(st.sampled_from([0.75, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 8.0]),
                            st.floats(s_inf, 8.0, exclude_min=True)), label="t")
    lo, hi = pressure._summary_enclosure(pressure._length_summary(part.lengths), t)
    assert lo <= pressure.compensated_sum(part.lengths ** t) <= hi


def test_numpy_pow_stays_within_a_quarter_of_its_budget():
    # `_summary_enclosure` budgets _POW_ERR for each numpy pow; on the benchmark's lengths at truncation
    # 1,000,000, in a contiguous array and a strided one, at exponents t and t - 1 of the Bowen and
    # pressure samples, the error against 50 digits is at most a quarter of it
    rng = np.random.default_rng(1)
    worst = 0.0
    for name, kwargs in [("gauss", {}), ("power-law", {"exponent": 1.5}), ("log-squared", {}), ("oscillating", {})]:
        lengths = build_partition(name, 1_000_000, **kwargs).lengths
        picks = np.concatenate([lengths[:32], lengths[-32:], lengths[rng.integers(0, lengths.size, 40)]])
        strided = np.repeat(picks, 2)[::2]
        for t in (0.45, 0.5000001, 0.6, 0.9, 1.0 - 1e-10, 1.0 + 1e-10, 1.05, 1.45, 2.6, 4.0, 8.0):
            for e in (t, t - 1.0):
                with mpmath.workdps(50):
                    exact = [mpmath.power(mpmath.mpf(x), mpmath.mpf(e)) for x in picks.tolist()]
                    for powers in (picks ** e, strided ** e):
                        errors = (abs(mpmath.mpf(p) / x - 1) for p, x in zip(powers.tolist(), exact))
                        worst = max(worst, float(max(errors)))
    assert worst <= pressure._POW_ERR / 4


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


def _sample_near_a_root(kind, data, offset):
    """The `_sample` arguments of a linear root-one partition at 1 + offset, or of a cylinder side at its
    curve's root + offset, and the exactly summed value of each of its curves there."""
    if kind == "linear":
        part = ROOT_ONE_PARTITIONS[data.draw(st.sampled_from(sorted(ROOT_ONE_PARTITIONS)), label="name")]
        t = 1.0 + offset
        verdict = part.series_verdict(t)
        assume(verdict.status == "converges")  # bowen_root_linear samples the others as +inf without `_sample`
        exact = pressure_linear(part, t)
        tails = (verdict.tail_low, math.inf if verdict.tail_high is None else verdict.tail_high)
        return [part.lengths], pressure._length_summary(part.lengths), t, tails, (exact.lower, exact.upper)
    bmap, order, cap, roots = data.draw(st.sampled_from(CYLINDER_CASES), label="case")
    side = data.draw(st.sampled_from(["sup", "inf"]), label="side")  # the lower curve's, or the upper curve's
    t = roots[side] + offset
    rows = interval_partition._cylinder_rows(bmap, order, cap, side)
    lower, upper = _cylinder_curves(bmap, t, order, cap)
    return rows, _rows_summary(rows), -t, (0.0,), (lower if side == "sup" else upper,)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), offset=st.floats(-1e-3, 1e-3))
@pytest.mark.parametrize("kind", ["linear", "cylinder"])
def test_curve_signs_match_the_exact_sample(kind, data, offset):
    # whether each curve is <= 0, wherever the enclosure decides it, is the sign of the exactly summed sample
    rows, summary, e, tails, curves = _sample_near_a_root(kind, data, offset)
    assert [past for past, _ in pressure._sample(rows, summary, e, tails)] == [not curve > 0.0 for curve in curves]


@pytest.mark.parametrize("side", ["sup", "inf"])
@pytest.mark.parametrize("case", range(len(CYLINDER_CASES)), ids=["e2-order-9", "capped-gauss-8", "affine-halves"])
def test_rows_total_rounds_each_lead_once_and_adds_the_leads_exactly(case, side):
    # every exact cylinder sum is `_rows_total`: each lead's sum correctly rounded, then the leads' sums added
    # exactly and rounded once; rounding the whole side once instead gives other bits near these roots
    bmap, order, cap, roots = CYLINDER_CASES[case]
    rows = interval_partition._cylinder_rows(bmap, order, cap, side)
    for offset in (-1e-3, -1e-7, -1e-12, 0.0, 1e-12, 1e-7, 1e-3):
        t = roots[side] + offset
        expected = math.fsum([math.fsum((row ** -t).tolist()) for row in rows])
        assert interval_partition._rows_total(rows, -t).hex() == expected.hex()


# systems whose cylinder rows hold whole blocks of 256 words in every lead, and the affine one's a
# partial block too (the first 217 of each lead's 729 words)
SUMMARY_SYSTEMS = {
    "e2-order-10": (build_partition("gauss-restricted", digits=(1, 2)), 10, None),
    "capped-gauss-8": (build_partition("gauss", 1000), 4, 8),
    "capped-gauss-32": (build_partition("gauss", 1000), 3, 32),
    "gauss-restricted-10-73": (build_partition("gauss-restricted", digits=range(10, 74)), 3, None),
    "affine-thirds": (build_partition("explicit", intervals=[(0.0, 0.2), (0.2, 0.5), (0.5, 1.0)]), 7, None),
}
SUMMARY_ROOTS = [("linear", name) for name in sorted(SUMMARY_PARTITIONS)] + [
    ("cylinder", name) for name in sorted(SUMMARY_SYSTEMS)]


@functools.cache
def _summary_rows(name, side):
    partition, order, cap = SUMMARY_SYSTEMS[name]
    return interval_partition._cylinder_rows(make_branch_map(partition), order, cap, side)


@settings(max_examples=25, deadline=None)
@given(side=st.sampled_from(["sup", "inf"]),
       samples=st.lists(st.tuples(st.one_of(st.sampled_from([1e-6, 0.5, 1.0, 8.0]),
                                            st.floats(0.0, 8.0, exclude_min=True)), st.booleans()),
                        min_size=1, max_size=4))
@pytest.mark.parametrize("kind, name", SUMMARY_ROOTS, ids=[f"{kind}-{name}" for kind, name in SUMMARY_ROOTS])
def test_summary_encloses_the_rows_total_at_every_anchor(kind, name, side, samples):
    # anchored as each root starts, at 1 over the lengths (e = t) or at 0 over one side's rows (e = -t),
    # then at each earlier sample whose flag runs a power pass there
    if kind == "linear":
        rows, sign = [SUMMARY_PARTITIONS[name][0].lengths], 1.0
        summary = pressure._length_summary(*rows)
    else:
        rows, sign = _summary_rows(name, side), -1.0
        summary = _rows_summary(rows)
    for t, powered in samples:
        lo, hi = pressure._summary_enclosure(summary, sign * t)
        assert lo <= interval_partition._rows_total(rows, sign * t) <= hi
        if powered:
            pressure._reanchor(rows, summary, sign * t)


def test_cylinder_summary_covers_anchor_terms_lost_to_underflow():
    # 256 affine branches of length 1e-50: every depth-2 word has D_w near 1e100, so a power pass at
    # t = 3.3 leaves every anchor sum 0 (D_w^-3.3 underflows) while each D_w^-3 is near 1e-300
    bmap = make_branch_map(build_partition("explicit", intervals=[(k * 1e-48, k * 1e-48 + 1e-50) for k in range(256)]))
    rows = interval_partition._cylinder_rows(bmap, 2, None, "sup")
    summary = _rows_summary(rows)
    pressure._reanchor(rows, summary, -3.3)
    assert not summary[4].any()
    lo, hi = pressure._summary_enclosure(summary, -3.0)
    assert lo <= interval_partition._rows_total(rows, -3.0) <= hi < 1.0


def _overflowing_lengths():
    # a subnormal length's power t - 1 overflows at t = 0.01, so the summary's upper end is inf
    intervals = [(k / 5000, (k + 1) / 5000) for k in range(1, 5000)] + [(0.0, 5e-324)]
    part = build_partition("explicit", intervals=intervals)
    verdict = part.series_verdict(0.01)
    return [part.lengths], pressure._length_summary(part.lengths), 0.01, (verdict.tail_low, verdict.tail_high)


def _overflowing_rows():
    # a branch of length 1e-30: anchored by a power pass at t = 8, where the words with the most such
    # letters have D_w^-8 = 0, the block ends max^(8 - t) overflow at t = 0.5
    bmap = make_branch_map(build_partition("explicit", intervals=[(0.0, 1e-30), (1e-30, 0.5), (0.5, 1.0)]))
    rows = interval_partition._cylinder_rows(bmap, 7, None, "sup")
    summary = _rows_summary(rows)
    pressure._reanchor(rows, summary, -8.0)
    return rows, summary, -0.5, (0.0,)


def _nan_block_sum(t):
    rows = _summary_rows("e2-order-10", "inf")
    summary = _rows_summary(rows)
    summary[4][0] = math.nan  # a block sum
    return rows, summary, -t, (0.0,)


@pytest.mark.parametrize("case", [_overflowing_lengths, _overflowing_rows] + [
    functools.partial(_nan_block_sum, t) for t in (0.3, 0.53, 2.0)],
    ids=["linear-overflow", "cylinder-overflow", "cylinder-nan-0.3", "cylinder-nan-0.53", "cylinder-nan-2"])
def test_a_summary_end_that_is_inf_or_nan_forces_a_power_pass(monkeypatch, case):
    rows, summary, e, tails = case()
    assert not math.isfinite(pressure._summary_enclosure(summary, e)[1])
    _, samples = _count(monkeypatch)
    result = pressure._sample(rows, summary, e, tails)
    assert [s.powered for s in samples] == [1]
    total = interval_partition._rows_total(rows, e)
    assert [past for past, _ in result] == [total + tail <= 1.0 for tail in tails]


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("kind, name", SUMMARY_ROOTS, ids=[f"{kind}-{name}" for kind, name in SUMMARY_ROOTS])
def test_bowen_root_keeps_its_bits_without_the_summary(monkeypatch, kind, name, tol):
    # the summary only spares power passes and exact sums: with it deciding nothing, every sample takes a
    # pass, and an exact sum unless each tail exceeds 1 by itself, and the bracket is the same
    def root():
        if kind == "linear":
            return bowen_root_linear(SUMMARY_PARTITIONS[name][0], tol=tol)
        partition, order, cap = SUMMARY_SYSTEMS[name]
        return bowen_root_cylinder(make_branch_map(partition), order, tol=tol, alphabet_cap=cap)

    with_summary = root()
    _, samples = _count(monkeypatch)
    monkeypatch.setattr(pressure, "_summary_enclosure", lambda summary, e: (0.0, math.inf))
    without = root()
    assert len(samples) >= 4 and all(s.powered == 1 for s in samples)
    assert [s.reduced for s in samples] == [any(tail <= 1.0 for tail in s.tails) for s in samples]
    assert (without.lower, without.upper, without.status) == (
        with_summary.lower, with_summary.upper, with_summary.status)


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
    # `_curve_sample` reads the exact sum (here 1.0) only where the ends leave "<= 1" open
    calls = []

    def exact():
        calls.append(1.0)
        return 1.0

    past, _ = pressure._curve_sample(lo, hi, exact)
    assert past is (True if expected is None else expected)
    assert len(calls) == (expected is None)


def test_log_is_positive_exactly_above_one():
    # the libm property that makes each "sum <= 1" decision the sign of log(sum), as the pressure samples report it
    ys = (np.float64(1.0).view(np.int64) + np.arange(-10**4, 10**4 + 1)).view(np.float64)
    assert all((math.log(y) > 0.0) == (y > 1.0) for y in ys.tolist())


@settings(max_examples=200, deadline=None)
@given(root=st.floats(-1.0, 3.0), tol=st.floats(1e-12, 1.0), strict=st.booleans())
def test_bisect_keeps_the_root_bracketed(root, tol, strict):
    past_root = (lambda t: t > root) if strict else (lambda t: t >= root)
    lo, hi = pressure._bisect(lambda t: (past_root(t), math.nan), -1.5, 3.5, tol, {})
    assert hi - lo <= tol
    assert past_root(hi) and not past_root(lo)
    assert lo <= root <= hi


def _halving(past_root, lo, hi, tol):
    """Plain halving, the reference for `_bisect`: its (lo, hi) and the midpoints it samples."""
    mids = []
    while hi - lo > tol:
        mids.append(0.5 * (lo + hi))
        lo, hi = (lo, mids[-1]) if past_root(mids[-1]) else (mids[-1], hi)
    return (lo, hi), mids


# estimates of a curve with the given root at t; they change only where the guide
# places samples, never the bracket
ESTIMATES = {
    "smooth": lambda root, t, rng: math.expm1(root - t),  # convex and decreasing, like a pressure curve
    "garbage": lambda root, t, rng: rng.choice([rng.uniform(-1e3, 1e3), 0.0, 1e308, -1e308, 5e-324]),
    "inf": lambda root, t, rng: math.inf if t < root else -math.inf,
    "nan": lambda root, t, rng: math.nan,
    "sign-only": lambda root, t, rng: 1.0 if t < root else -1.0,
}


def _guided(kind, root, tol, strict, seed=0, ends_known=True):
    """`_bisect` on (1e-6, 8) against plain halving: (guided (lo, hi), reference (lo, hi), exponents sampled, midpoints)."""
    past_root = (lambda t: t > root) if strict else (lambda t: t >= root)
    rng = random.Random(seed)
    sampled = []

    def sample(t):
        sampled.append(t)
        return past_root(t), ESTIMATES[kind](root, t, rng)

    known = {t: (past_root(t), ESTIMATES[kind](root, t, rng)) for t in (1e-6, 8.0)} if ends_known else {}
    guided = pressure._bisect(sample, 1e-6, 8.0, tol, known)
    reference, mids = _halving(past_root, 1e-6, 8.0, tol)
    return guided, reference, sampled, mids


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(ESTIMATES)),
       root=st.floats(1e-6, 8.0, exclude_min=True, exclude_max=True),
       tol=st.floats(1e-12, 1.0), strict=st.booleans(), seed=st.integers(0, 2**32), ends_known=st.booleans())
def test_guided_bisect_returns_the_plain_halving_bracket(kind, root, tol, strict, seed, ends_known):
    guided, reference, sampled, mids = _guided(kind, root, tol, strict, seed, ends_known)
    assert guided == reference
    assert len(sampled) == len(set(sampled)) <= 4 * len(mids)


def test_guided_bisect_halves_the_samples_on_a_smooth_curve():
    rng = random.Random(1)
    cases = [(rng.uniform(1e-6, 8.0), 10.0 ** rng.uniform(-12, 0)) for _ in range(200)]
    runs = [_guided("smooth", root, tol, strict=False) for root, tol in cases]
    assert all(guided == reference for guided, reference, _, _ in runs)
    assert sum(len(sampled) for *_, sampled, _ in runs) <= 0.45 * sum(len(mids) for *_, mids in runs)


@pytest.mark.parametrize("kind", ["nan", "inf"])
def test_guided_bisect_samples_plain_midpoints_without_finite_estimates(kind):
    # no guide through a nan or infinite estimate: every sample is a plain midpoint
    guided, reference, sampled, mids = _guided(kind, 2.5, 1e-9, strict=False)
    assert guided == reference
    assert sampled == mids


def test_guided_bisect_samples_the_midpoint_when_the_secant_leaves_the_bracket():
    # estimates equal to t put every guide, secant or inverse quadratic, at t = 0, left of (a, b)
    sampled = []

    def sample(t):
        sampled.append(t)
        return t >= 2.5, t

    guided = pressure._bisect(sample, 1e-6, 8.0, 1e-9, {1e-6: (False, 1e-6), 8.0: (True, 8.0)})
    reference, mids = _halving(lambda t: t >= 2.5, 1e-6, 8.0, 1e-9)
    assert guided == reference
    assert sampled == mids


def test_guided_bisect_samples_the_midpoint_where_estimates_repeat():
    # estimates 1 below the root and -2 past it: the first secant lands near 8/3, off the midpoints,
    # and from then on every three estimates repeat one, which divides by zero in the guide,
    # so every later sample is a plain midpoint that the first sample left open
    sampled = []

    def sample(t):
        sampled.append(t)
        return t >= 2.5, 1.0 if t < 2.5 else -2.0

    guided = pressure._bisect(sample, 1e-6, 8.0, 1e-9, {1e-6: (False, 1.0), 8.0: (True, -2.0)})
    reference, mids = _halving(lambda t: t >= 2.5, 1e-6, 8.0, 1e-9)
    first = sampled[0]
    assert guided == reference
    assert first not in mids and abs(first - 8.0 / 3.0) < 1e-6
    assert sampled[1:] == [m for m in mids if m < first]


def test_guided_bisect_samples_the_midpoint_after_three_guided_samples():
    # estimates (6 - t)^3 have a triple root, where interpolation converges slowly: three guided
    # samples creep down from 8 and leave the first midpoint 4 open, so it is sampled fourth
    sampled = []

    def sample(t):
        sampled.append(t)
        return t >= 6.0, (6.0 - t) ** 3

    guided = pressure._bisect(sample, 0.0, 8.0, 1e-9, {0.0: (False, 216.0), 8.0: (True, -8.0)})
    assert all(4.0 < t < 8.0 for t in sampled[:3])
    assert sampled[3] == 4.0
    assert guided == _halving(lambda t: t >= 6.0, 0.0, 8.0, 1e-9)[0]


@pytest.mark.parametrize("points, expected", [
    ([], math.nan),
    ([(1.0, 2.0)], math.nan),
    ([(0.0, 1.0), (2.0, -1.0)], 1.0),  # the secant
    ([(0.0, 1.0), (1.0, 0.0), (4.0, -1.0)], 1.0),  # t = (1 - f)^2 through three points: its value at f = 0
    ([(0.0, 1.0), (2.0, 1.0)], math.nan),  # equal estimates
    ([(0.0, 1.0), (1.0, -1.0), (2.0, 1.0)], math.nan),
], ids=["none", "one", "two", "three", "two-equal", "three-equal"])
def test_guide_interpolates_the_inverse_curve(points, expected):
    guide = pressure._guide(points)
    assert guide == expected or math.isnan(guide) and math.isnan(expected)


def test_bowen_root_cylinder_capped_gauss_pinned():
    # the same bits as when each exponent reduced both sides
    bmap = make_branch_map(build_partition("gauss", 1000))
    br = bowen_root_cylinder(bmap, 4, tol=1e-6, alphabet_cap=8)
    assert (br.lower, br.upper) == (0.8644727579992413, 0.9602026665654778)


def test_bowen_root_cylinder_benchmark_capped_gauss_pinned(monkeypatch):
    # the benchmark's capped-Gauss root (order 4, cap 32, 1,048,576 words per side) raises every word
    # to -t in at most 8 of its samples, where one power pass per sample took 16, none of them close
    # enough to a root for the re-anchored summary to straddle 1, so no exact sums; each side's words
    # are walked once: one suffix table per side
    built, samples = _count(monkeypatch)
    walks = []
    real_walk = interval_partition._word_tables
    monkeypatch.setattr(interval_partition, "_word_tables", lambda *args: walks.append(args[-1]) or real_walk(*args))
    bmap = make_branch_map(build_partition("gauss", 1000))
    br = bowen_root_cylinder(bmap, 4, tol=1e-6, alphabet_cap=32)
    assert len(samples) == len({(s.t, s.side) for s in samples})
    assert sum(s.powered for s in samples) <= 8
    assert sum(s.reduced for s in samples) == 0
    assert [side for side, _ in built] == ["sup", "inf"] and walks == [3, 3]
    assert (br.lower, br.upper) == (0.9435027850467563, 1.0266823411778805)


@pytest.mark.parametrize("run", [
    lambda bmap: bowen_root_cylinder(bmap, 4, tol=1e-6, alphabet_cap=32),
    lambda bmap: cylinder_derivative_sums(bmap, 4, [0.9, 1.0], alphabet_cap=32),
], ids=["bowen_root_cylinder", "cylinder_derivative_sums"])
def test_cylinder_sums_hold_one_side_of_rows(run):
    # peak traced memory at the benchmark's capped Gauss (order 4, cap 32): one side's rows (8 bytes per word),
    # the depth n-1 suffix tables (four arrays) and 2 MiB of per-lead temporaries; both sides would not fit
    bmap = make_branch_map(build_partition("gauss", 1000))
    words, suffix_words = 32 ** 4, 32 ** 3
    tracemalloc.start()
    try:
        run(bmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * words + 4 * 8 * suffix_words + 2 * 2**20
