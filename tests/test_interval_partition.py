"""Construction, certified series verdicts, and cylinder machinery."""

import itertools
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from presdim.boxdim import gap_exponent_bounds
from presdim.interval_partition import (
    IntervalPartition,
    PartitionError,
    _OscillatingLengths,
    _derivative_range,
    _effective_alphabet,
    _word_tables,
    build_partition,
    cylinder_derivative_sums,
    make_branch_map,
    max_cylinder_order,
)


# ---------------------------------------------------------------------------
# construction


def _partition(left, right):
    """A finite interval list, given in the constructor's order: decreasing right endpoint."""
    return IntervalPartition(np.array(left), np.array(right), "explicit")


def test_gauss_lengths_and_tiling():
    part = build_partition("gauss", 500)
    n = np.arange(1, 501, dtype=float)
    assert part.count == 500
    np.testing.assert_allclose(part.lengths, 1.0 / (n * (n + 1.0)), rtol=1e-12)
    assert part.right[0] == 1.0
    # truncated intervals plus the exact tail length tile [0, 1]
    assert abs(part.tiling_defect()) < 1e-15
    assert part.model is not None


@pytest.mark.parametrize("generator, kwargs, closed_form", [
    ("gauss", {}, lambda n: 1.0 / n),
    ("dyadic", {}, lambda n: 2.0 ** (1.0 - n)),
    ("power-law", {"exponent": 1.5}, lambda n: n ** (1.0 - 1.5)),
    # numpy's scalar power may take 1/n for the exponent -1
    ("power-law", {"exponent": 2.0}, lambda n: n ** (1.0 - 2.0)),
    ("power-law", {"exponent": 2.75}, lambda n: n ** (1.0 - 2.75)),
    ("log-squared", {}, lambda n: math.log(2.0) / np.log(n + 1.0)),
    ("oscillating", {}, lambda n: np.exp(-_OscillatingLengths._phi(np.log(n)))),
])
def test_endpoints_built_in_place_keep_the_closed_form_bits(generator, kwargs, closed_form):
    # a model may write h(n) into the fresh array n it is given, with the bits of the closed form of its own n
    truncation = 1000 if generator == "dyadic" else 10**5
    part = build_partition(generator, truncation, **kwargs)
    h = closed_form(np.arange(1, truncation + 2, dtype=float))
    assert part.right.tobytes() == h[:-1].tobytes()
    assert part.left.tobytes() == h[1:].tobytes()
    assert part.model.right_endpoint(np.arange(1, truncation + 2, dtype=float)).tobytes() == h.tobytes()
    assert part.model.length_tail_exact(truncation) == h[-1]


def test_dyadic_lengths():
    part = build_partition("dyadic", 40)
    np.testing.assert_allclose(part.lengths, 2.0 ** -np.arange(1, 41, dtype=float))
    assert part.right[0] == 1.0


def test_dyadic_truncation_cap():
    with pytest.raises(PartitionError, match="underflow"):
        build_partition("dyadic", 1001)


def test_power_law_needs_exponent():
    with pytest.raises(PartitionError, match="exponent"):
        build_partition("power-law", 100)
    # a decay this slow rounds h(1) and h(2) to the same float
    with pytest.raises(PartitionError, match="every interval needs positive length"):
        build_partition("power-law", 100, exponent=1 + 2**-52)
    part = build_partition("power-law", 100, exponent=1.5)
    h = np.arange(1, 102, dtype=float) ** (1.0 - 1.5)
    np.testing.assert_allclose(part.lengths, h[:-1] - h[1:], rtol=1e-14)


def test_keyword_generator_mismatch_rejected():
    with pytest.raises(PartitionError, match="digits only apply"):
        build_partition("gauss", 100, digits=(1, 2))
    with pytest.raises(PartitionError, match="exponent only applies"):
        build_partition("dyadic", 100, exponent=1.5)


def test_unknown_generator():
    with pytest.raises(PartitionError, match="unknown generator"):
        build_partition("fibonacci", 10)


@pytest.mark.parametrize("generator, kwargs", [
    ("gauss", {"exponant": 2.0}),
    ("oscillating", {"first_boundary": 5.0}),
    ("gauss", {"enforce_accumulation": False}),
])
def test_unknown_keywords_rejected(generator, kwargs):
    # a misspelled or retired keyword must not land silently in params
    with pytest.raises(TypeError):
        build_partition(generator, 10, **kwargs)


def test_gauss_restricted_digits():
    part = build_partition("gauss-restricted", digits=(1, 2))
    # branch intervals [1/(d+1), 1/d] for d = 1, 2, sorted by right endpoint
    np.testing.assert_allclose(part.right, [1.0, 0.5])
    np.testing.assert_allclose(part.left, [0.5, 1.0 / 3.0])
    with pytest.raises(PartitionError, match="positive integers"):
        build_partition("gauss-restricted", digits=(0, 2))


def test_explicit_intervals_validation():
    part = _partition([0.5, 0.1], [1.0, 0.3])
    assert part.count == 2
    assert part.model is None
    with pytest.raises(PartitionError, match="overlap"):
        _partition([0.4, 0.1], [1.0, 0.5])
    with pytest.raises(PartitionError, match="inside"):
        _partition([0.5], [1.2])
    with pytest.raises(PartitionError, match="positive length"):
        _partition([0.5], [0.5])


def test_sorted_lengths_decreasing():
    # oscillating lengths are not monotone in n, so the gap ratios need the sort
    part = build_partition("oscillating", 3000)
    assert np.any(np.diff(part.lengths) > 0)
    gb = gap_exponent_bounds(part)
    s = sorted(part.lengths.tolist(), reverse=True)
    ratios = [math.log(n) / -math.log(s[n - 1]) for n in range(16, len(s) + 1)]
    assert (gb.window_min, gb.window_max) == (min(ratios), max(ratios))
    assert gb.edge_drift == abs(ratios[-1] - ratios[int(0.1 * len(s)) - 16])


# ---------------------------------------------------------------------------
# certified series verdicts (tails checked against brute-force partial sums)


def _brute_tail(generator: str, t: float, m: int, n_big: int = 4_000_000, **kw):
    """Partial tail past m, plus the certified remainder past n_big."""
    big = build_partition(generator, n_big, **kw)
    partial = float(np.sum(big.lengths[m:] ** t))
    rem = big.series_verdict(t)
    assert rem.status == "converges"
    return partial + rem.tail_low, partial + rem.tail_high


def test_gauss_verdict_converges_with_sandwich():
    part = build_partition("gauss", 2000)
    v = part.series_verdict(0.75)
    assert v.status == "converges"
    lo, hi = _brute_tail("gauss", 0.75, 2000)
    assert v.tail_low <= hi and lo <= v.tail_high
    assert v.tail_high - v.tail_low < 1e-4


def test_gauss_verdict_diverges_at_half():
    part = build_partition("gauss", 2000)
    assert part.series_verdict(0.5).status == "diverges"
    assert part.series_verdict(0.499).status == "diverges"


def test_dyadic_verdict_exact_geometric():
    part = build_partition("dyadic", 50)
    v = part.series_verdict(0.8)
    r = 2.0 ** -0.8
    exact = r ** 51 / (1.0 - r)
    assert v.status == "converges"
    assert v.tail_low == v.tail_high == pytest.approx(exact, rel=1e-14)


def test_power_law_verdict_threshold():
    part = build_partition("power-law", 2000, exponent=1.5)
    assert part.series_verdict(2.0 / 3.0).status == "diverges"
    v = part.series_verdict(0.8)
    assert v.status == "converges"
    lo, hi = _brute_tail("power-law", 0.8, 2000, exponent=1.5)
    assert v.tail_low <= hi and lo <= v.tail_high


def test_log_squared_verdict_exact_at_one():
    part = build_partition("log-squared", 1000)
    v = part.series_verdict(1.0)
    assert v.status == "converges"
    # telescoping tail is exact: the partial sums are h(m+1) - h(n+1)
    assert v.tail_low == v.tail_high
    assert v.tail_high == pytest.approx(math.log(2.0) / math.log(1002.0), rel=1e-14)
    assert part.series_verdict(0.999).status == "diverges"


def _mp_oscillating_phi(x):
    """phi(x) = min(x, 3) plus slope (2, 1, 2, ...) times the part of x in each block [3^j, 3^(j+1)]."""
    phi, lo, slope = min(x, 3), mpmath.mpf(3), 2
    while lo < x:
        phi += slope * (min(x, 3 * lo) - lo)
        lo, slope = 3 * lo, 3 - slope
    return phi


def test_oscillating_right_endpoint_matches_mpmath():
    # n up to 1e300 reaches the sixth block (log n = 690.8 lies in [243, 729]); points
    # next to the block boundaries 3^j check that no block is left out
    edges = np.exp(3.0 ** np.arange(1, 6))
    n = np.unique(np.concatenate([
        np.arange(1.0, 2000.0), np.geomspace(1.0, 1e300, 2000),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf), [1e300],
    ]))
    model = build_partition("oscillating", 10).model
    # reference: every block up to 3^26 > 1e12, far past log of the largest float
    x = np.log(n)
    phi_all, lo, slope = np.minimum(x, 3.0), 3.0, 2.0
    while lo <= 1e12:
        phi_all = phi_all + slope * (np.clip(x, lo, lo * 3.0) - lo)
        lo, slope = lo * 3.0, 3.0 - slope
    assert np.array_equal(model._phi(x), phi_all)
    h = model.right_endpoint(n)
    with mpmath.workdps(50):
        for ni, hi in zip(n.tolist(), h.tolist()):
            ref = mpmath.exp(-_mp_oscillating_phi(mpmath.log(mpmath.mpf(ni))))
            # log n is rounded (0.5 ulp of up to 691), and phi has slopes <= 2 over
            # at most six blocks: 1e-12 relative, plus the subnormal spacing
            assert abs(hi - ref) <= 1e-12 * ref + 2.0 ** -1074, ni


def test_oscillating_verdict_three_regimes():
    part = build_partition("oscillating", 3000)
    assert part.series_verdict(0.6).status == "converges"
    assert part.series_verdict(0.2).status == "diverges"
    # inside the asymptotic ratio window nothing is certified
    assert part.series_verdict(0.40).status == "undetermined"


# ---------------------------------------------------------------------------
# certified tails against 50-digit mpmath references


def _mp_tail(term, m):
    """sum_{n > m} term(n) by mpmath nsum (Euler-Maclaurin); call inside workdps(50)."""
    return mpmath.nsum(term, [m + 1, mpmath.inf], method="euler-maclaurin")


@pytest.mark.parametrize("t, m", [(1.3, 1000), (2.5, 100), (1.3, 10**6), (2.5, 10**6)])
def test_gauss_verdict_encloses_exact_tail(t, m):
    v = build_partition("gauss", 10).model.series_verdict(t, m)
    with mpmath.workdps(50):
        T = mpmath.mpf(t)
        assert v.tail_low <= _mp_tail(lambda n: (n * (n + 1)) ** -T, m) <= v.tail_high


@pytest.mark.parametrize("p, t, m", [(1.5, 2.0, 100), (1.5, 2.0, 10**6), (2.5, 0.8, 1000), (2.5, 1.3, 10**6)])
def test_power_law_verdict_encloses_exact_tail(p, t, m):
    v = build_partition("power-law", 10, exponent=p).model.series_verdict(t, m)
    with mpmath.workdps(50):
        T, q = mpmath.mpf(t), mpmath.mpf(p) - 1
        assert v.tail_low <= _mp_tail(lambda n: (n ** -q - (n + 1) ** -q) ** T, m) <= v.tail_high


@pytest.mark.parametrize("m", [16, 1000])
@pytest.mark.parametrize("t", [1e-17, 1e-12, 1e-6, 0.5, 2.0])
def test_dyadic_tail_matches_the_geometric_sum(t, m):
    # sum_{n > m} 2^(-n t) = r^(m+1) / (1 - r), r = 2^-t: 1 - r rounded cancels the digits of t, and is 0
    # below t = 1.1e-16, so the denominator is an expm1; the rounded r is off by half an ulp, which the
    # power m + 1 scales.  At m = 1000, t = 2 the tail is 2^-2002 / (3/4), below every float
    v = build_partition("dyadic", 10).model.series_verdict(t, m)
    assert v.tail_low == v.tail_high
    with mpmath.workdps(50):
        r = mpmath.mpf(2) ** -mpmath.mpf(t)
        exact = r ** (m + 1) / (1 - r)
        assert abs(v.tail_high - exact) <= (m + 4) * 2.0 ** -53 * exact + 2.0 ** -1074


_P = 1.7
# the comparison sums behind each zeta verdict, (generator kwargs, lower or None, upper),
# as functions of (t, m) in mpmath
ZETA_TEMPLATES = {
    "gauss": ({}, lambda t, m: mpmath.zeta(2 * t, m + 1) * (1 + mpmath.mpf(1) / (m + 1)) ** -t,
              lambda t, m: mpmath.zeta(2 * t, m + 1)),
    "power-law": ({"exponent": _P}, lambda t, m: (_P - 1) ** t * mpmath.zeta(_P * t, m + 2),
                  lambda t, m: (_P - 1) ** t * mpmath.zeta(_P * t, m + 1)),
    "log-squared": ({}, None, lambda t, m: mpmath.log(2) ** t * mpmath.log(m + 2) ** (-2 * t) * mpmath.zeta(t, m + 2)),
    "oscillating": ({}, None, lambda t, m: 2 ** t * mpmath.zeta(2 * t, m + 1)),
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(ZETA_TEMPLATES)), t=st.floats(0.55, 4.0), m=st.integers(1, 10**6))
def test_zeta_verdicts_round_outward(name, t, m):
    # the sandwich templates themselves, not just the exact tails, lie inside
    # [tail_low, tail_high]: every zeta value and product is rounded outward
    kwargs, lower, upper = ZETA_TEMPLATES[name]
    v = build_partition(name, 10, **kwargs).model.series_verdict(t, m)
    assume(v.tail_high < math.inf and "telescoping" not in v.evidence)
    with mpmath.workdps(50):
        T = mpmath.mpf(t)
        assert upper(T, m) <= v.tail_high
        if lower is not None:
            assert v.tail_low <= lower(T, m)


# where each built-in model certifies an upper tail at t > 0: every converging verdict but the oscillating
# ratio window's, and power-law's where p t rounded down is not above 1, so zeta(p t) has no finite bound
CERTIFIES_UPPER_TAIL = {
    "gauss": lambda t: t > 0.5,
    "dyadic": lambda t: True,
    "power-law": lambda t: math.nextafter(_P * t, -math.inf) > 1.0,
    "log-squared": lambda t: t >= 1.0,
    "oscillating": lambda t: t > 0.5,
}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CERTIFIES_UPPER_TAIL)),
       t=st.one_of(st.floats(-4.0, 0.0), st.floats(1e-6, 8.0), st.sampled_from([0.5, 1.0, 1.0 / _P])),
       truncation=st.integers(1, 1000))
@example(name="power-law", t=0.5882352941176472, truncation=10)  # p t = 1 + 2u, rounded down to 1
def test_tail_high_is_a_float_and_inf_exactly_where_nothing_is_certified(name, t, truncation):
    part = build_partition(name, truncation, **({"exponent": _P} if name == "power-law" else {}))
    v = part.series_verdict(t)
    assert type(v.tail_high) is float and v.tail_low <= v.tail_high
    certified = v.status == "converges" and t > 0.0 and CERTIFIES_UPPER_TAIL[name](t)
    assert math.isinf(v.tail_high) == (not certified)


# ---------------------------------------------------------------------------
# branch maps


def test_gauss_branch_derivative_ranges():
    part = build_partition("gauss", 50)
    bmap = make_branch_map(part)
    assert bmap.digits is not None
    assert bmap.alphabet_unbounded
    assert bmap.digits.tolist() == list(range(1, 51))
    with pytest.raises(ValueError):
        bmap.digits[0] = 2


def test_invariant_hull_bounded_digits():
    part = build_partition("gauss-restricted", digits=(1, 2))
    bmap = make_branch_map(part)
    lo, hi = bmap.invariant_hull()
    # fixed points of m -> 1/(2 + 1/(1 + m)): hull [sqrt(3)-1 .. ] around
    # the attractor of the alternating continued fraction
    assert lo == pytest.approx(0.36602540378443865, abs=1e-12)
    assert hi == pytest.approx(0.7320508075688773, abs=1e-12)
    assert bmap.digits.tolist() == [1, 2] and not bmap.digits.flags.writeable
    full = make_branch_map(build_partition("gauss", 50))
    assert full.invariant_hull() == (0.0, 1.0)


def test_linear_branch_map_for_dyadic():
    part = build_partition("dyadic", 30)
    bmap = make_branch_map(part)
    assert bmap.digits is None


# ---------------------------------------------------------------------------
# cylinders: the dynamic programming is checked against direct composition


def _compose_exact(bmap, symbols, y):
    """F_w(y) and |(T^n)'(F_w(y))| for the word w by exact rational composition."""
    x, deriv = Fraction(y), Fraction(1)
    for s in reversed(symbols):
        if bmap.digits is not None:
            x = 1 / (s + x)
            deriv /= x * x  # |T'(x)| = x^-2 on every reciprocal branch
        else:
            ln = Fraction(float(bmap.partition.lengths[s - 1]))
            x = Fraction(float(bmap.partition.left[s - 1])) + ln * x
            deriv /= ln
    return x, deriv


_CYLINDER_CASES = [  # (generator, build kwargs, largest order, alphabet cap)
    ("gauss-restricted", {"digits": (1, 2)}, 4, None),
    ("dyadic", {"truncation": 5}, 3, None),  # every endpoint is exact in binary
    ("gauss", {"truncation": 100}, 2, 7),
]


def _cylinders(bmap, order, cap=None):
    """(deriv_inf, deriv_sup) of the depth-`order` cylinders, words in lexicographic order."""
    tables = _word_tables(bmap, _effective_alphabet(bmap, cap, order), order)
    return tuple(_derivative_range(bmap, tables, y) for y in bmap.invariant_hull())


def test_cylinder_derivative_ranges_match_exact_composition():
    for generator, kwargs, max_order, cap in _CYLINDER_CASES:
        _check_cylinder_ranges(make_branch_map(build_partition(generator, **kwargs)), max_order, cap)


def _check_cylinder_ranges(bmap, max_order, cap):
    labels = bmap.digits[:cap] if bmap.digits is not None else tuple(range(1, bmap.branch_count + 1))
    hull_lo, hull_hi = bmap.invariant_hull()
    for order in range(1, max_order + 1):
        deriv_inf, deriv_sup = _cylinders(bmap, order, cap)
        words = list(itertools.product(labels, repeat=order))
        assert deriv_inf.size == deriv_sup.size == len(words)
        for i, sym in enumerate(words):
            (f0, _), (f1, _) = _compose_exact(bmap, sym, 0), _compose_exact(bmap, sym, 1)
            lo, hi = min(f0, f1), max(f0, f1)
            _, d_lo = _compose_exact(bmap, sym, hull_lo)
            _, d_hi = _compose_exact(bmap, sym, hull_hi)
            if bmap.digits is None:
                assert deriv_inf[i] == deriv_sup[i] == d_lo == d_hi
            else:
                # the range ends are |(T^n)'| at the images of the hull ends
                assert deriv_inf[i] == pytest.approx(float(d_lo), rel=1e-14)
                assert deriv_sup[i] == pytest.approx(float(d_hi), rel=1e-14)
            # mean value: some point of the cylinder attains 1/length
            assert deriv_inf[i] <= float(1 / (hi - lo)) <= deriv_sup[i]


def test_cylinder_distortion_bound():
    part = build_partition("gauss-restricted", digits=(1, 2))
    bmap = make_branch_map(part)
    deriv_inf, deriv_sup = _cylinders(bmap, 6)
    assert np.all(deriv_sup / deriv_inf <= 4.0 + 1e-12)


def test_cylinders_need_cap_for_unbounded_alphabet():
    bmap = make_branch_map(build_partition("gauss", 100))
    with pytest.raises(PartitionError, match="alphabet_cap"):
        cylinder_derivative_sums(bmap, 2, [1.0])
    # at t = 0 each side sums 1 per word: 10^2 of them
    assert cylinder_derivative_sums(bmap, 2, [0.0], alphabet_cap=10) == [(100.0, 100.0)]


def test_max_cylinder_order_is_exact_at_the_cap():
    assert max_cylinder_order(2) == 21
    assert max_cylinder_order(64) == 3
    assert max_cylinder_order(128) == 3  # 128^3 == 2^21 is allowed
    assert max_cylinder_order(129) == 2
    with pytest.raises(PartitionError, match="single-branch"):
        max_cylinder_order(1)


def test_cylinder_derivative_sums_threads_identical():
    bmap = make_branch_map(build_partition("gauss-restricted", digits=(1, 2)))
    exps = [0.5, 0.53, 1.0]
    one = cylinder_derivative_sums(bmap, 9, exps, threads=1)
    four = cylinder_derivative_sums(bmap, 9, exps, threads=4)
    assert one == four  # compensated sums are order independent
    deriv_inf, deriv_sup = _cylinders(bmap, 9)
    for t, (lo, hi) in zip(exps, one):
        # per-lead partial sums are rounded once each before they are combined
        assert lo == pytest.approx(math.fsum((deriv_sup ** -t).tolist()), rel=1e-15)
        assert hi == pytest.approx(math.fsum((deriv_inf ** -t).tolist()), rel=1e-15)


# ---------------------------------------------------------------------------
# guards and branches beside the main paths: a PartitionError case asserts its message,
# any other case the returned value


GAUSS_10 = build_partition("gauss", 10)
# two intervals with a gap between 0.5 and 0.6
GAPPED = _partition([0.6, 0.2], [1.0, 0.5])


def _cylinder_sums(order, cap):
    return cylinder_derivative_sums(make_branch_map(GAUSS_10), order, [1.0], alphabet_cap=cap)


@pytest.mark.parametrize("call, expected", [
    (lambda: build_partition("power-law", 10, exponent=1.0),
     PartitionError("power-law exponent must exceed 1, got 1.0")),
    (lambda: IntervalPartition(np.array([0.1, 0.2]), np.array([0.5]), "explicit"),
     PartitionError("partition needs matching 1-d, non-empty endpoint arrays")),
    (lambda: _partition([0.1, 0.2], [0.5, 0.5]),
     PartitionError("intervals must be ordered by strictly decreasing right endpoint")),
    (lambda: GAPPED.tiling_defect(), None),
    (lambda: GAUSS_10.series_verdict(0.0).status, "diverges"),
    (lambda: build_partition("gauss", 0), PartitionError("unbounded generators need truncation >= 1")),
    (lambda: build_partition("gauss-restricted", digits=[]),
     PartitionError("gauss-restricted needs a non-empty digit set")),
    (lambda: _cylinder_sums(1, 0), PartitionError("alphabet cap leaves no branches")),
    (lambda: _cylinder_sums(0, 4), PartitionError("cylinder order must be >= 1")),
    (lambda: _cylinder_sums(22, 2), PartitionError(
        "2^22 = 4194304 cylinder words exceed the enumeration cap 2097152; lower the order or alphabet")),
    # inputs that break two rules at once raise the first rule's error
    (lambda: _partition([0.5, np.nan], [1.0, 0.5]), PartitionError("intervals must lie inside [0, 1]")),
    (lambda: _partition([0.5, 0.2], [1.5, 0.6]), PartitionError("intervals must lie inside [0, 1]")),
    (lambda: _partition([0.5, 0.2], [0.5, 0.6]), PartitionError("every interval needs positive length")),
    (lambda: _partition([0.5, -1e-14], [1.0, 0.5]), PartitionError("intervals must lie inside [0, 1]")),
    (lambda: _partition([0.5, 0.0], [1.0 + 1e-14, 0.5]), PartitionError("intervals must lie inside [0, 1]")),
    (lambda: _partition([0.5, 0.1], [1.0, 0.5 + 1e-13]).count, 2),
    (lambda: _partition([0.5, 0.1], [1.0, 0.5 + 1e-11]), PartitionError("interval interiors overlap")),
], ids=[
    "power-law-exponent-1", "mismatched-endpoints", "unordered-intervals", "gapped-tiling-defect",
    "verdict-at-zero", "truncation-0", "no-restricted-digits", "alphabet-cap-0",
    "cylinder-order-0", "word-cap-exceeded",
    "nan-endpoint", "right-above-1-and-overlap", "zero-length-and-disorder", "left-below-0-on-tiling",
    "right-above-1-on-tiling", "overlap-within-tolerance", "overlap-past-tolerance",
])
def test_guards_and_side_branches(call, expected):
    if isinstance(expected, PartitionError):
        with pytest.raises(PartitionError, match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected
