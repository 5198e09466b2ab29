"""Exact summation returns math.fsum's bits; hurwitz_zeta encloses the exact value."""

import functools
import math
import struct
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presdim import numerics
from presdim.interval_partition import build_partition
from presdim.numerics import compensated_sum, hurwitz_zeta

CUTOFF = numerics._KERNEL_MIN_TERMS
BLOCK = numerics._EXTRACT_BLOCK
# both sides of the small-array cutoff and of block boundaries
SIZES = [0, 1, 7, CUTOFF - 1, CUTOFF, CUTOFF + 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_matches_fsum(values) -> None:
    arr = np.asarray(values, dtype=float)
    try:
        expected = math.fsum(arr.tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            compensated_sum(arr)
        return
    assert _bits(compensated_sum(arr)) == _bits(expected)


def _random_terms(seed, size, e_low, e_span, negative_share, cancel):
    rng = np.random.default_rng(seed)
    mantissas = rng.integers(1 << 52, 1 << 53, size).astype(float)
    exponents = rng.integers(e_low, e_low + e_span + 1, size)
    # exponents below -1022 give subnormal (rounded) terms
    terms = np.ldexp(mantissas, exponents - 53)
    terms[rng.random(size) < negative_share] *= -1.0
    if cancel and size:
        # exact cancellation of a random half, leaving the rest and the low bits
        half = rng.permutation(size)[: size // 2]
        terms = np.concatenate([terms, -terms[half]])
        rng.shuffle(terms)
    return terms


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from(SIZES),
    e_low=st.integers(-1080, 1000),
    e_span=st.integers(0, 2000),
    negative_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    cancel=st.booleans(),
)
def test_random_arrays_match_fsum(seed, size, e_low, e_span, negative_share, cancel):
    assert_matches_fsum(_random_terms(seed, size, e_low, min(e_span, 1023 - e_low), negative_share, cancel))


@settings(max_examples=150, deadline=None)
@given(
    pattern=st.lists(st.floats(width=64), min_size=1, max_size=12),
    size=st.sampled_from(SIZES[1:]),
)
def test_tiled_edge_floats_match_fsum(pattern, size):
    # hypothesis' float edge cases (-0.0, subnormals, huge, inf, nan) repeated
    # up to kernel sizes
    assert_matches_fsum(np.resize(np.array(pattern), size))


@pytest.mark.parametrize("size", [3, 3 * CUTOFF])
@pytest.mark.parametrize(
    "pattern",
    [
        [1e16, 1.0, -1e16],  # heavy cancellation
        [-0.0],
        [0.0, -0.0],
        [1.0, 2.0**-53],  # ties round to even
        [1.0, 2.0**-53, 2.0**-110],
        [5e-324, -1e-310, 2.2250738585072014e-308],  # subnormals
        [1e-300, -1e-300, 5e-324],
        [1e300, 1.0, -1e300, 1e-300],
        [np.inf, 1.0],
        [np.inf, -np.inf],
        [np.nan, 1.0],
        [1e308, 1e308],  # overflow raises, as in fsum
        [1e308, -1e308],
    ],
)
def test_edge_patterns_match_fsum(pattern, size):
    assert_matches_fsum(np.resize(np.array(pattern), size))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_matches_mpmath_exact_sum(seed):
    # an oracle independent of fsum: mpmath adds the terms exactly at 2,300
    # bits and rounds once to the nearest double
    terms = _random_terms(seed, 2 * BLOCK + 17, -400, 800, 0.5, True)
    with mpmath.workprec(2300):
        exact = mpmath.fsum(mpmath.mpf(float(x)) for x in terms)
        expected = float(exact)
    assert _bits(compensated_sum(terms)) == _bits(expected)


def test_results_at_known_values():
    assert compensated_sum(np.tile([1e16, 1.0, -1e16], CUTOFF)) == float(CUTOFF)
    assert _bits(compensated_sum(np.full(2 * CUTOFF, -0.0))) == _bits(0.0)


def test_order_and_chunking_do_not_matter():
    terms = _random_terms(11, 4 * BLOCK, -200, 400, 0.5, True)
    total = compensated_sum(terms)
    assert _bits(compensated_sum(terms[::-1])) == _bits(total)
    assert _bits(compensated_sum(np.random.default_rng(3).permutation(terms))) == _bits(total)
    # a 2-D input is summed over all its entries
    assert _bits(compensated_sum(terms.reshape(2, -1))) == _bits(total)


# ---------------------------------------------------------------------------
# error-free extraction on its own: every total it decides is fsum's


def _extracted(terms):
    terms = np.asarray(terms, dtype=float)
    return numerics._extract_total(terms, float(np.abs(terms).max()))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from(SIZES[1:]),
    e_low=st.integers(-1080, 900),
    e_span=st.integers(0, 2000),
    negative_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    cancel=st.booleans(),
)
def test_extracted_totals_are_fsum_bits(seed, size, e_low, e_span, negative_share, cancel):
    # terms stay below _KERNEL_MAX_ABS = 2^900, as compensated_sum guarantees
    terms = _random_terms(seed, size, e_low, min(e_span, 900 - e_low), negative_share, cancel)
    total = _extracted(terms)
    if total is not None:
        assert _bits(total) == _bits(math.fsum(terms.tolist()))


@functools.cache
def _million_lengths(generator):
    return build_partition(generator, 10**6).lengths


@pytest.mark.parametrize("t", [0.6123, 1.0, 1.45, 2.6])
@pytest.mark.parametrize("generator", ["gauss", "log-squared"])
def test_extraction_decides_benchmark_sums(generator, t):
    terms = _million_lengths(generator) ** t
    assert _bits(_extracted(terms)) == _bits(math.fsum(terms.tolist()))


def _tie(size):
    # size - 1 ones and half an ulp of size - 1
    return np.concatenate([np.ones(size - 1), [0.5 * math.ulp(size - 1.0)]])


@pytest.mark.parametrize("terms, decided", [
    (np.resize([1.0, 2.0**-53], 2), False),  # a tie
    (_tie(3 * CUTOFF), False),
    (np.resize([1e300, 1.0, -1e300, 1e-300], 3 * CUTOFF), False),  # cancels 600 digits
    (np.resize([1e-300, -1e-300, 5e-324], 3 * CUTOFF), False),  # units below 2^-1074
    # cancellation within reach of three levels, and no tie once resized
    (np.resize([1e16, 1.0, -1e16], 3 * CUTOFF), True),
    (np.resize([1.0, 2.0**-53], 3 * CUTOFF), True),
], ids=["tie", "tie-3-cutoff", "cancel-600-digits", "subnormal-unit", "cancel-16-digits", "resized-tie"])
def test_extraction_falls_back_when_undecided(terms, decided):
    total = _extracted(terms)
    assert (total is not None) == decided
    assert _bits(compensated_sum(terms)) == _bits(math.fsum(terms.tolist()))
    if decided:
        assert _bits(total) == _bits(math.fsum(terms.tolist()))


# ---------------------------------------------------------------------------
# Hurwitz zeta with an error bound


def test_euler_maclaurin_coefficients_are_correctly_rounded():
    for j, c in enumerate(numerics._EM_COEFFS, 1):
        num, den = mpmath.bernfrac(2 * j)
        assert c == float(Fraction(int(num), int(den)) / math.factorial(2 * j))


@settings(max_examples=300, deadline=None)
@given(
    s=st.floats(1.0, 8.0, exclude_min=True),
    a=st.integers(1, 10**6 + 1).map(float),
)
def test_hurwitz_zeta_encloses_mpmath(s, a):
    lo, hi = hurwitz_zeta(s, a)
    with mpmath.workdps(50):
        assert lo <= mpmath.zeta(s, a) <= hi
    assert hi - lo <= 2e-14 * lo


@pytest.mark.parametrize("s, a", [
    (1.0, 2.0), (0.5, 2.0), (-3.0, 2.0), (2.0, 0.999), (2.0, 0.0), (2.0, -1.0), (2.0, 1.5),
    (math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0), (2.0, math.inf),
])
def test_hurwitz_zeta_rejects_outside_domain(s, a):
    with pytest.raises(ValueError):
        hurwitz_zeta(s, a)


@pytest.mark.parametrize("s, a", [
    (40.0, 13.0),  # the shift grows with s: 32 head terms
    (100.0, 20.0),
    (1000.0, 300.0),
    (50.0, 1e6 + 1),  # about 2e-296, normal
    (52.5, 1e6 + 1),  # subnormal
    (60.0, 1e6 + 1),  # below the smallest subnormal
    (200.0, 1e4),
    (3000.0, 1.0),  # head term 1, the rest underflows
    (1e5, 3.0),
])
def test_hurwitz_zeta_large_s_and_underflow(s, a):
    lo, hi = hurwitz_zeta(s, a)
    # mpmath needs far more than 50 digits to resolve zeta at large s and a;
    # rounded outward, the upper end stays above the exact value even where it underflows
    with mpmath.workdps(400):
        assert 0.0 <= lo <= mpmath.zeta(s, a) <= hi
    if lo > 1e-290:
        assert hi - lo <= 2e-14 * lo


@pytest.mark.parametrize("s, x", [(3.0, 1.0), (8.0, 1.0), (30.0, 2.0), (60.0, 4.0)])
def test_euler_maclaurin_remainder_bounds_a_short_tail(s, x):
    # far below the shift the expansion runs to the end of its table, and the
    # first omitted term carries most of the error bound: it must still enclose
    value, err = numerics._em_tail(s, x)
    with mpmath.workdps(60):
        assert abs(mpmath.mpf(value) - mpmath.zeta(s, x)) <= err
