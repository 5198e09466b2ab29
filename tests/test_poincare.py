"""Poincaré partial sums, critical exponents, and exact orbit counting."""

import itertools
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from presdim import poincare
from presdim.hyperbolic import ParabolicGroupSpec, _orbit_distance
from presdim.poincare import (
    CONVERGENT_WITH_BOUND,
    DIVERGENT_MINORANT,
    classify_tail,
    counting_exponent,
    critical_exponent,
    poincare_partial,
)

G1 = ParabolicGroupSpec(2, 1, np.array([[1.0]]))
G2 = ParabolicGroupSpec(3, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))
G2_SKEW = ParabolicGroupSpec(3, 2, np.array([[1.0, 0.0], [1.0, 1.0]]))
G32 = ParabolicGroupSpec(3, 1, np.array([[2.0, 0.5]]))


# ---------------------------------------------------------------------------
# partial sums


def test_partial_sum_at_zero_counts_elements():
    s = poincare_partial(G1, 0.0, 2)
    assert s.partial_sum == 5.0  # identity + the four nonzero |N| <= 2


def test_partial_sum_monotone_in_radius():
    vals = [poincare_partial(G2, 1.2, m).partial_sum for m in (1, 2, 4, 8, 16)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v >= 1.0 for v in vals)  # identity term


def test_partial_sum_matches_direct_formula():
    s = poincare_partial(G1, 0.8, 3)
    shifts = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]]) @ G1.alphas
    direct = 1.0 + sum(math.exp(-0.8 * d) for d in _orbit_distance(shifts))
    assert s.partial_sum == pytest.approx(direct, rel=1e-14)


def _mp_partial(group, s, radius):
    """1 + sum over N != 0 of exp(-2 s arcsinh(|sum N_i alpha_i| / 2)), at 50 digits."""
    alphas = [[mpmath.mpf(float(c)) for c in row] for row in group.alphas]
    total = mpmath.mpf(0)
    for n in itertools.product(range(-radius, radius + 1), repeat=group.rank):
        v = [mpmath.fsum(k * row[i] for k, row in zip(n, alphas)) for i in range(group.ambient - 1)]
        total += mpmath.exp(-2 * mpmath.mpf(s) * mpmath.asinh(mpmath.sqrt(mpmath.fsum(x * x for x in v)) / 2))
    return total


@pytest.mark.parametrize("group, s, radius", [
    (G1, 0.8, 50), (G32, 1.5, 100), (G2_SKEW, 1.5, 12),
    (ParabolicGroupSpec(3, 2, np.array([[1.3, 0.2], [-0.4, 0.9]])), 0.7, 10),
])
def test_partial_sum_matches_mpmath(group, s, radius):
    with mpmath.workdps(50):
        ref = _mp_partial(group, s, radius)
        # the largest terms have small exp arguments, so they are a few ulps
        # off, and the sum is rounded once: measured errors are below 1e-16
        assert abs(poincare_partial(group, s, radius).partial_sum - ref) <= 1e-15 * ref


def test_divergent_minorant_below_half():
    s = poincare_partial(G1, 0.4, 100)
    assert s.tail_classification == DIVERGENT_MINORANT
    assert s.tail_bound is None
    assert "count >=" in s.evidence


def test_convergent_tail_bound_is_certified():
    s = poincare_partial(G1, 1.0, 1000)
    assert s.tail_classification == CONVERGENT_WITH_BOUND
    far = poincare_partial(G1, 1.0, 8000)
    assert far.partial_sum <= s.partial_sum + s.tail_bound
    assert far.partial_sum >= s.partial_sum


def test_richardson_extrapolation_stable():
    # terms decay like n^-2, so the truncation error is ~ c/M and
    # L = 2 S(2M) - S(M) cancels it
    sums = {m: poincare_partial(G1, 1.0, m).partial_sum for m in (1000, 2000, 4000)}
    l1 = 2.0 * sums[2000] - sums[1000]
    l2 = 2.0 * sums[4000] - sums[2000]
    assert abs(l2 - l1) < 1e-6
    ref = poincare_partial(G1, 1.0, 4000)
    assert ref.partial_sum <= l2 <= ref.partial_sum + ref.tail_bound


def test_classify_tail_threshold():
    assert classify_tail(G2, 1.01, 50)[0] == CONVERGENT_WITH_BOUND
    assert classify_tail(G2, 1.0, 50)[0] == DIVERGENT_MINORANT
    assert classify_tail(G2, 0.7, 50)[0] == DIVERGENT_MINORANT


@pytest.mark.parametrize("group, s, radius", [(G1, 1.5, 200), (G1, 1.2, 1000), (G32, 1.5, 200), (G32, 1.0, 100)])
def test_classify_tail_encloses_exact_rank_one_tail(group, s, radius):
    # rank 1: the shell |N| = n is the two points +-n, at distance 2 arcsinh(n |alpha| / 2)
    bound = classify_tail(group, s, radius)[1]
    with mpmath.workdps(50):
        alpha = mpmath.sqrt(mpmath.fsum(mpmath.mpf(float(c)) ** 2 for c in group.alphas[0]))
        S = mpmath.mpf(s)
        exact = 2 * mpmath.nsum(lambda n: mpmath.exp(-2 * S * mpmath.asinh(n * alpha / 2)),
                                [radius + 1, mpmath.inf], method="euler-maclaurin")
        assert exact <= bound


@settings(max_examples=100, deadline=None)
@given(group=st.sampled_from([G1, G2, G2_SKEW, G32]), s=st.floats(0.55, 4.0), radius=st.integers(1, 10**5))
def test_classify_tail_bound_rounds_outward(group, s, radius):
    # the bound is never below its majorant 2k 3^(k-1) sigma_min^(-2s) zeta(2s-k+1, radius+1)
    k = group.rank
    assume(2 * s > k)
    bound = classify_tail(group, s, radius)[1]
    with mpmath.workdps(50):
        S = mpmath.mpf(s)
        zeta = mpmath.zeta(2 * S - k + 1, radius + 1)
        assert 2 * k * 3 ** (k - 1) * mpmath.mpf(group.sigma_min) ** (-2 * S) * zeta <= bound


def test_classify_tail_bound_past_the_float_range_is_inf():
    # sigma_min^(-2s) = 2^1200 overflows; inf is the outward rounding of the bound
    assert classify_tail(ParabolicGroupSpec(2, 1, [[0.5]]), 600.0, 10)[:2] == (CONVERGENT_WITH_BOUND, math.inf)
    assert classify_tail(ParabolicGroupSpec(2, 1, [[1e-100]]), 2.0, 10)[1] == math.inf


def test_classify_tail_bound_holds_for_the_exact_sigma_min():
    # the majorant with the 50-digit sigma_min, not numpy's rounded one, stays below the bound
    rng = np.random.default_rng(7)
    for _ in range(100):
        group = ParabolicGroupSpec(3, 2, rng.normal(size=(2, 2)))
        bound = classify_tail(group, 1.5, 10)[1]
        with mpmath.workdps(50):
            smin = min(mpmath.svd_r(mpmath.matrix(group.alphas.tolist()), compute_uv=False))
            assert 12 * smin ** -3 * mpmath.zeta(2, 11) <= bound


def test_partial_sum_input_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        poincare_partial(G1, -0.1, 10)
    with pytest.raises(ValueError, match="radius"):
        poincare_partial(G1, 1.0, 0)
    with pytest.raises(ValueError, match="cap"):
        poincare_partial(G2, 1.0, 10_000)


# ---------------------------------------------------------------------------
# critical exponent


@pytest.mark.parametrize("group,half_k", [(G1, 0.5), (G32, 0.5), (G2, 1.0)])
def test_critical_exponent_brackets_half_k(group, half_k):
    est = critical_exponent(group, tol=0.01)
    assert est.status == "bracket"
    assert est.s_low <= half_k <= est.s_high
    assert est.width <= 0.01 + 1e-12


def test_critical_exponent_basis_invariant():
    a = critical_exponent(G2, tol=0.01)
    b = critical_exponent(G2_SKEW, tol=0.01)
    assert (a.s_low, a.s_high) == (b.s_low, b.s_high)


def test_critical_exponent_rejects_bad_tol():
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            critical_exponent(G1, tol=tol)


def test_critical_exponent_rank_128():
    # the bisection starts at 128, the least power of two above k/2 = 64
    start = time.perf_counter()
    group = ParabolicGroupSpec(129, 128, np.eye(128))
    assert time.perf_counter() - start < 0.1
    est = critical_exponent(group, tol=0.01)
    assert est.s_low <= 64.0 <= est.s_high
    assert est.width <= 0.01


# ---------------------------------------------------------------------------
# orbit counting


def test_counting_closed_form_rank_one():
    cf = counting_exponent(G1, t_max=20.0, levels=10)
    assert cf.counts[-1] == 2 * math.floor(2.0 * math.sinh(10.0)) + 1
    assert cf.final_slope == pytest.approx(0.5, abs=0.02)
    assert np.all(np.diff(cf.counts) >= 0)


def test_counting_rank_two_slope():
    cf = counting_exponent(G2, t_max=20.0, levels=40)
    assert cf.final_slope == pytest.approx(1.0, abs=0.05)
    nonzero = cf.counts[cf.counts > 1]
    assert np.all(np.diff(nonzero) > 0)  # strictly increasing once started


def test_counting_degenerate_levels_excluded():
    cf = counting_exponent(G1, t_max=16.0, levels=40)
    assert cf.slopes[cf.counts <= 1].sum() == 0.0  # slope 0 marks excluded levels


def _exact_count(alphas: np.ndarray, length: float, sigma_min: float) -> int | None:
    """#{N : |sum N_i alpha_i| <= length} over the cube |N|_inf <= length / sigma_min + 1 (None
    above 2M points); floats decide every point farther than 1e-6 relative from the sphere,
    exact rationals the rest."""
    rank = alphas.shape[0]
    reach = int(length / sigma_min) + 1
    if (2 * reach + 1) ** rank > 2_000_000:
        return None
    axis = np.arange(-reach, reach + 1)
    grid = np.stack(np.meshgrid(*[axis] * rank, indexing="ij"), axis=-1).reshape(-1, rank)
    v = grid.astype(float) @ alphas
    q = np.einsum("ij,ij->i", v, v)
    near = np.abs(q - length * length) <= 1e-6 * length * length
    columns = [[Fraction(x) for x in column] for column in alphas.T.tolist()]
    limit = Fraction(length) ** 2
    return int(np.count_nonzero(q[~near] <= length * length)) + sum(
        sum(sum(n * a for n, a in zip(point, column)) ** 2 for column in columns) <= limit
        for point in grid[near].tolist())


def test_counting_matches_brute_force_rank_two():
    alphas = np.array([[1.0, 0.0], [0.3, 0.9]])
    g = ParabolicGroupSpec(3, 2, alphas)
    for t in (6.5, 8.0):
        cf = counting_exponent(g, t_max=t, levels=6)
        limit = 2.0 * math.sinh(t / 2.0)
        assert cf.counts[-1] == _exact_count(alphas, limit, g.sigma_min)


def test_counting_basis_invariance():
    a = counting_exponent(G2, t_max=18.0, levels=30).final_slope
    b = counting_exponent(G2_SKEW, t_max=18.0, levels=30).final_slope
    assert abs(a - b) <= 0.02


def test_counting_guards():
    with pytest.raises(ValueError, match="achievable t_max"):
        counting_exponent(G1, t_max=40.0, levels=10)
    with pytest.raises(ValueError, match="1000 lattice"):
        counting_exponent(G1, t_max=6.0, levels=10)
    with pytest.raises(ValueError, match="levels"):
        counting_exponent(G1, t_max=20.0, levels=3)
    # rank 3 holds about (2 reach)^2 / 2 rows: 2 asinh(sqrt(2 cap) sigma_min / 4)
    with pytest.raises(ValueError, match=r"the largest achievable t_max is 16\.12$"):
        counting_exponent(ParabolicGroupSpec(4, 3, np.eye(3)), t_max=25.0, levels=10)
    # compared before any sinh, which overflows at 2000
    with pytest.raises(ValueError, match=r"the largest achievable t_max is 33\.62$"):
        counting_exponent(G1, t_max=2000.0, levels=10)


def test_counting_rank_three_slope():
    cf = counting_exponent(ParabolicGroupSpec(4, 3, np.eye(3)), t_max=10.0, levels=50)
    assert cf.final_slope == pytest.approx(1.5, abs=0.05)
    assert np.all(np.diff(cf.counts) >= 0)


def test_ellipsoid_count_is_exact_where_floats_miscount():
    # 5 * 0.1 exceeds 0.5 in rationals of the floats; a float quotient gave 11
    assert poincare._ellipsoid_counts(ParabolicGroupSpec(2, 1, [[0.1]]), [0.5]) == [9]
    # at the norm of N = (5, -2); the float formula gave 79
    group = ParabolicGroupSpec(3, 2, [[1.0, 0.0], [0.3, 0.9]])
    length = float(np.linalg.norm(np.array([5.0, -2.0]) @ group.alphas))
    assert poincare._ellipsoid_counts(group, [length]) == [81] == [_exact_count(group.alphas, length, group.sigma_min)]


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_ellipsoid_count_does_not_depend_on_the_row_block(rank, monkeypatch):
    # blocks of a few rows put many block boundaries inside each count
    rng = np.random.default_rng(2000 + rank)
    groups = [ParabolicGroupSpec(rank + 2, rank, rng.normal(size=(rank, rank + 1))) for _ in range(4)]
    lengths = [0.0, 0.3, 2.0, 5.5, {2: 40.0, 3: 9.0, 4: 4.0}[rank]]
    expected = [poincare._ellipsoid_counts(group, lengths) for group in groups]
    monkeypatch.setattr(poincare, "_ROWS_PER_BLOCK", 5)
    assert [poincare._ellipsoid_counts(group, lengths) for group in groups] == expected
    assert expected[0][-1] > 100


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_ellipsoid_count_matches_exact_rationals(rank):
    # radii at the float norm of a lattice vector and one ulp either side
    rng = np.random.default_rng(1000 + rank)
    checked = 0
    for _ in range(16):
        dim = rank + int(rng.integers(0, 2))
        group = ParabolicGroupSpec(dim + 1, rank, rng.normal(size=(rank, dim)) * rng.uniform(0.1, 3.0))
        n = rng.integers(-6, 7, size=rank) if rank < 3 else rng.integers(-3, 4, size=rank)
        norm = float(np.linalg.norm(n.astype(float) @ group.alphas))
        for length in (math.nextafter(norm, 0.0), norm, math.nextafter(norm, math.inf)):
            exact = _exact_count(group.alphas, length, group.sigma_min)
            if exact is not None:
                assert poincare._ellipsoid_counts(group, [length]) == [exact], (group.alphas, length)
                checked += 1
    assert checked >= 30


def test_gauge_gap_bounded():
    # d(o, N o) - log |sum N_i alpha_i|^2 stays in a unit-width band
    n = np.arange(1, 10_001, dtype=float)
    gap = 2.0 * np.arcsinh(0.5 * n) - 2.0 * np.log(n)
    assert gap.max() - gap.min() <= 1.0
    assert np.all(np.diff(gap) <= 0)  # decreasing toward 0


@pytest.mark.parametrize("call, message", [
    (lambda: classify_tail(G1, -1.0, 1), "s must be nonnegative"),
    (lambda: counting_exponent(G1, t_max=0.0, levels=10), "t_max must be positive"),
    (lambda: classify_tail(G1, math.nan, 1), "s must be nonnegative"),
    (lambda: poincare_partial(G1, math.nan, 1), "s must be nonnegative"),
    (lambda: counting_exponent(G1, t_max=math.nan, levels=10), "t_max must be positive"),
])
def test_input_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()
