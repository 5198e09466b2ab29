"""Poincaré partial sums, critical exponents, and exact orbit counting."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from presdim.hyperbolic import ParabolicGroupSpec, orbit_distance
from presdim.poincare import (
    CONVERGENT_WITH_BOUND,
    DIVERGENT_MINORANT,
    classify_tail,
    counting_exponent,
    critical_exponent,
    poincare_partial,
    verify_dichotomy,
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
    direct = 1.0 + sum(
        math.exp(-0.8 * orbit_distance(G1, [n])) for n in (-3, -2, -1, 1, 2, 3)
    )
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
    with pytest.raises(ValueError, match="tol"):
        critical_exponent(G1, tol=0.0)


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


def _brute_ellipsoid_count(alphas: np.ndarray, limit: float) -> int:
    sigma_min = np.linalg.svd(alphas, compute_uv=False)[-1]
    reach = int(limit / sigma_min) + 2
    n1 = np.arange(-reach, reach + 1)
    grid = np.stack(np.meshgrid(n1, n1, indexing="ij"), axis=-1).reshape(-1, 2)
    v = grid @ alphas
    return int(np.count_nonzero(np.einsum("ij,ij->i", v, v) <= limit * limit))


def test_counting_matches_brute_force_rank_two():
    alphas = np.array([[1.0, 0.0], [0.3, 0.9]])
    g = ParabolicGroupSpec(3, 2, alphas)
    for t in (6.5, 8.0):
        cf = counting_exponent(g, t_max=t, levels=6)
        limit = 2.0 * math.sinh(t / 2.0)
        assert cf.counts[-1] == _brute_ellipsoid_count(alphas, limit)


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
    with pytest.raises(ValueError, match="rank 1 and 2"):
        counting_exponent(
            ParabolicGroupSpec(4, 3, np.eye(3)), t_max=18.0, levels=10
        )


# ---------------------------------------------------------------------------
# series dichotomy


def test_dichotomy_p_series():
    rep = verify_dichotomy("power", 2.0)
    assert rep.verdict == "converges"
    assert rep.ratio_max < 1.0
    assert rep.ratio_max == pytest.approx(0.5, abs=1e-6)
    assert rep.consistent


def test_dichotomy_harmonic_boundary():
    rep = verify_dichotomy("harmonic")
    assert rep.verdict == "boundary"
    assert rep.ratio_min <= 1.0 <= rep.ratio_max + 1e-9
    assert rep.observed == "decade-increments-persistent"


def test_dichotomy_gauge_at_point_six():
    rep = verify_dichotomy("poincare-gauge", 0.6)
    assert rep.verdict == "converges"
    # d(o, n o) ~ 2 log n makes the ratio tend to 1/(2 s)
    assert rep.ratio_max == pytest.approx(1.0 / 1.2, abs=0.01)
    assert rep.consistent


def test_dichotomy_divergent_power():
    rep = verify_dichotomy("power", 0.7)
    assert rep.verdict == "diverges"
    assert rep.consistent


def test_dichotomy_rule_validation():
    with pytest.raises(ValueError, match="unknown rule"):
        verify_dichotomy("zeta", 2.0)
    with pytest.raises(ValueError, match="positive exponent"):
        verify_dichotomy("power", -1.0)
    with pytest.raises(ValueError, match="positive s"):
        verify_dichotomy("poincare-gauge")


def test_gauge_gap_bounded():
    # d(o, N o) - log |sum N_i alpha_i|^2 stays in a unit-width band
    n = np.arange(1, 10_001, dtype=float)
    gap = 2.0 * np.arcsinh(0.5 * n) - 2.0 * np.log(n)
    assert gap.max() - gap.min() <= 1.0
    assert np.all(np.diff(gap) <= 0)  # decreasing toward 0
