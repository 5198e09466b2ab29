"""Poincare series, critical exponents, and orbit counting for parabolic groups.

The series over a rank-k lattice of horizontal translations is
    P(s) = sum_N exp(-s d(o, N.o)) = sum_N (x + sqrt(1 + x^2))^{-2s},
    x = |sum_i N_i alpha_i| / 2,
including the identity term 1.  Convergence is decided exactly for every s
by certified shell comparisons: with sigma_min/sigma_max the extreme
singular values of the generator matrix, the shell |N|_inf = m contributes
at most 2k 3^{k-1} m^{k-1} terms each at most (sigma_min m)^{-2s}, and at
least 2k m^{k-1} terms each at least (1 + sigma_max sqrt(k) m)^{-2s}.  The
majorant is summable precisely for s > k/2 (Hurwitz zeta tail) and the
minorant diverges precisely for s <= k/2, so the critical exponent bracket
from bisection always closes down on k/2.

Orbit counting enumerates the exact ellipsoidal region |sum N_i alpha_i| <=
2 sinh(t/2) (the preimage of the distance ball), not a bounding cube.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hyperbolic import ParabolicGroupSpec, _lattice_grid, _orbit_distance
from .numerics import _LIBM_ERR, _libm, _up, _zeta_interval, compensated_sum
from .pressure import CriticalExponentEstimate, DIVERGES_AT_CRITICAL, _bisect

__all__ = [
    "CONVERGENT_WITH_BOUND",
    "DIVERGENT_MINORANT",
    "UNDETERMINED_TAIL",
    "PoincareSample",
    "CountingFunction",
    "DichotomyReport",
    "classify_tail",
    "poincare_partial",
    "critical_exponent",
    "counting_exponent",
    "verify_dichotomy",
]

CONVERGENT_WITH_BOUND = "convergent-with-bound"
DIVERGENT_MINORANT = "divergent-minorant"
UNDETERMINED_TAIL = "undetermined"

_ENUMERATION_CAP = 20_000_000


@dataclass(frozen=True)
class PoincareSample:
    """Partial Poincare sum over the cube |N|_inf <= radius, identity included."""

    s: float
    partial_sum: float
    radius: int
    tail_classification: str
    tail_bound: float | None
    evidence: str


@dataclass(frozen=True)
class CountingFunction:
    """Exact lattice counts #{N : d(o, N.o) <= t} along a threshold grid.

    slopes holds log(count)/t per level (0 at degenerate count-1 levels);
    final_slope is the least-squares slope of log(count) against t over the
    last third of non-degenerate levels.
    """

    thresholds: np.ndarray
    counts: np.ndarray
    slopes: np.ndarray
    final_slope: float

    def __post_init__(self):
        for name in ("thresholds", "counts", "slopes"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class DichotomyReport:
    """Window ratios log n / log(1/a_n) versus observed partial-sum growth."""

    rule: str
    param: float | None
    ratio_min: float
    ratio_max: float
    verdict: str
    checkpoints: tuple[int, ...]
    partial_sums: tuple[float, ...]
    increments: tuple[float, ...]
    observed: str
    consistent: bool
    note: str


def classify_tail(group: ParabolicGroupSpec, s: float, radius: int) -> tuple[str, float | None, str]:
    """Certified convergence class of the tail beyond |N|_inf = radius.

    Returns (classification, tail upper bound or None, evidence).  The
    comparison templates are power sums: the majorant tail for s > k/2 is
    2k 3^{k-1} sigma_min^{-2s} zeta(2s-k+1, radius+1), with the Hurwitz zeta
    and its error bound from `numerics.hurwitz_zeta` and every product
    rounded up, so the bound is never below the exact majorant for the given
    sigma_min; for s <= k/2 the minorant shells sum to a divergent p-series.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    smin, smax, k = group.sigma_min, group.sigma_max, group.rank
    if 2.0 * s > k:
        # 2k 3^(k-1) is an exact integer, and 2s - (k-1) has no rounding error for 2s < 2^53
        constant = _up(2 * k * 3 ** (k - 1) * _up(smin ** (-2.0 * s), _LIBM_ERR))
        bound = _up(constant * _zeta_interval(2.0 * s - (k - 1), radius + 1)[1])
        evidence = (f"shells m > {radius}: count <= 2k 3^(k-1) m^(k-1), term <= (sigma_min m)^(-2s), "
                    f"sigma_min={smin:.6g}; Hurwitz zeta tail = {bound:.6g}")
        return CONVERGENT_WITH_BOUND, bound, evidence
    evidence = (f"shells m: count >= 2k m^(k-1), term >= (1 + sigma_max sqrt(k) m)^(-2s) with "
                f"sigma_max={smax:.6g}; exponent 2s-(k-1) = {2*s - k + 1:.6g} <= 1 gives a divergent p-series")
    return DIVERGENT_MINORANT, None, evidence


def _gauge_terms(group: ParabolicGroupSpec, s: float, radius: int) -> np.ndarray:
    lattice = _lattice_grid(group.rank, radius)
    interior = np.any(lattice != 0, axis=1)
    disp = lattice[interior].astype(float) @ group.alphas
    return _libm(math.exp, -s * _orbit_distance(disp))


def poincare_partial(group: ParabolicGroupSpec, s: float, radius: int) -> PoincareSample:
    """Partial sum of the Poincare series over |N|_inf <= radius.

    The identity contributes 1; the remaining terms are
    exp(-s 2 arcsinh(|sum N_i alpha_i|/2)).  Summation is deterministic
    (exactly rounded) and the tail is classified by certified shell bounds.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    total = (2 * radius + 1) ** group.rank
    if total > _ENUMERATION_CAP:
        raise ValueError(f"lattice cube has {total} points, above the cap {_ENUMERATION_CAP}")
    partial = 1.0 + compensated_sum(_gauge_terms(group, s, radius))
    classification, bound, evidence = classify_tail(group, s, radius)
    return PoincareSample(float(s), partial, int(radius), classification, bound, evidence)


def critical_exponent(group: ParabolicGroupSpec, tol: float = 0.01) -> CriticalExponentEstimate:
    """Bracket of the convergence abscissa by bisection on the tail class.

    Certified shell bounds decide convergence at every s, so the bracket
    closes to width <= tol around the abscissa; the series itself diverges
    at the abscissa (the minorant is a harmonic-type series there).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def converges(s: float) -> bool:
        return classify_tail(group, s, 1)[0] == CONVERGENT_WITH_BOUND

    hi = 1.0
    while not converges(hi):
        hi *= 2.0
        if hi > 64.0:
            raise ValueError("no convergent exponent found below 64")
    lo, hi = _bisect(converges, 0.0, hi, tol)
    evidence = (f"bisection on certified shell classification; rank={group.rank}, "
                f"sigma_min={group.sigma_min:.6g}, sigma_max={group.sigma_max:.6g}")
    return CriticalExponentEstimate(lo, hi, DIVERGES_AT_CRITICAL, evidence, "bracket")


def _ellipsoid_count(group: ParabolicGroupSpec, length: float) -> int:
    """Exact #{N in Z^k : |sum N_i alpha_i| <= length} for k in {1, 2}."""
    k = group.rank
    if k == 1:
        step = float(np.linalg.norm(group.alphas[0]))
        return 2 * int(math.floor(length / step)) + 1
    if k == 2:
        a = group.alphas[0]
        b = group.alphas[1]
        aa = float(np.dot(a, a))
        bb = float(np.dot(b, b))
        ab = float(np.dot(a, b))
        gram = aa * bb - ab * ab
        n1_max = int(math.floor(length * math.sqrt(bb / gram)))
        n1 = np.arange(-n1_max, n1_max + 1, dtype=float)
        disc = bb * length * length - gram * n1 * n1
        disc = np.maximum(disc, 0.0)
        root = np.sqrt(disc)
        hi = np.floor((-ab * n1 + root) / bb)
        lo = np.ceil((-ab * n1 - root) / bb)
        return int(np.sum(np.maximum(hi - lo + 1.0, 0.0)))
    raise ValueError("exact ellipsoid counts are implemented for rank 1 and 2 only")


def counting_exponent(group: ParabolicGroupSpec, t_max: float = 25.0, levels: int = 50) -> CountingFunction:
    """Exact orbit counts along t_j = j t_max / levels and their log-slope.

    Counts enumerate the exact ellipsoid |sum N_i alpha_i| <= 2 sinh(t/2);
    the final slope regresses log(count) on t over the last third of levels,
    skipping degenerate count-1 levels.
    """
    if levels < 6:
        raise ValueError("need at least 6 levels")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    reach = 2.0 * math.sinh(0.5 * t_max) / group.sigma_min
    if reach > _ENUMERATION_CAP:
        achievable = 2.0 * math.asinh(0.5 * _ENUMERATION_CAP * group.sigma_min)
        raise ValueError(f"enumeration cap exceeded; the largest achievable t_max is {achievable:.2f}")
    thresholds = t_max * np.arange(1, levels + 1) / levels
    counts = np.array(
        [_ellipsoid_count(group, 2.0 * math.sinh(0.5 * t)) for t in thresholds], dtype=np.int64
    )
    if counts[-1] < 1000:
        raise ValueError("t_max reaches fewer than 1000 lattice points; increase it")
    with np.errstate(divide="ignore"):
        slopes = np.where(counts > 1, np.log(np.maximum(counts, 1)) / thresholds, 0.0)
    tail = np.flatnonzero(counts > 1)
    tail = tail[tail >= levels - max(levels // 3, 2)]
    coeffs = np.polyfit(thresholds[tail], np.log(counts[tail].astype(float)), 1)
    return CountingFunction(thresholds, counts, slopes, float(coeffs[0]))


_DICHOTOMY_RULES = ("power", "harmonic", "poincare-gauge")


def _rule_log_inverse(rule: str, param: float | None, n: np.ndarray) -> np.ndarray:
    """log(1/a_n) for the named sequence rule."""
    if rule == "power":
        if param is None or param <= 0:
            raise ValueError("rule 'power' needs a positive exponent (a_n = n^-p)")
        return param * np.log(n)
    if rule == "harmonic":
        return np.log(n)
    if rule == "poincare-gauge":
        if param is None or param <= 0:
            raise ValueError("rule 'poincare-gauge' needs a positive s (a_n = e^{-2 s arcsinh(n/2)})")
        return 2.0 * param * np.arcsinh(0.5 * n)
    raise ValueError(f"unknown rule {rule!r}; choose from {_DICHOTOMY_RULES}")


def verify_dichotomy(rule: str, param: float | None = None) -> DichotomyReport:
    """Compare the window of log n / log(1/a_n) with observed partial sums.

    The window is 400 geometric samples of n in [100, 10^6].  Ratios with
    limsup < 1 certify convergence, liminf > 1 certifies divergence, and a
    window straddling 1 is flagged as boundary.  Partial sums at the decade
    checkpoints 10^2 .. 10^6 report the observed growth for consistency.
    """
    grid = np.unique(np.geomspace(100, 1_000_000, 400).astype(np.int64)).astype(float)
    log_inv = _rule_log_inverse(rule, param, grid)
    if np.any(np.diff(_rule_log_inverse(rule, param, np.arange(1.0, 50.0))) <= 0):
        raise ValueError("sequence rule is not strictly decreasing")
    ratios = np.log(grid) / log_inv
    ratio_min = float(ratios.min())
    ratio_max = float(ratios.max())
    if ratio_max < 1.0:
        verdict = "converges"
    elif ratio_min > 1.0:
        verdict = "diverges"
    else:
        verdict = "boundary"

    checkpoints = [10 ** e for e in range(2, 7)]
    n_all = np.arange(1, checkpoints[-1] + 1, dtype=float)
    terms = np.exp(-_rule_log_inverse(rule, param, n_all))
    cumulative = np.cumsum(terms)
    partial_sums = [float(cumulative[c - 1]) for c in checkpoints]
    increments = [partial_sums[0]] + [
        partial_sums[i] - partial_sums[i - 1] for i in range(1, len(partial_sums))
    ]
    # convergent p-series shrink decade increments by the fixed factor
    # 10^(1-p) < 1; the harmonic boundary keeps them constant at log 10
    shrinking = all(increments[i + 1] <= 0.95 * increments[i] for i in range(len(increments) - 1))
    observed = "decade-increments-shrinking" if shrinking else "decade-increments-persistent"
    if verdict == "converges":
        consistent = shrinking
        note = "ratio window below 1; partial sums must flatten"
    elif verdict == "diverges":
        consistent = not shrinking
        note = "ratio window above 1; partial sums must keep growing"
    else:
        consistent = True
        note = "ratio window touches 1; the dichotomy is silent here"
    return DichotomyReport(
        rule, param, ratio_min, ratio_max, verdict,
        tuple(checkpoints), tuple(partial_sums), tuple(increments),
        observed, consistent, note,
    )
