"""Pressure curves, critical exponents, and certified root brackets.

The pressure of a length partition at exponent t is log sum_n length_n^t.
Every value carries a two-sided enclosure: materialized partial sums plus the
certified tail rules of the generator's length model, or, for iterated
systems, per-cylinder derivative ranges taken over the invariant hull.  The
cylinder enclosures hold at every finite depth, not just asymptotically: the
upper sums are submultiplicative and the lower sums supermultiplicative under
word concatenation because the hull is forward invariant.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .numerics import _sum_enclosure, compensated_sum
from .interval_partition import (
    BranchMap,
    IntervalPartition,
    PartitionError,
    _cylinder_sums,
    _effective_alphabet,
    _lead_derivatives,
    _word_tables,
)

__all__ = [
    "PressureSample",
    "CriticalExponentEstimate",
    "BoundaryClassification",
    "DistortionBounds",
    "RootBracket",
    "pressure_linear",
    "pressure_over_grid",
    "pressure_cylinder_bracket",
    "distortion_constant",
    "find_s_infinity",
    "classify_s_infinity_behavior",
    "bowen_root",
    "bowen_root_linear",
    "bowen_root_cylinder",
]

DIVERGES_AT_CRITICAL = "diverges_at_s_inf"
CONVERGES_AT_CRITICAL = "converges_at_s_inf"
UNDETERMINED_AT_CRITICAL = "undetermined"
_AT_CRITICAL = {
    "converges": CONVERGES_AT_CRITICAL,
    "diverges": DIVERGES_AT_CRITICAL,
    "undetermined": UNDETERMINED_AT_CRITICAL,
}


@dataclass(frozen=True)
class PressureSample:
    """Pressure at one exponent with a two-sided enclosure.

    status: "certified" (lower <= value <= upper), "divergent" (value is
    +inf), "uncertified" (series converges but only the lower bound carries a
    certificate), or "undetermined" (convergence unknown; the lower bound
    still holds).  tail_bound is the certified upper tail of the underlying
    series (0 when the enumeration is exhaustive, +inf when uncertified).
    """

    t: float
    value: float
    lower: float
    upper: float
    status: str
    evidence: str
    truncation: int
    tail_bound: float
    method: str

    @property
    def divergent(self) -> bool:
        return self.status == "divergent"


@dataclass(frozen=True)
class CriticalExponentEstimate:
    """Enclosure [s_low, s_high] of the convergence/divergence threshold.

    status: "bracket" (width at the requested tolerance), "band" (certified
    verdicts cannot separate further; genuine for oscillating local decay),
    or "all-converge" (series converges for every positive t; threshold 0 by
    convention).  divergence_behavior reports the series behavior at the
    threshold itself.
    """

    s_low: float
    s_high: float
    divergence_behavior: str
    evidence: str
    status: str

    @property
    def width(self) -> float:
        return self.s_high - self.s_low

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.s_low + self.s_high)


@dataclass(frozen=True)
class BoundaryClassification:
    """Series behavior at the critical exponent, with a stability annotation."""

    verdict: str
    s_low: float
    s_high: float
    evidence: str
    annotation: str
    stability_note: str


@dataclass(frozen=True)
class DistortionBounds:
    """Uniform bound on sup/inf of iterate derivatives over cylinders."""

    constant: float
    log_constant: float
    description: str


@dataclass(frozen=True)
class RootBracket:
    """Enclosure [lower, upper] of the root of a decreasing pressure curve."""

    lower: float
    upper: float
    status: str
    evidence: str


_STABILITY_NOTE = (
    "Boundary behavior is not a function of the critical exponent alone: "
    "replacing finitely many intervals (any modification supported away from "
    "0) changes neither the exponent nor this classification, while inserting "
    "or removing logarithmic factors in the lengths flips the classification "
    "without moving the exponent."
)

_DIVERGENT_ANNOTATION = (
    "series diverges at the critical exponent: every compact perturbation "
    "keeps a maximal-dimension configuration"
)
_CONVERGENT_ANNOTATION = (
    "series converges at the critical exponent: compact perturbations need "
    "not preserve a maximal-dimension configuration"
)


def pressure_linear(partition: IntervalPartition, t: float) -> PressureSample:
    """log sum length^t with certified tail bounds from the length model.

    The materialized intervals are summed exactly and the tail is taken past
    the last of them.  Finite explicit partitions have zero tail and the
    sample is exact up to rounding.  t <= 0 on unbounded partitions is a
    divergence flag, not an exception.
    """
    t = float(t)
    verdict = partition.series_verdict(t)
    k = partition.count
    if verdict.status == "diverges":
        return PressureSample(t, math.inf, math.inf, math.inf, "divergent", verdict.evidence, k, math.inf,
                              "linear-series")
    partial = compensated_sum(partition.lengths ** t)
    lower = math.log(partial + verdict.tail_low)
    if verdict.status == "converges" and verdict.tail_high is not None:
        upper = math.log(partial + verdict.tail_high)
        mid = math.log(partial + 0.5 * (verdict.tail_low + verdict.tail_high))
        return PressureSample(
            t, mid, lower, upper, "certified", verdict.evidence, k, verdict.tail_high, "linear-series"
        )
    status = "uncertified" if verdict.status == "converges" else "undetermined"
    return PressureSample(t, lower, lower, math.inf, status, verdict.evidence, k, math.inf, "linear-series")


def pressure_over_grid(
    partition: IntervalPartition, exponents: Sequence[float]
) -> list[PressureSample]:
    return [pressure_linear(partition, t) for t in exponents]


def pressure_cylinder_bracket(bmap: BranchMap, t: float, order: int,
                              alphabet_cap: int | None = None) -> PressureSample:
    """Bracket the pressure of the (capped) iterated system at depth `order`.

    Writing D_w for the derivative range of the order-th iterate over
    cylinder w intersected with the invariant hull,

        lower = (1/n) log sum_w (sup D_w)^-t <= P(t)
        upper = (1/n) log sum_w (inf D_w)^-t >= P(t)

    and both hold for every depth n.  The width is at most 2 t log(C) / n
    with C the distortion constant of the map.
    """
    m = _effective_alphabet(bmap, alphabet_cap, order)
    (s_sup, s_inf), = _cylinder_sums(bmap, m, _word_tables(bmap, m, order - 1), [t], ("sup", "inf"))
    lower = math.log(s_sup) / order
    upper = math.log(s_inf) / order
    return PressureSample(
        t=float(t),
        value=0.5 * (lower + upper),
        lower=lower,
        upper=upper,
        status="certified",
        evidence="per-cylinder derivative ranges over the invariant hull",
        truncation=m**order,
        tail_bound=0.0,
        method=f"cylinder-bracket(order={order})",
    )


def distortion_constant(bmap: BranchMap) -> DistortionBounds:
    """A bound C on sup/inf of |(T^n)'| over each cylinder, the same at every depth n.

    Affine branches have no distortion.  For the reciprocal branches the
    iterate derivative over a cylinder is (q' y + q)^2 with continuant
    coefficients 0 <= q' <= q, so the ratio is at most ((q + q')/q)^2 <= 4.
    """
    if bmap.kind == "linear-full":
        return DistortionBounds(1.0, 0.0, "affine branches: iterate derivatives are constant on cylinders")
    return DistortionBounds(
        4.0,
        math.log(4.0),
        "reciprocal branches: continuant coefficients give sup/inf <= ((q+q')/q)^2 <= 4 at every depth",
    )


def _behavior_at_threshold(partition: IntervalPartition, s_mid: float) -> tuple[str, str]:
    """Series behavior at the model's exact critical exponent, or at s_mid where the model has none."""
    critical_t = partition.model.critical_t
    if critical_t is not None and critical_t <= 0.0:
        return CONVERGES_AT_CRITICAL, partition.model.boundary_evidence
    verdict = partition.series_verdict(s_mid if critical_t is None else critical_t)
    return _AT_CRITICAL[verdict.status], verdict.evidence


def _bisect(past_root: Callable[[float], bool], lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi] down to width <= tol; past_root(hi) and not past_root(lo) stay true."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if past_root(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def find_s_infinity(partition: IntervalPartition, tol: float = 1e-6) -> CriticalExponentEstimate:
    """Bracket the exponent separating divergence from convergence.

    Runs two monotone bisections against the certified series verdicts: one
    shrinking the least exponent known to give convergence, one growing the
    largest known to give divergence.  If the verdicts leave an undetermined
    band (oscillating local decay), the band itself is reported instead of a
    tolerance-width bracket.
    """
    if tol <= 0:
        raise PartitionError("tolerance must be positive")
    if partition.model is None:
        return CriticalExponentEstimate(
            0.0, 0.0, CONVERGES_AT_CRITICAL,
            "finite interval list: sum is finite for every t (threshold 0 by convention)", "all-converge",
        )

    def status(t: float) -> str:
        return partition.series_verdict(t).status

    # every length model certifies convergence at t = 1: the lengths of a tiling sum to at most 1
    lo = hi = 1.0
    while status(lo) != "diverges":
        lo *= 0.5
        if lo < 1e-12:
            behavior, evidence = _behavior_at_threshold(partition, 0.0)
            return CriticalExponentEstimate(
                0.0, 0.0, behavior,
                evidence + "; series converges for every positive exponent tested down to 1e-12",
                "all-converge",
            )

    s_high = _bisect(lambda t: status(t) == "converges", lo, hi, tol)[1]
    s_low = _bisect(lambda t: status(t) != "diverges", lo, hi, tol)[0]

    behavior, behavior_evidence = _behavior_at_threshold(partition, 0.5 * (s_low + s_high))
    if s_high - s_low <= 3.0 * tol:
        return CriticalExponentEstimate(
            s_low, s_high, behavior,
            "bisection against certified series verdicts; " + behavior_evidence,
            "bracket",
        )
    return CriticalExponentEstimate(
        s_low, s_high, behavior,
        "verdicts undetermined between the bounds (local decay exponent oscillates); " + behavior_evidence,
        "band",
    )


def classify_s_infinity_behavior(partition: IntervalPartition, tol: float = 1e-4) -> BoundaryClassification:
    """Convergence status of the length series at its own critical exponent."""
    est = find_s_infinity(partition, tol=tol)
    verdict = est.divergence_behavior
    annotation = {
        DIVERGES_AT_CRITICAL: _DIVERGENT_ANNOTATION,
        CONVERGES_AT_CRITICAL: _CONVERGENT_ANNOTATION,
        UNDETERMINED_AT_CRITICAL: "boundary behavior undetermined at the available verdicts",
    }[verdict]
    return BoundaryClassification(verdict, est.s_low, est.s_high, est.evidence, annotation, _STABILITY_NOTE)


def _at_most_one(lo: float, hi: float, exact: Callable[[], float]) -> bool:
    """Whether a sum known to lie in [lo, hi] is at most 1; exact() gives the sum where the ends disagree.

    The ends decide whenever they fall on one side of 1.  A 0 or inf end
    compares correctly, and a nan end decides nothing.
    """
    if hi <= 1.0:
        return True
    if lo > 1.0:
        return False
    return exact() <= 1.0


def _root_bracket(lower_past: Callable[[float], bool], upper_past: Callable[[float], bool],
                  t_range: tuple[float, float], tol: float) -> RootBracket:
    """Bracket a root from whether the lower and the upper curve are <= 0 at each t."""
    if tol <= 0:
        raise PartitionError("tolerance must be positive")
    t_lo, t_hi = t_range

    def locate(past: Callable[[float], bool]) -> tuple[float, str]:
        if past(t_lo):
            return t_lo, "root-below-range"
        if not past(t_hi):
            return t_hi, "not-bracketed"
        lo, hi = _bisect(past, t_lo, t_hi, tol)
        return 0.5 * (lo + hi), "ok"

    root_lo, flag_lo = locate(lower_past)
    root_hi, flag_hi = locate(upper_past)
    if flag_lo != "ok" or flag_hi != "ok":
        return RootBracket(
            root_lo, root_hi, "not-bracketed",
            f"lower curve: {flag_lo}; upper curve: {flag_hi} over t in [{t_lo}, {t_hi}]",
        )
    return RootBracket(
        max(root_lo - tol, t_lo),
        root_hi + tol,
        "bracketed",
        "roots of the certified lower and upper pressure curves, padded by the bisection tolerance",
    )


def bowen_root(
    lower_curve: Callable[[float], float],
    upper_curve: Callable[[float], float],
    t_range: tuple[float, float] = (1e-6, 8.0),
    tol: float = 1e-9,
) -> RootBracket:
    """Bracket the root of a decreasing pressure curve enclosed by two curves.

    lower_curve <= pressure <= upper_curve pointwise, with both curves
    decreasing; the true root then lies between their roots.  Curves may
    return +inf (divergence) on the left of their domain.  The returned
    bracket is padded by the bisection tolerance on each side.
    """
    return _root_bracket(lambda t: not lower_curve(t) > 0.0, lambda t: not upper_curve(t) > 0.0, t_range, tol)


def _linear_past(partition: IntervalPartition, t: float) -> tuple[bool, bool]:
    """Whether the lower and the upper curve of `bowen_root_linear` are <= 0 at t.

    Each curve is log(S + tail) at one end of the certified tail, with S the
    sum of the materialized lengths^t, so it is <= 0 exactly when
    fl(S + tail) <= 1; a curve without a certified tail end is +inf.  One
    np.sum encloses S, and S is summed exactly, once for both curves, only
    where an enclosure end leaves the comparison open.
    """
    t = float(t)
    verdict = partition.series_verdict(t)
    if verdict.status != "converges":
        return False, False
    terms = partition.lengths ** t
    lo, hi = _sum_enclosure(terms)
    exact = functools.cache(lambda: compensated_sum(terms))
    return tuple(tail is not None and _at_most_one(lo + tail, hi + tail, lambda: exact() + tail)
                 for tail in (verdict.tail_low, verdict.tail_high))


def bowen_root_linear(
    partition: IntervalPartition,
    tol: float = 1e-9,
    t_range: tuple[float, float] = (1e-6, 8.0),
) -> RootBracket:
    """Bracket the root of the pressure curve of a length partition.

    Both curves are `pressure_linear` bounds: the upper curve is its upper
    bound, the lower curve its lower bound except where convergence is
    undetermined, which counts as +inf.  Divergent exponents are +inf on both
    curves, which keeps the bisections sound: they tighten toward the
    certified-convergent region from the right.  The bisections read only
    whether each curve is <= 0, from `_linear_past`; the bracket is the one
    that exact sums at every exponent give.
    """
    # the two bisections share most midpoints: evaluate each exponent once
    past = functools.cache(lambda t: _linear_past(partition, t))
    return _root_bracket(lambda t: past(t)[0], lambda t: past(t)[1], t_range, tol)


def _cylinder_past(bmap: BranchMap, m: int, suffixes: tuple, side: str, t: float) -> bool:
    """Whether S = sum_w D_w^-t on one side ("sup" or "inf") is at most 1: that side's curve log(S)/n is <= 0.

    The exact S rounds each lead's sum once and adds the leads exactly, so
    it lies between the exact sums of the leads' lower and upper enclosure
    ends, one np.sum each.  The words are walked again and summed exactly
    only when those two leave the comparison open.
    """
    t = float(t)
    lows, highs = zip(*(_sum_enclosure(d ** -t) for (d,) in _lead_derivatives(bmap, m, suffixes, (side,))))
    return _at_most_one(compensated_sum(lows), compensated_sum(highs),
                        lambda: _cylinder_sums(bmap, m, suffixes, [t], (side,))[0, 0])


def bowen_root_cylinder(
    bmap: BranchMap,
    order: int,
    tol: float = 1e-6,
    alphabet_cap: int | None = None,
    t_range: tuple[float, float] = (1e-6, 8.0),
) -> RootBracket:
    """Bracket the pressure root of an iterated system via depth-n cylinders.

    Uses the two curves of `pressure_cylinder_bracket` at a fixed depth; each
    is decreasing in t and they enclose the pressure at every depth, so their
    roots enclose the true root.  Bracket widths shrink like (2 log C)/n.
    The depth n-1 suffix tables do not depend on t and are built once.  The
    bisections read only whether each curve is <= 0, from `_cylinder_past`;
    the bracket is the one that exact sums give.
    """
    m = _effective_alphabet(bmap, alphabet_cap, order)
    suffixes = _word_tables(bmap, m, order - 1)

    def past(side: str) -> Callable[[float], bool]:
        # the two bisections share only their first few exponents, so each
        # curve evaluates only its own side; a bisection never repeats an exponent
        return lambda t: _cylinder_past(bmap, m, suffixes, side, t)

    bracket = _root_bracket(past("sup"), past("inf"), t_range, tol)
    evidence = f"depth-{order} cylinder curves over the invariant hull; {bracket.evidence}"
    return RootBracket(bracket.lower, bracket.upper, bracket.status, evidence)
