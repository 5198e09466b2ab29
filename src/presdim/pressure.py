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
from typing import Callable

from .numerics import _sum_enclosure, compensated_sum
from .interval_partition import (
    BranchMap,
    IntervalPartition,
    PartitionError,
    _cylinder_rows,
    _rows_total,
)

__all__ = [
    "PressureSample",
    "CriticalExponentEstimate",
    "RootBracket",
    "pressure_linear",
    "find_s_infinity",
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
class RootBracket:
    """Enclosure [lower, upper] of the root of a decreasing pressure curve."""

    lower: float
    upper: float
    status: str
    evidence: str


def pressure_linear(partition: IntervalPartition, t: float) -> PressureSample:
    """log sum length^t with certified tail bounds from the length model.

    The materialized intervals are summed exactly and the tail is taken past
    the last of them.  Finite explicit partitions have zero tail and the
    sample is exact up to rounding.  t <= 0 on unbounded partitions is a
    divergence flag, not an exception; a t that is not finite raises
    PartitionError.
    """
    t = float(t)
    if not math.isfinite(t):
        raise PartitionError(f"pressure exponent t must be finite (got {t!r})")
    verdict = partition.series_verdict(t)
    k = partition.count
    if verdict.status == "diverges":
        return PressureSample(t, math.inf, math.inf, math.inf, "divergent", verdict.evidence, k, math.inf)
    partial = compensated_sum(partition.lengths ** t)
    lower = math.log(partial + verdict.tail_low)
    if verdict.status == "converges" and verdict.tail_high is not None:
        upper = math.log(partial + verdict.tail_high)
        mid = math.log(partial + 0.5 * (verdict.tail_low + verdict.tail_high))
        return PressureSample(t, mid, lower, upper, "certified", verdict.evidence, k, verdict.tail_high)
    status = "uncertified" if verdict.status == "converges" else "undetermined"
    return PressureSample(t, lower, lower, math.inf, status, verdict.evidence, k, math.inf)


def _behavior_at_threshold(partition: IntervalPartition, s_mid: float) -> tuple[str, str]:
    """Series behavior at the model's exact critical exponent, or at s_mid where the model has none."""
    critical_t = partition.model.critical_t
    if critical_t is not None and critical_t <= 0.0:
        return CONVERGES_AT_CRITICAL, partition.model.boundary_evidence
    verdict = partition.series_verdict(s_mid if critical_t is None else critical_t)
    return _AT_CRITICAL[verdict.status], verdict.evidence


def _guide(points: list) -> float:
    """Where the polynomial t(f) through the (t, f) points meets f = 0, or nan.

    Inverse quadratic interpolation through three points (Brent,
    "Algorithms for Minimization without Derivatives", 1973), the secant
    through two; nan for fewer, or where two estimates are equal.
    """
    if len(points) < 2:
        return math.nan
    try:
        return sum(t * math.prod(g / (g - f) for j, (_, g) in enumerate(points) if j != i)
                   for i, (t, f) in enumerate(points))
    except ZeroDivisionError:
        return math.nan


def _bisect(sample: Callable[[float], tuple[bool, float]], lo: float, hi: float, tol: float,
            known: dict) -> tuple[float, float]:
    """Halve [lo, hi] down to width <= tol; past_root(hi) and not past_root(lo) stay true.

    sample(t) is (past_root(t), estimate): past_root is monotone, and the
    estimate is a curve with the root's sign, or nan.

    The bracket: the samples in `known`, which gains the new ones, decide
    each midpoint at or below the largest a not past the root or at or above
    the smallest b past it.  So the bracket is plain halving's wherever the
    samples fall, and only a midpoint in (a, b) needs a sample.  Up to three
    guided samples come before the midpoint's own, so there are at most
    four samples per midpoint.

    The guide x is `_guide` through the last three finite estimates, those
    in `known` first; a nan x, or one outside (a, b), gives the midpoint.
    The snap: halving [lo, hi] as if x were the root ends in an interval of
    width <= tol around x, and the sample is its end nearer x among those in
    (a, b).  One of them always is: lo <= a < mid < b <= hi, and that
    interval lies on one side of mid, so it cannot hold all of [a, b].
    Every sample thus lies in (a, b), so none repeats, and the samples land
    on halving's own grid: the last two typically on the grid points on
    either side of the root, a fraction of tol from it rather than within
    rounding of it, where one-pass enclosures would leave the sign open.

    A tol finer than the float spacing where the halving stalls raises
    PartitionError.
    """
    a = max((t for t, (past, _) in known.items() if not past and lo <= t <= hi), default=lo)
    b = min((t for t, (past, _) in known.items() if past and lo <= t <= hi), default=hi)
    points = [(t, f) for t, (_, f) in known.items() if math.isfinite(f)]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise PartitionError(f"tolerance {tol!r} is finer than the float spacing {hi - lo!r} at t = {lo!r}")
        for step in range(4):
            if not a < mid < b:
                break
            x = _guide(points[-3:]) if step < 3 else math.nan
            t = mid
            if a < x < b:  # the snap; it stops at the float spacing too, where the halving itself raises
                l, h = lo, hi
                while h - l > tol and l < 0.5 * (l + h) < h:
                    m = 0.5 * (l + h)
                    l, h = (l, m) if x <= m else (m, h)
                t = min((e for e in (l, h) if a < e < b), key=lambda e: abs(e - x))
            past, f = known[t] = sample(t)
            a, b = (a, t) if past else (t, b)
            if math.isfinite(f):
                points.append((t, f))
        lo, hi = (mid, hi) if mid <= a else (lo, mid)
    return lo, hi


def find_s_infinity(partition: IntervalPartition, tol: float = 1e-6) -> CriticalExponentEstimate:
    """Bracket the exponent separating divergence from convergence.

    Runs two monotone bisections against the certified series verdicts: one
    shrinking the least exponent known to give convergence, one growing the
    largest known to give divergence.  If the verdicts leave an undetermined
    band (oscillating local decay), the band itself is reported instead of a
    tolerance-width bracket.
    """
    if not tol > 0:
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

    s_high = _bisect(lambda t: (status(t) == "converges", math.nan), lo, hi, tol, {})[1]
    s_low = _bisect(lambda t: (status(t) != "diverges", math.nan), lo, hi, tol, {})[0]

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


def _curve_sample(lo: float, hi: float, exact: Callable[[], float]) -> tuple[bool, float]:
    """The `_bisect` sample (S <= 1, log lo) of a sum S known to lie in [lo, hi].

    exact() gives S; it is called only where the ends fall on both sides of
    1.  A 0 or inf end compares correctly, and a nan end decides nothing.
    The estimate is -inf where lo is 0 or nan.
    """
    past = hi <= 1.0 or (not lo > 1.0 and exact() <= 1.0)
    return bool(past), math.log(lo) if lo > 0.0 else -math.inf


def _root_bracket(lower: Callable[[float], tuple[bool, float]], upper: Callable[[float], tuple[bool, float]],
                  t_range: tuple[float, float], tol: float, known: tuple[dict, dict]) -> RootBracket:
    """Bracket a root from `_bisect` samples of the lower and the upper curve, known holding each one's."""
    if not tol > 0:
        raise PartitionError("tolerance must be positive")
    t_lo, t_hi = t_range
    if not (math.isfinite(t_lo) and math.isfinite(t_hi) and t_lo < t_hi):
        raise PartitionError(f"t_low and t_high must be finite with t_low < t_high (got {t_lo}, {t_hi})")

    def locate(sample: Callable[[float], tuple[bool, float]], seen: dict) -> tuple[float, str]:
        def past(t: float) -> bool:
            if t not in seen:
                seen[t] = sample(t)
            return seen[t][0]

        if past(t_lo):
            return t_lo, "root-below-range"
        if not past(t_hi):
            return t_hi, "not-bracketed"
        lo, hi = _bisect(sample, t_lo, t_hi, tol, seen)
        return 0.5 * (lo + hi), "ok"

    root_lo, flag_lo = locate(lower, known[0])
    root_hi, flag_hi = locate(upper, known[1])
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


def _linear_past(partition: IntervalPartition, t: float) -> tuple[tuple[bool, float], tuple[bool, float]]:
    """`_bisect` samples of the lower and the upper curve of `bowen_root_linear` at t.

    Each curve is log(S + tail) at one end of the certified tail, with S the
    sum of the materialized lengths^t, so it is <= 0 exactly when
    fl(S + tail) <= 1; a curve without a certified tail end is +inf.  One
    np.sum encloses S in [lo, hi], and S is summed exactly, once for both
    curves, only where an end leaves the comparison open.
    """
    t = float(t)
    verdict = partition.series_verdict(t)
    if verdict.status != "converges":
        return (False, math.inf), (False, math.inf)
    terms = partition.lengths ** t
    lo, hi = _sum_enclosure(terms)
    exact = functools.cache(lambda: compensated_sum(terms))
    return tuple((False, math.inf) if tail is None else _curve_sample(lo + tail, hi + tail, lambda: exact() + tail)
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
    # one sample gives both curves, so the upper search starts from every exponent the lower one sampled,
    # and samples only exponents it lacks
    known = ({}, {})

    def lower(t: float) -> tuple[bool, float]:
        known[0][t], known[1][t] = _linear_past(partition, t)
        return known[0][t]

    return _root_bracket(lower, lambda t: _linear_past(partition, t)[1], t_range, tol, known)


def _cylinder_past(rows: list, t: float) -> tuple[bool, float]:
    """The `_bisect` sample of S = sum_w D_w^-t over one side's rows, as `_cylinder_rows` builds them.

    S <= 1 exactly when that side's curve log(S)/n is <= 0.  S is
    `_rows_total`, which rounds each lead's sum once and adds the leads
    exactly, so it lies between the exact sums of the leads' lower and upper
    enclosure ends, one np.sum each.  The rows are summed exactly only when
    those two leave the comparison open.
    """
    t = float(t)
    lows, highs = zip(*(_sum_enclosure(row ** -t) for row in rows))
    return _curve_sample(compensated_sum(lows), compensated_sum(highs), lambda: _rows_total(rows, t))


def bowen_root_cylinder(
    bmap: BranchMap,
    order: int,
    tol: float = 1e-6,
    alphabet_cap: int | None = None,
    t_range: tuple[float, float] = (1e-6, 8.0),
) -> RootBracket:
    """Bracket the pressure root of an iterated system via depth-n cylinders.

    Writing D_w for the derivative range of the n-th iterate over cylinder
    w intersected with the invariant hull, the two curves are

        lower = (1/n) log sum_w (sup D_w)^-t <= P(t)
        upper = (1/n) log sum_w (inf D_w)^-t >= P(t)

    and both hold at every depth n.  Each is decreasing in t, so their roots
    enclose the true root.  The width is at most 2 t log(C) / n with
    C >= sup D_w / inf D_w at every depth: 1 for affine branches, 4 for the
    reciprocal ones, whose continuant coefficients 0 <= q' <= q give
    ((q + q')/q)^2 <= 4.  Each side's D_w rows do not depend on t: they are
    built when that side's curve takes its first sample.  The lower curve's
    search ends before the upper one's starts, so only one side's rows are
    held at a time, 8 bytes per word (at most 16 MiB at WORD_CAP words).
    The bisections read only whether each curve is <= 0, from
    `_cylinder_past`; the bracket is the one that exact sums give.
    """
    held = {}  # side -> its rows

    def past(side: str) -> Callable[[float], tuple[bool, float]]:
        # past the range ends the two searches seldom share an exponent: each curve evaluates only its own side
        def sample(t: float) -> tuple[bool, float]:
            if side not in held:
                held.clear()  # drop the other side's rows before building these
                held[side] = _cylinder_rows(bmap, order, alphabet_cap, side)
            return _cylinder_past(held[side], t)
        return sample

    bracket = _root_bracket(past("sup"), past("inf"), t_range, tol, ({}, {}))
    evidence = f"depth-{order} cylinder curves over the invariant hull; {bracket.evidence}"
    return RootBracket(bracket.lower, bracket.upper, bracket.status, evidence)
