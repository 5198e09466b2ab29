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

import numpy as np

from .numerics import _U, _down, _gamma, _up, compensated_sum
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
    still holds).  tail_bound is the series verdict's tail_high: the
    certified upper tail (0 when the enumeration is exhaustive), or inf, as
    upper then is, wherever no upper tail is certified.
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
    the last of them.  Finite interval lists have zero tail and the sample
    is exact up to rounding.  t <= 0 on unbounded partitions is a
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
    if verdict.tail_high < math.inf:
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
    rounding of it, where the enclosures would leave the sign open.

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


# a length summary keeps this many leading lengths as they are, and blocks of _BLOCK lengths past them
_HEAD = 4096
_BLOCK = 256
# numpy's pow on arrays, a SIMD routine on some CPUs, is budgeted at 4 ulps (relative 8u), twice over as
# numerics._LIBM_ERR budgets libm's 1 ulp; tests check the measured error of the benchmark lengths against a quarter
_POW_ERR = 16.0 * _U


def _length_summary(*rows: np.ndarray, head: int = _HEAD, anchor: float = 1.0) -> list:
    """[cuts, head, mins, maxs, sums, anchor] of the arrays rows: the first cut >= `head` values of each
    as they are, then each block of _BLOCK values by its min, its max and the float sum of its values to
    the power anchor, 1 (the values themselves) or 0 (the block's count, exactly)."""
    cuts = [row.size - max(row.size - head, 0) // _BLOCK * _BLOCK for row in rows]
    blocks = [row[cut:].reshape(-1, _BLOCK) for row, cut in zip(rows, cuts)]
    mins = np.concatenate([block.min(axis=1) for block in blocks])
    sums = np.concatenate([block.sum(axis=1) for block in blocks]) if anchor else np.full(mins.size, float(_BLOCK))
    return [cuts, np.concatenate([row[:cut] for row, cut in zip(rows, cuts)]), mins,
            np.concatenate([block.max(axis=1) for block in blocks]), sums, anchor]


def _summary_enclosure(summary: list, e: float) -> tuple[float, float]:
    """Floats lo <= S <= hi around the exact sum S of the float terms x ** e over the values x of a
    `_length_summary`, and around that sum rounded once per row and once in all (`_rows_total`).

    With a the summary's anchor, a block's values x carry x^e = x^a x^(e-a), with x^(e-a) between
    min^(e-a) and max^(e-a), so the block adds between its sum of x^a times min^(e-a) and times
    max^(e-a), the ends swapped for e < a; the head's powers are summed as they are.  The rounding
    budget: a pow of numpy's, at the head, the block ends, each term x ** e and each anchor term, is
    within _POW_ERR of its power relative, or 2^-1022 absolute below the normal range; a float sum of
    k + 1 nonnegative terms is within gamma_k relative (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., 3.1 and 4.2), the block sums' and the dot product's too; d = fl(e - a) misses
    e - a by r (Fast2Sum gives r exactly), which moves x^d by at most 2 * 745 |r| relative, as
    |log x| <= 745 for a positive float x; and each rounding of `_rows_total` costs u.  An end may come
    out inf or nan, where a block's end overflows; `_sample` then re-anchors the summary at e.
    """
    _, head, mins, maxs, sums, a = summary
    d = e - a
    r = e - (d + a) if abs(a) >= abs(e) else (e - d) - a
    low, high = (mins, maxs) if d >= 0.0 else (maxs, mins)
    head_sum = float((head ** e).sum())
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing end is inf or nan, and `_sample` re-anchors
        high = high ** d
        lo = head_sum + float(np.dot(sums, low ** d))
        hi = head_sum + float(np.dot(sums, high))
        # under 4 n pows and products, and each anchor term times its block's high end, err by 2^-1022 each
        slack = (head.size + sums.size * _BLOCK + 64.0 * float(high.sum())) * 2.0 ** -1019
    rel = (4.0 * _POW_ERR + _gamma(head.size) + _gamma(_BLOCK) + _gamma(sums.size + 1) + 3.0 * _U
           + 1490.0 * abs(r))
    return (max(0.0, math.nextafter(_down(lo, rel) - slack, -math.inf)),
            math.nextafter(_up(hi, rel) + slack, math.inf))


def _reanchor(rows: list, summary: list, e: float) -> None:
    """One power pass: re-anchor the rows' `summary` at exponent e, each block's sum now that of its values ** e."""
    summary[4:] = [np.concatenate([(row[cut:] ** e).reshape(-1, _BLOCK).sum(axis=1)
                                   for row, cut in zip(rows, summary[0])]), e]


def _sample(rows: list, summary: list, e: float, tails: tuple) -> list:
    """The `_bisect` sample of the curve log(S + tail) for each tail, S = `_rows_total`(rows, e).

    A curve is <= 0 exactly when fl(S + tail) <= 1, and fl(x + tail) is
    monotone in x, so ends of the summary's enclosure of S
    (`_summary_enclosure`) on one side of 1 decide it.  Where an end is inf
    or nan, or the ends leave some curve open, one power pass re-anchors the
    summary at e (`_reanchor`), and the same enclosure, now at d = 0, encloses
    S again from the pass's block sums; only where that still leaves a curve
    open are the rows summed exactly, once for every curve.  Each sample is
    (fl(S + tail) <= 1, log(lo + tail)) for the enclosure's lower end lo, its
    estimate -inf where lo + tail is 0 or nan.  An end of 0 or inf compares
    correctly and a nan end or tail decides nothing, so an inf tail gives
    (False, inf).
    """
    lo, hi = _summary_enclosure(summary, e)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not all(hi + tail <= 1.0 or lo + tail > 1.0 for tail in tails):
        _reanchor(rows, summary, e)
        lo, hi = _summary_enclosure(summary, e)
    exact = functools.cache(lambda: _rows_total(rows, e))
    return [(bool(hi + tail <= 1.0 or (not lo + tail > 1.0 and exact() + tail <= 1.0)),
             math.log(lo + tail) if lo + tail > 0.0 else -math.inf) for tail in tails]


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
    whether each curve is <= 0, from `_sample` over the one row of lengths at
    e = t with the two tail ends (an upper tail that is not certified is inf);
    the bracket is the one that exact sums at every exponent give.  The
    lengths are summarised once (`_length_summary`: the first 4096 as they
    are, then the min, max and sum of each block of 256).
    """
    rows, summary = [partition.lengths], _length_summary(partition.lengths)
    # one sample gives both curves, so the upper search starts from every exponent the lower one sampled,
    # and samples only exponents it lacks
    known = ({}, {})

    def sample(t: float) -> list:
        t = float(t)
        verdict = partition.series_verdict(t)
        if verdict.status != "converges":
            return [(False, math.inf)] * 2
        return _sample(rows, summary, t, (verdict.tail_low, verdict.tail_high))

    def lower(t: float) -> tuple[bool, float]:
        known[0][t], known[1][t] = sample(t)
        return known[0][t]

    return _root_bracket(lower, lambda t: sample(t)[1], t_range, tol, known)


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
    The bisections read only whether each curve is <= 0, from `_sample`
    over that side's rows at e = -t with the one tail 0; the bracket is the
    one that exact sums give.  A side's summary holds each lead's blocks of
    256 words by min and max D_w, anchored at t = 0, where a block sums to
    its word count.
    """
    held = {}  # side -> its rows

    def past(side: str) -> Callable[[float], tuple[bool, float]]:
        # past the range ends the two searches seldom share an exponent: each curve evaluates only its own side
        def sample(t: float) -> tuple[bool, float]:
            if side not in held:
                held.clear()  # drop the other side's rows before building these
                rows = _cylinder_rows(bmap, order, alphabet_cap, side)
                held[side] = rows, _length_summary(*rows, head=0, anchor=0.0)
            return _sample(*held[side], -float(t), (0.0,))[0]
        return sample

    bracket = _root_bracket(past("sup"), past("inf"), t_range, tol, ({}, {}))
    evidence = f"depth-{order} cylinder curves over the invariant hull; {bracket.evidence}"
    return RootBracket(bracket.lower, bracket.upper, bracket.status, evidence)
