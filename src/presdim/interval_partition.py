"""Countable interval partitions of (0, 1] and expanding branch maps over them.

A partition is a finite materialized prefix (intervals ordered by decreasing
right endpoint) plus, for the built-in generators, a closed-form length model
that describes every interval beyond the truncation.  The length models carry
certified tail rules for power sums, which is what makes pressure values and
critical exponents bracketable instead of merely estimated.

Built-in generators tile (0, 1] via a decreasing endpoint sequence h(n) with
h(1) = 1: interval n is [h(n+1), h(n)], so truncation tails telescope exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .numerics import _LIBM_ERR, _U, _down, _up, compensated_sum, hurwitz_zeta

__all__ = [
    "PartitionError",
    "IntervalPartition",
    "SeriesVerdict",
    "build_partition",
    "BranchMap",
    "make_branch_map",
    "cylinder_derivative_sums",
    "max_cylinder_order",
    "WORD_CAP",
]

_TILING_TOL = 1e-12
# default limit on the number of cylinder words one enumeration may build
WORD_CAP = 1 << 21


class PartitionError(ValueError):
    """Invalid partition data or an operation outside a generator's domain."""


@dataclass(frozen=True)
class SeriesVerdict:
    """Outcome of testing sum_n length_n^t for convergence past index M.

    status is one of "converges", "diverges", "undetermined".  When the
    series converges with a certified tail, tail_low <= true tail <= tail_high.
    tail_high may be None for convergence established only by a ratio window
    (no certified bound).
    """

    status: str
    evidence: str
    tail_low: float = 0.0
    tail_high: float | None = None


# ---------------------------------------------------------------------------
# length models (closed forms for the built-in generators)


class _LengthModel:
    """Closed-form endpoint/length data for indices beyond the truncation.

    Each model defines `right_endpoint(n)`, the array h(n), and
    `series_verdict(t, m)`, the verdict past index m at t > 0
    (`IntervalPartition.series_verdict` answers t <= 0).  Models that set
    `in_place` take `right_endpoint(n, overwrite=True)`, which writes h(n)
    into the float array n itself, with the bits of a fresh array.
    """

    in_place = False

    # exact exponent separating convergence from divergence, if known
    critical_t: float | None = None

    def length_tail_exact(self, m: int) -> float:
        """Exact value of sum_{n > m} length_n (telescoping)."""
        return float(self.right_endpoint(np.array([m + 1.0]))[0])


class _GaussLengths(_LengthModel):
    """h(n) = 1/n, lengths 1/(n(n+1))."""

    critical_t = 0.5

    in_place = True

    def right_endpoint(self, n, overwrite=False):
        n = np.asarray(n, dtype=float)
        return np.divide(1.0, n, out=n if overwrite else None)

    def series_verdict(self, t, m):
        if t <= 0.5:
            return SeriesVerdict("diverges", "harmonic minorant: terms >= (n+1)^(-2t) with 2t <= 1")
        z_lo, z_hi = hurwitz_zeta(2.0 * t, m + 1)
        # (n(n+1))^-t = n^-2t (1+1/n)^-t with the second factor in
        # [(1+1/(m+1))^-t, 1] for n > m; the rounded base 1+1/(m+1) is off by
        # at most 1.5u, which the power turns into 1.5 t u
        factor = _down((1.0 + 1.0 / (m + 1)) ** (-t), (2.0 * t + 1.0) * _U + _LIBM_ERR)
        return SeriesVerdict("converges", "Hurwitz zeta sandwich", _down(z_lo * factor), z_hi)


class _DyadicLengths(_LengthModel):
    """h(n) = 2^(1-n), lengths 2^(-n); geometric tails are exact."""

    critical_t = 0.0
    boundary_evidence = "geometric series converges for every t > 0 (boundary convention at 0)"

    def right_endpoint(self, n):
        return np.exp2(1.0 - np.asarray(n, dtype=float))

    def series_verdict(self, t, m):
        r = 2.0 ** (-t)
        tail = r ** (m + 1) / (1.0 - r)
        return SeriesVerdict("converges", "geometric closed form", tail, tail)


class _PowerLawLengths(_LengthModel):
    """h(n) = n^(1-p), lengths asymptotically (p-1) n^(-p), p > 1."""

    in_place = True

    def __init__(self, exponent: float):
        if not exponent > 1.0:
            raise PartitionError(f"power-law exponent must exceed 1, got {exponent}")
        self.exponent = float(exponent)
        self.critical_t = 1.0 / self.exponent

    def right_endpoint(self, n, overwrite=False):
        n = np.asarray(n, dtype=float) if overwrite else np.array(n, dtype=float)
        # **= takes numpy's scalar-power shortcuts (1/n at p = 2) just as ** does
        n **= 1.0 - self.exponent
        return n

    def series_verdict(self, t, m):
        p, q = self.exponent, self.exponent - 1.0
        if p * t <= 1.0:
            return SeriesVerdict("diverges", "integral-test minorant q^t sum (n+1)^(-pt), pt <= 1")
        # mean value theorem: q (n+1)^-p <= length_n <= q n^-p; q = p - 1 is exact, and
        # zeta(s, a) falls as s grows, so the rounded p t is widened outward
        scale = q ** t
        s, s_lo = _up(p * t), _down(p * t)
        lo = _down(_down(scale, _LIBM_ERR) * hurwitz_zeta(s, m + 2)[0])
        hi = _up(_up(scale, _LIBM_ERR) * hurwitz_zeta(s_lo, m + 1)[1]) if s_lo > 1.0 else None
        return SeriesVerdict("converges", "mean-value sandwich with Hurwitz zeta", lo, hi)


class _LogSquaredLengths(_LengthModel):
    """h(n) = log(2)/log(n+1), lengths asymptotically log(2)/(n log^2 n)."""

    critical_t = 1.0

    in_place = True

    def right_endpoint(self, n, overwrite=False):
        n = np.asarray(n, dtype=float)
        out = n if overwrite else None
        h = np.log(np.add(n, 1.0, out=out), out=out)
        return np.divide(math.log(2.0), h, out=h)

    def series_verdict(self, t, m):
        if t < 1.0:
            return SeriesVerdict(
                "diverges",
                "integral-test minorant: terms >= (log2/((n+2) log^2(n+2)))^t, "
                "sum x^(-t) log^(-2t) x = infinity for t < 1",
            )
        if t == 1.0:
            tail = self.length_tail_exact(m)
            return SeriesVerdict("converges", "telescoping exact tail", tail, tail)
        # length_n <= log2 / ((n+1) log^2(n+1)); pull the slowly varying log
        # factor out at the truncation boundary
        # two logs and two powers of them: 1 ulp each, scaled by t and 2t in the powers
        factor = (math.log(2.0) ** t) * math.log(m + 2.0) ** (-2.0 * t)
        hi = _up(_up(factor, (3.0 * t + 2.5) * _LIBM_ERR) * hurwitz_zeta(t, m + 2)[1])
        return SeriesVerdict("converges", "majorant with boundary log factor (lower bound 0)", 0.0, hi)


class _OscillatingLengths(_LengthModel):
    """Alternating local decay exponents so the gap ratios have no limit.

    h(n) = exp(-phi(log n)) with phi piecewise linear: slope 1 on [0, 3],
    then slopes alternating 2, 1, 2, ... on consecutive blocks
    [3^(j+1), 3^(j+2)].  Lengths behave like n^(-2) at the end of slope-1
    blocks and n^(-3) at the end of slope-2 blocks, so the running ratios
    log n / (-log length) oscillate between roughly 1/3 and 1/2 forever.
    """

    @staticmethod
    def _phi(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.minimum(x, 3.0)
        lo, slope, top = 3.0, 2.0, x.max()
        # blocks starting at or past every x would each add an exact +0.0
        while lo < top:
            out = out + slope * (np.clip(x, lo, 3.0 * lo) - lo)
            lo, slope = 3.0 * lo, 3.0 - slope
        return out

    def right_endpoint(self, n):
        return np.exp(-self._phi(np.log(np.asarray(n, dtype=float))))

    def __init__(self):
        # ratio windows by n_lo: series_verdict asks for the same one at every exponent
        self._windows: dict[int, tuple[float, float]] = {}

    def log_length(self, n):
        n = np.asarray(n, dtype=float)
        phi_n = self._phi(np.log(n))
        dphi = self._phi(np.log(n + 1.0)) - phi_n
        # length = h(n)(1 - exp(-dphi)); dphi ~ slope/n so keep it in log form
        return -phi_n + np.log(-np.expm1(-dphi))

    # geometric sampling cannot miss a window extremum of the slowly varying
    # ratio sequence by more than this
    _RATIO_PAD = 0.005

    def ratio_window(self, n_lo: int) -> tuple[float, float]:
        """(min, max) of log n / (-log length_n) over a geometric grid of n in [n_lo, 10^12]."""
        if n_lo not in self._windows:
            grid = np.unique(np.geomspace(n_lo, 10**12, 800).astype(np.int64))
            r = np.log(grid.astype(float)) / (-self.log_length(grid))
            self._windows[n_lo] = float(r.min()), float(r.max())
        return self._windows[n_lo]

    def series_verdict(self, t, m):
        if t > 0.5:
            # certified: length_n <= h(n) * dphi <= (1/n) * 2 log(1+1/n) <= 2/n^2
            hi = _up(_up(2.0 ** t, _LIBM_ERR) * hurwitz_zeta(2.0 * t, m + 1)[1])
            return SeriesVerdict("converges", "majorant 2 n^(-2) with Hurwitz tail", 0.0, hi)
        r_min, r_max = self.ratio_window(max(m // 2, 16))
        if t > r_max + self._RATIO_PAD:
            return SeriesVerdict(
                "converges", f"ratio window: sup log n / (-t log length) = {r_max / t:.4f} < 1", 0.0, None
            )
        if t < r_min - self._RATIO_PAD:
            return SeriesVerdict(
                "diverges", f"ratio window: inf log n / (-t log length) = {r_min / t:.4f} > 1"
            )
        return SeriesVerdict("undetermined", "exponent inside the oscillation band of the ratio window")


# ---------------------------------------------------------------------------
# the partition type


@dataclass(frozen=True, eq=False)
class IntervalPartition:
    """Finitely many materialized intervals, ordered by decreasing right endpoint.

    Instances are immutable; the arrays are read-only views.  `model` is the
    closed-form length model when the generator is one of the built-ins (None
    for explicit lists and finite digit sets).
    """

    left: np.ndarray
    right: np.ndarray
    generator: str
    params: dict = field(default_factory=dict)
    model: _LengthModel | None = None

    def __post_init__(self):
        left = np.ascontiguousarray(np.asarray(self.left, dtype=float))
        right = np.ascontiguousarray(np.asarray(self.right, dtype=float))
        if left.shape != right.shape or left.ndim != 1 or left.size == 0:
            raise PartitionError("partition needs matching 1-d, non-empty endpoint arrays")
        # right > left is right - left > 0 without a float temporary (subnormals keep the sign)
        tiles = np.all(right > left) and np.all(right[1:] < right[:-1]) and np.all(right[1:] <= left[:-1])
        if tiles:
            # positive, ordered and disjoint: left decreases too, so its ends are the extremes
            if not (left[-1] >= -1e-15 and right[0] <= 1.0 + 1e-15):
                raise PartitionError("intervals must lie inside [0, 1]")
        else:
            self._check_rules(left, right)
        left.setflags(write=False)
        right.setflags(write=False)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        lengths = right - left
        lengths.setflags(write=False)
        object.__setattr__(self, "_lengths", lengths)

    @staticmethod
    def _check_rules(left: np.ndarray, right: np.ndarray) -> None:
        """Raise the first broken rule's PartitionError, in this order."""
        if not (np.all(left >= -1e-15) and np.all(right <= 1.0 + 1e-15)):
            raise PartitionError("intervals must lie inside [0, 1]")
        if not np.all(right > left):
            raise PartitionError("every interval needs positive length")
        if not np.all(right[1:] < right[:-1]):
            raise PartitionError("intervals must be ordered by strictly decreasing right endpoint")
        # disjoint interiors: next right endpoint must not pass the current left
        if left.size > 1 and np.any(right[1:] - left[:-1] > _TILING_TOL):
            raise PartitionError("interval interiors overlap")

    @property
    def count(self) -> int:
        return int(self.left.size)

    @property
    def lengths(self) -> np.ndarray:
        return self._lengths

    def endpoints(self) -> np.ndarray:
        """Endpoints of the intervals from left to right, repeats kept: a line `PointCloud` drops them.

        They ascend unless intervals overlap, as no built-in generator's do; a line `PointCloud` sorts them otherwise.
        """
        return np.column_stack([self.left[::-1], self.right[::-1]]).ravel()

    def total_length(self) -> float:
        return compensated_sum(self.lengths)

    def tiling_defect(self) -> float | None:
        """materialized mass + exact tail - 1, for generators that tile (0, 1]."""
        if self.model is None:
            return None
        return self.total_length() + self.model.length_tail_exact(self.count) - 1.0

    def series_verdict(self, t: float) -> SeriesVerdict:
        """Convergence test for sum length_n^t over the full (untruncated) system."""
        if self.model is None:
            return SeriesVerdict("converges", "finite interval list", 0.0, 0.0)
        if t <= 0.0:
            return SeriesVerdict("diverges", "unbounded alphabet with nonpositive exponent")
        return self.model.series_verdict(float(t), self.count)


# ---------------------------------------------------------------------------
# construction


_MODELS = {
    "gauss": _GaussLengths,
    "dyadic": _DyadicLengths,
    "power-law": _PowerLawLengths,
    "log-squared": _LogSquaredLengths,
    "oscillating": _OscillatingLengths,
}


def build_partition(
    generator: str,
    truncation: int | None = None,
    *,
    exponent: float | None = None,
    digits: Sequence[int] | None = None,
    intervals: Iterable[tuple[float, float]] | None = None,
) -> IntervalPartition:
    """Materialize a partition from a named generator.

    generator: one of "gauss", "dyadic", "power-law", "log-squared",
    "oscillating", "gauss-restricted", "explicit".  `truncation` is the number
    of materialized intervals for the unbounded generators.  power-law takes
    `exponent` (> 1, the length decay rate); gauss-restricted takes `digits`
    (a finite set of branch digits); explicit takes `intervals`.

    Generator endpoints must decrease strictly: every interval needs positive
    length.
    """
    if digits is not None and generator != "gauss-restricted":
        raise PartitionError("digits only apply to the gauss-restricted generator")
    if exponent is not None and generator != "power-law":
        raise PartitionError("exponent only applies to the power-law generator")
    if generator in _MODELS:
        if truncation is None or truncation < 1:
            raise PartitionError("unbounded generators need truncation >= 1")
        if generator == "dyadic" and truncation > 1000:
            raise PartitionError("dyadic lengths underflow float64 past n = 1074; use truncation <= 1000")
        params = {}
        if generator == "power-law":
            if exponent is None:
                raise PartitionError("power-law needs exponent")
            params["exponent"] = exponent
        model = _MODELS[generator](**params)
        n = np.arange(1, truncation + 2, dtype=float)
        h = model.right_endpoint(n, overwrite=True) if model.in_place else model.right_endpoint(n)
        return IntervalPartition(h[1:], h[:-1], generator, params, model)

    if generator == "gauss-restricted":
        if not digits:
            raise PartitionError("gauss-restricted needs a non-empty digit set")
        ds = sorted(set(int(d) for d in digits))
        if ds[0] < 1:
            raise PartitionError("digits must be positive integers")
        right = 1.0 / np.array(ds, dtype=float)
        left = 1.0 / (np.array(ds, dtype=float) + 1.0)
        return IntervalPartition(left, right, generator, {"digits": tuple(ds)}, None)

    if generator == "explicit":
        if intervals is None:
            raise PartitionError("explicit generator needs intervals")
        pairs = sorted(((float(a), float(b)) for a, b in intervals), key=lambda ab: -ab[1])
        if not pairs:
            raise PartitionError("explicit generator needs at least one interval")
        left = np.array([a for a, _ in pairs])
        right = np.array([b for _, b in pairs])
        return IntervalPartition(left, right, "explicit", {}, None)

    raise PartitionError(f"unknown generator {generator!r}")


# ---------------------------------------------------------------------------
# branch maps and cylinders


@dataclass(frozen=True, eq=False)
class BranchMap:
    """A full-branch expanding map: each interval maps onto (0, 1).

    kind "linear-full": the affine increasing bijection per interval.
    kind "gauss-analytic": x -> 1/x - d on the branch with digit d; only
    available over gauss or gauss-restricted partitions.
    """

    kind: str
    partition: IntervalPartition
    digits: np.ndarray | None = None

    @property
    def branch_count(self) -> int:
        return self.partition.count

    @property
    def alphabet_unbounded(self) -> bool:
        return self.kind == "gauss-analytic" and self.partition.generator == "gauss"

    def invariant_hull(self) -> tuple[float, float]:
        """Smallest interval containing every forward-invariant point.

        Periodic points of every iterate live here, so per-cylinder derivative
        ranges may be taken over cylinder ∩ hull without losing any of them.
        For the full reciprocal family the hull is all of [0, 1]; for a finite
        digit set it is the fixed interval of (m, M) -> (f_max(M), f_min(m)).
        """
        if self.kind == "linear-full" or self.alphabet_unbounded:
            return 0.0, 1.0
        dmin, dmax = float(self.digits.min()), float(self.digits.max())
        m, big = 0.0, 1.0
        for _ in range(200):
            big = 1.0 / (dmin + m)
            m = 1.0 / (dmax + big)
        return m, big


def make_branch_map(partition: IntervalPartition) -> BranchMap:
    """The branch map its generator implies.

    gauss and gauss-restricted partitions get the reciprocal branches
    x -> 1/x - d; every other partition gets the affine full branches.
    """
    if partition.generator == "gauss":
        digits = np.arange(1, partition.count + 1)
    elif partition.generator == "gauss-restricted":
        digits = np.array(partition.params["digits"])
    else:
        return BranchMap("linear-full", partition, None)
    digits.setflags(write=False)
    return BranchMap("gauss-analytic", partition, digits)


def max_cylinder_order(branches: int) -> int:
    """Largest depth n >= 1 with branches^n <= WORD_CAP, in exact integers."""
    if branches < 2:
        raise PartitionError("a single-branch alphabet has no largest cylinder order; set the order")
    n = 1
    while branches ** (n + 1) <= WORD_CAP:
        n += 1
    return n


def _effective_alphabet(bmap: BranchMap, alphabet_cap: int | None, order: int) -> int:
    """Branches m of a depth-`order` enumeration, checked against WORD_CAP words."""
    m = bmap.branch_count
    if alphabet_cap is not None:
        m = min(m, int(alphabet_cap))
    if m < 1:
        raise PartitionError("alphabet cap leaves no branches")
    if bmap.alphabet_unbounded and alphabet_cap is None:
        raise PartitionError("unbounded alphabet: cylinder enumeration needs alphabet_cap")
    if order < 1:
        raise PartitionError("cylinder order must be >= 1")
    if m**order > WORD_CAP:
        raise PartitionError(
            f"{m}^{order} = {m**order} cylinder words exceed the enumeration cap "
            f"{WORD_CAP}; lower the order or alphabet"
        )
    return m


def _prepend(bmap: BranchMap, tables: tuple, lead: int) -> tuple:
    """Composition tables of the words (lead, w) for every tabulated word w.

    Gauss words carry (p', p, q', q): inverse branches are Moebius maps
    y -> 1/(d + y), a word w composes to F_w(y) = (p' y + p)/(q' y + q) with
    |det| = 1, and prepending digit d maps (p', p, q', q) to
    (q', q, p' + d q', p + d q).  Affine words carry (offset, scale) with
    F_w(y) = offset + scale y.
    """
    if bmap.kind == "gauss-analytic":
        pp, p, qp, q = tables
        d = float(bmap.digits[lead])
        return qp, q, pp + d * qp, p + d * q
    off, sc = tables
    ln = bmap.partition.lengths[lead]
    return bmap.partition.left[lead] + ln * off, ln * sc


def _word_tables(bmap: BranchMap, m: int, depth: int) -> tuple:
    """Composition tables of all depth-`depth` words over the first m branches, lex order."""
    if bmap.kind == "gauss-analytic":
        tables = (np.ones(1), np.zeros(1), np.zeros(1), np.ones(1))
    else:
        tables = (np.zeros(1), np.ones(1))
    for _ in range(depth):
        chunks = [_prepend(bmap, tables, lead) for lead in range(m)]
        tables = tuple(np.concatenate(col) for col in zip(*chunks))
    return tables


def _derivative_range(bmap: BranchMap, tables: tuple, y: float) -> np.ndarray:
    """|(T^n)'| of each tabulated word at the hull end y.

    |F_w'(y)| = (q' y + q)^-2 is monotone in y, so the two ends of the hull
    give the range of |(T^n)'| = 1/|F_w'| over cylinder ∩ hull: the least
    value at the left end, the greatest at the right.  Affine words have
    |(T^n)'| = 1/scale at every y.
    """
    if bmap.kind == "gauss-analytic":
        _, _, qp, q = tables
        return (qp * y + q) ** 2
    return 1.0 / tables[1]


def _cylinder_rows(bmap: BranchMap, order: int, alphabet_cap: int | None, side: str) -> list[np.ndarray]:
    """One side's D_w ("sup" or "inf") over the depth-`order` cylinders w, one array per leading symbol.

    D_w is the derivative range of the n-th iterate over cylinder w ∩
    invariant hull, at that side's hull end.  The depth n-1 suffix tables
    are dropped on return, and the rows hold 8 bytes per word; one array per
    side would make each sample's `D_w ** -t` a second copy of them.
    """
    m = _effective_alphabet(bmap, alphabet_cap, order)
    suffixes = _word_tables(bmap, m, order - 1)
    y = bmap.invariant_hull()[side == "sup"]
    return [_derivative_range(bmap, _prepend(bmap, suffixes, lead), y) for lead in range(m)]


def _rows_total(rows: Sequence[np.ndarray], e: float) -> float:
    """The sum of row ** e over the rows (sum_w D_w^-t at e = -t): each row's sum rounded once, then added exactly."""
    return compensated_sum([compensated_sum(row ** e) for row in rows])


def cylinder_derivative_sums(bmap: BranchMap, order: int, exponents: Sequence[float],
                             alphabet_cap: int | None = None, threads: int = 1) -> list[tuple[float, float]]:
    """For each t, return (sum_w sup_w^-t, sum_w inf_w^-t) over depth-n cylinders.

    sup/inf are the derivative range of the n-th iterate over cylinder ∩
    invariant hull.  Each side's rows are built once for every t, and the
    sup side's go before the inf side's are built.  The sums run serially;
    `threads` is accepted for existing callers and has no effect.
    """
    def totals(side: str) -> list[float]:
        rows = _cylinder_rows(bmap, order, alphabet_cap, side)
        return [_rows_total(rows, -float(t)) for t in exponents]

    return list(zip(totals("sup"), totals("inf")))

