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

Orbit counting enumerates the lattice points of the ellipsoid |sum N_i alpha_i|
<= 2 sinh(t/2) (the preimage of the distance ball) exactly, not a bounding cube.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hyperbolic import _ENUMERATION_CAP, ParabolicGroupSpec, _gram_factor, _lattice_grid, _orbit_distance
from .numerics import _LIBM_ERR, _libm, _up, compensated_sum, hurwitz_zeta
from .pressure import CriticalExponentEstimate, DIVERGES_AT_CRITICAL, _bisect

__all__ = [
    "CONVERGENT_WITH_BOUND",
    "DIVERGENT_MINORANT",
    "PoincareSample",
    "CountingFunction",
    "classify_tail",
    "poincare_partial",
    "critical_exponent",
    "counting_exponent",
]

CONVERGENT_WITH_BOUND = "convergent-with-bound"
DIVERGENT_MINORANT = "divergent-minorant"
_ROWS_PER_BLOCK = 1 << 14  # rows of one lattice count held at a time


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


def classify_tail(group: ParabolicGroupSpec, s: float, radius: int) -> tuple[str, float | None, str]:
    """Certified convergence class of the tail beyond |N|_inf = radius.

    Returns (classification, tail upper bound or None, evidence).  The
    comparison templates are power sums: the majorant tail for s > k/2 is
    2k 3^{k-1} sigma_min^{-2s} zeta(2s-k+1, radius+1), with the upper end of
    the outward-rounded `numerics.hurwitz_zeta` enclosure and every product
    rounded up, so the bound is never below the exact majorant for the given
    sigma_min; for s <= k/2 the minorant shells sum to a divergent p-series.
    """
    if not s >= 0:
        raise ValueError("s must be nonnegative")
    smin, smax, k = group.sigma_min, group.sigma_max, group.rank
    if 2.0 * s > k:
        # 2k 3^(k-1) is an exact integer, and 2s - (k-1) has no rounding error for 2s < 2^53
        power = smin ** (-2.0 * s) if -2.0 * s * math.log2(smin) < 1023.0 else math.inf  # or it overflows
        constant = _up(2 * k * 3 ** (k - 1) * _up(power, _LIBM_ERR))
        bound = _up(constant * hurwitz_zeta(2.0 * s - (k - 1), radius + 1)[1])
        evidence = (f"shells m > {radius}: count <= 2k 3^(k-1) m^(k-1), term <= (sigma_min m)^(-2s), "
                    f"sigma_min={smin:.6g}; Hurwitz zeta tail = {bound:.6g}")
        return CONVERGENT_WITH_BOUND, bound, evidence
    evidence = (f"shells m: count >= 2k m^(k-1), term >= (1 + sigma_max sqrt(k) m)^(-2s) with "
                f"sigma_max={smax:.6g}; exponent 2s-(k-1) = {2*s - k + 1:.6g} <= 1 gives a divergent p-series")
    return DIVERGENT_MINORANT, None, evidence


def poincare_partial(group: ParabolicGroupSpec, s: float, radius: int) -> PoincareSample:
    """Partial sum of the Poincare series over |N|_inf <= radius.

    The identity contributes 1; the remaining terms are
    exp(-s 2 arcsinh(|sum N_i alpha_i|/2)).  Summation is deterministic
    (exactly rounded) and the tail is classified by certified shell bounds.
    """
    if not s >= 0:
        raise ValueError("s must be nonnegative")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    disp = _lattice_grid(group.rank, radius)
    disp = disp[np.any(disp != 0, axis=1)].astype(float) @ group.alphas  # rebinding frees the grid
    partial = 1.0 + compensated_sum(_libm(math.exp, -s * _orbit_distance(disp)))
    classification, bound, evidence = classify_tail(group, s, radius)
    return PoincareSample(float(s), partial, int(radius), classification, bound, evidence)


def critical_exponent(group: ParabolicGroupSpec, tol: float = 0.01) -> CriticalExponentEstimate:
    """Bracket of the convergence abscissa by bisection on the tail class.

    Certified shell bounds decide convergence at every s, so the bracket
    closes to width <= tol around the abscissa; the series itself diverges
    at the abscissa (the minorant is a harmonic-type series there).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    # from hi = the least power of two above k/2, where the tail converges
    lo, hi = _bisect(lambda s: (classify_tail(group, s, 1)[0] == CONVERGENT_WITH_BOUND, math.nan),
                     0.0, float(1 << (group.rank.bit_length() - 1)), tol, {})
    evidence = (f"bisection on certified shell classification; rank={group.rank}, "
                f"sigma_min={group.sigma_min:.6g}, sigma_max={group.sigma_max:.6g}")
    return CriticalExponentEstimate(lo, hi, DIVERGES_AT_CRITICAL, evidence, "bracket")


def _spread(first: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max(size, 0) as integers, and first[r], first[r] + 1, ... for every row r in turn."""
    size = np.maximum(size, 0.0).astype(np.int64)
    value = np.repeat(first - (np.cumsum(size) - size), size)
    value += np.arange(value.size)
    return size, value


def _interval(centre: np.ndarray, room: np.ndarray, diagonal: float) -> tuple[np.ndarray, np.ndarray]:
    """ceil(centre - h), floor(centre + h) for h = sqrt(max(room, 0)) / diagonal, reusing one buffer."""
    half = np.maximum(room, 0.0)
    np.divide(np.sqrt(half, out=half), diagonal, out=half)
    return np.ceil(centre - half), np.floor(np.add(centre, half, out=half), out=half)


def _ellipsoid_counts(group: ParabolicGroupSpec, lengths) -> list[int]:
    """#{N in Z^k : |sum N_i alpha_i| <= length} for each length, exact for the float generators and lengths.

    Fincke-Pohst (Math. Comp. 44 (1985)) over the float Cholesky factor U of the Gram matrix, Q(N) =
    |sum N_i alpha_i|^2 ~ |UN|^2 = sum_i y_i^2, y_i = sum_(j >= i) U_ij N_j: coordinates k..2 expand row
    by row, coordinate 1 is an interval per row; N_k >= 0 only, rows with N_k > 0 count twice (-N).
    Rows span the squared radius length^2 (1 + eta), integers inside length^2 (1 - eta) are counted,
    and those in between decided in exact rationals.  To first order in u, with kappa = tr fl(G) /
    sigma_min^2 and e of `hyperbolic._gram_factor`: |UN|^2 - Q(N) is within e |N|^2 <= (d + k + 1) u
    kappa Q(N); a y_i errs by gamma_k sum_j |U_ij||N_j|, whose squares sum to <= ||U||_F^2 |N|^2 <= kappa
    Q(N), so a partial sum of y_i^2 by 3k u kappa Q(N); an interval end at radius r by (2k + 8) u kappa
    r^2 in squares, and r^2 by 3u r^2.  eta = 16 e / sigma_min^2 exceeds the sum, (d + 6k + 12) u kappa.
    The factor, eta and the rational generators are built once for all lengths; the floats are in
    `_gram_factor`'s units (generators and lengths scaled by 2^-j), the rationals are not scaled.
    """
    upper, slack, j = _gram_factor(group.alphas)
    margin = 16.0 * slack / math.ldexp(group.sigma_min, -j) ** 2
    generators = [[Fraction(x) for x in column] for column in group.alphas.T.tolist()]
    return [_ellipsoid_count(upper, margin, generators, length, math.ldexp(length, -j)) for length in lengths]


def _ellipsoid_count(upper: np.ndarray, margin: float, generators: list, length: float, scaled: float) -> int:
    """One count of `_ellipsoid_counts`: `scaled` is the length in the units of the factor `upper`.

    From rank 2 on, the rows are walked in blocks of consecutive N_k >= 0 of about _ROWS_PER_BLOCK rows
    each (a row count per N_k from the widths of the coordinates k-1..2), so memory is bounded by a
    block, not by the whole enumeration.
    """
    rank = len(upper)
    wide, narrow = scaled * scaled * (1.0 + margin), scaled * scaled * (1.0 - margin)
    limit = Fraction(length) ** 2
    if rank == 1:
        return _count_rows(upper, wide, narrow, generators, limit, None)
    top = math.floor(math.sqrt(wide) / upper[-1, -1])
    per_value = math.prod(2.0 * math.sqrt(wide) / upper[i, i] + 1.0 for i in range(1, rank - 1))
    step = max(1, int(_ROWS_PER_BLOCK / per_value))
    return sum(_count_rows(upper, wide, narrow, generators, limit, np.arange(start, min(start + step, top + 1), dtype=float))
               for start in range(0, top + 1, step))


def _count_rows(upper: np.ndarray, wide: float, narrow: float, generators: list, limit: Fraction, tops) -> int:
    """The count of the lattice points whose N_k lies in `tops` (ascending, >= 0; N and -N together),
    or of all lattice points at rank 1 (tops None)."""
    rank = len(upper)
    # columns N_(i+1..k) of the rows in exact floats, N_k ascending, and |y_(i+1..k)|^2
    columns, partial = ([], np.zeros(1)) if tops is None else ([tops], (upper[-1, -1] * tops) ** 2)
    for i in range(rank - 1 - len(columns), -1, -1):
        shift = sum((c * u for c, u in zip(columns, upper[i, i + 1:])), np.zeros(len(partial)))
        centre = shift / -upper[i, i]
        first, last = _interval(centre, wide - partial, upper[i, i])
        if i == 0:
            break
        size, value = _spread(first, last - first + 1.0)
        columns = [value] + [np.repeat(column, size) for column in columns]
        partial = np.repeat(partial, size) + (upper[i, i] * value + np.repeat(shift, size)) ** 2
    room = narrow - partial
    inner_first, inner_last = _interval(centre, room, upper[0, 0])
    inner_last = np.where(room > 0.0, inner_last, inner_first - 1.0)
    single = np.searchsorted(columns[-1], 0.0, side="right") if columns else 1  # rows with N_k = 0
    count = 2 * int(inner_last.sum() - inner_first.sum() + len(partial))
    count -= int(inner_last[:single].sum() - inner_first[:single].sum() + single)
    for start, stop in ((first, inner_first), (inner_last + 1.0, last + 1.0)):
        edge = np.flatnonzero(stop > start)
        if not edge.size:
            continue
        size, value = _spread(start[edge], stop[edge] - start[edge])
        row = np.repeat(edge, size)
        points = np.column_stack([value] + [column[row] for column in columns]).astype(np.int64)
        for r, point in zip(row.tolist(), points.tolist()):
            if sum(sum(n * a for n, a in zip(point, g)) ** 2 for g in generators) <= limit:
                count += 1 if r < single else 2
    return count


def counting_exponent(group: ParabolicGroupSpec, t_max: float = 25.0, levels: int = 50) -> CountingFunction:
    """Orbit counts along t_j = j t_max / levels and their log-slope.

    Counts are the exact lattice points of the ellipsoid |sum N_i alpha_i| <= 2 sinh(t/2)
    (`_ellipsoid_counts`); the final slope regresses log(count) on t over the last third of levels,
    skipping degenerate count-1 levels.
    """
    if levels < 6:
        raise ValueError("need at least 6 levels")
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    # rows walked: about (2 reach)^(k-1) / 2, N_k >= 0 (reach at k = 1), reach = 2 sinh(t/2) / sigma_min
    achievable = 2.0 * math.asinh(0.25 * group.sigma_min * (2 * _ENUMERATION_CAP) ** (1.0 / max(group.rank - 1, 1)))
    if t_max > achievable:
        raise ValueError(f"enumeration cap exceeded; the largest achievable t_max is {achievable:.2f}")
    thresholds = t_max * np.arange(1, levels + 1) / levels
    counts = np.array(_ellipsoid_counts(group, [2.0 * math.sinh(0.5 * t) for t in thresholds]), dtype=np.int64)
    if counts[-1] < 1000:
        raise ValueError("t_max reaches fewer than 1000 lattice points; increase it")
    slopes = np.where(counts > 1, np.log(np.maximum(counts, 1)) / thresholds, 0.0)
    tail = np.flatnonzero(counts > 1)
    tail = tail[tail >= levels - max(levels // 3, 2)]
    coeffs = np.polyfit(thresholds[tail], np.log(counts[tail].astype(float)), 1)
    return CountingFunction(thresholds, counts, slopes, float(coeffs[0]))
