"""Box-counting on point clouds and gap exponents of interval partitions.

Covering counts of line and sphere clouds are the number of occupied cells
of the delta-mesh, which stays within a constant factor (2^d, after a sqrt(d)
change of scale) of the minimal covering count and therefore leaves log-log
slopes unchanged (Falconer, Fractal Geometry, sec. 3.1).  Dimension estimates report the
min/max of secant slopes over a trailing window of scales, matching the
liminf/limsup nature of lower and upper box dimension.  Gap exponents track
the ratios log n / (-log length_(n)) over sorted lengths; their window
extremes plus a drift-removing extrapolation bound the box dimension of the
endpoint set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interval_partition import IntervalPartition, PartitionError
from .numerics import _U, _libm

__all__ = [
    "PointCloud",
    "DimensionEstimate",
    "GapExponentEstimate",
    "covering_counts",
    "estimate_box_dimension",
    "gap_exponent_bounds",
]

_SATURATION_FRACTION = 0.9
# order-2 drift fits with worse residuals than this describe ratio sequences
# with no limit; the extrapolated value is then discarded
_FIT_RESIDUAL_CAP = 0.02


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An immutable finite point set, either on the line or on a unit sphere.

    Line clouds are finite, sorted and hold each distinct float once; sphere
    clouds hold unit vectors (rows) in the given order, duplicates kept, since
    occupied cells ignore both.  `label` records how the cloud was built.
    """

    points: np.ndarray
    kind: str
    label: str = ""

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if self.kind == "line":
            if pts.ndim != 1 or pts.size == 0:
                raise ValueError("line cloud needs a non-empty 1-d array")
            # an ascending input (such as partition endpoints) skips the sort; NaN fails the test
            pts = pts if np.all(pts[1:] >= pts[:-1]) else np.sort(pts)
            # once sorted, any NaN or infinity sits at an end
            if not (math.isfinite(pts[0]) and math.isfinite(pts[-1])):
                raise ValueError("line cloud points must be finite")
            # a point goes only when it equals its predecessor: one byte per point, no gap array
            keep = np.empty(pts.size, dtype=bool)
            keep[0] = True
            np.not_equal(pts[1:], pts[:-1], out=keep[1:])
            pts = pts[keep]
        elif self.kind == "sphere":
            if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] < 2:
                raise ValueError("sphere cloud needs a non-empty (N, d) array with d >= 2")
            norms = np.sqrt(sum(np.square(c) for c in pts.T))  # squares summed column by column
            if not np.all(np.abs(norms - 1.0) < 1e-9):
                raise ValueError("sphere cloud points must be unit vectors")
        else:
            raise ValueError(f"unknown cloud kind {self.kind!r}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return int(self.points.shape[0])

    @property
    def dimension_cap(self) -> float:
        """Ambient upper bound for any box-dimension estimate."""
        return 1.0 if self.kind == "line" else float(self.points.shape[1] - 1)


@dataclass(frozen=True)
class DimensionEstimate:
    """Windowed secant slopes of log N against log(1/delta).

    lower_dim/upper_dim are the min/max slope over the trailing window of
    non-saturated levels, clamped to [0, ambient].  `deltas` and `counts`
    hold every (delta, N) sample; `used` marks the secants in the window.
    """

    lower_dim: float
    upper_dim: float
    deltas: np.ndarray
    counts: np.ndarray
    slopes: np.ndarray
    used: np.ndarray
    saturated: np.ndarray
    note: str = ""

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower_dim + self.upper_dim)


@dataclass(frozen=True)
class GapExponentEstimate:
    """Bounds on the gap exponents of a sorted-length partition.

    window_min/window_max are exact extremes of log n / (-log length_(n))
    over [n_window[0], n_window[1]], with libm's log, as are the two ratios
    edge_drift reads.  fitted_limit removes the finite-size
    drift by extrapolating secant slopes (None when the residual shows the
    sequence has no limit).  L_lower/L_upper combine both: the window
    extremes widened by a reliable extrapolation.
    """

    L_lower: float
    L_upper: float
    window_min: float
    window_max: float
    n_window: tuple[int, int]
    fitted_limit: float | None
    fit_exponent: float | None
    fit_residual: float | None
    ratios: np.ndarray

    @property
    def spread(self) -> float:
        return self.window_max - self.window_min

    @property
    def edge_drift(self) -> float:
        """Ratio change over the last decade of the window.

        A still-drifting ratio sequence means the window extremes lag the
        true liminf/limsup; the drift is the honest allowance to add when
        comparing against asymptotic quantities.
        """
        n_lo, n_hi = self.n_window
        decade = max(int(0.1 * n_hi), n_lo) - n_lo
        return float(abs(self.ratios[-1] - self.ratios[decade]))


def covering_counts(cloud: PointCloud, deltas) -> np.ndarray:
    """Numbers N_delta of occupied cells of the delta-mesh (side-delta cubes), one per level.

    `deltas` is a doubling ladder from coarse to fine: each delta is exactly twice the next one,
    and a single delta is a ladder of one.  A point x lies in the cell floor(x / delta).  The
    keys are computed once, at the finest delta: floats for line clouds, and for sphere clouds
    in R^d one field of 63 // d bits per axis, offset into range and packed into an int64.  Only
    the distinct keys are kept, and each coarser level halves them.  Line keys become
    floor(k / 2), which keeps them sorted, so a level's count is its number of runs.  Sphere
    keys halve every field at once, ((k >> 1) & M) + C: M drops the bit shifted in from the
    next field and C restores the field's offset, with no carry across fields; the shrinking set
    is then sorted again.  So each cloud is divided and sorted once, and the counts depend only
    on the point set.

    The counts equal those of dividing by each delta: fl(x / 2 delta) = fl(x / delta) / 2, and
    floor(floor(y) / 2) = floor(y / 2).  The one exception is a negative coordinate x so small
    that x / delta underflows to -0.0 at a coarser level but not at the finest: direct division
    puts it in cell 0 there, and the ladder in its correct cell -1.  On the line, |x| / delta
    must also stay below 2^1024 at the finest level, where the keys would overflow.
    """
    pts = cloud.points
    deltas = np.asarray(deltas, dtype=float)
    if np.isinf(deltas).any():  # inf == 2 inf would pass the ladder test
        raise ValueError("deltas must be finite")
    if deltas.ndim != 1 or deltas.size == 0 or not np.all(deltas[:-1] == 2.0 * deltas[1:]):
        raise ValueError("deltas must run from coarse to fine, each exactly twice the next")
    finest = deltas[-1]
    if cloud.kind == "line":
        if not finest > 0:
            raise ValueError("delta must be positive")
        keys = pts / finest
        np.floor(keys, out=keys)

        def halve(keys):
            keys /= 2.0
            return np.floor(keys, out=keys)
    else:
        if not (0 < finest and deltas[0] < math.pi):
            raise ValueError("delta must lie in (0, pi)")
        dim = pts.shape[1]
        bits = 63 // dim
        # at delta >= 2^(2 - bits), unit coordinates give indices within 2^(bits - 2) + 1 of 0;
        # offset by 2^(bits - 1), each fits its field, so packing is injective
        floor = 2.0 ** (2 - bits)
        if finest < floor:
            raise ValueError(f"delta below supported resolution {floor} in R^{dim}")
        keys = np.zeros(len(pts), dtype=np.int64)
        for axis in range(dim):  # one axis at a time, so no index copy of the whole cloud is held
            keys <<= bits
            keys |= np.floor(pts[:, axis] / finest).astype(np.int64) + (1 << (bits - 1))
        keys.sort()
        # a field f holds index i + 2^(bits - 1); floor(i / 2) + 2^(bits - 1) is (f >> 1) + 2^(bits - 2)
        fields = sum(1 << (bits * axis) for axis in range(dim))
        mask = np.int64(((1 << (bits - 1)) - 1) * fields)
        offset = np.int64((1 << (bits - 2)) * fields)

        def halve(keys):
            keys >>= 1
            keys &= mask
            keys += offset
            keys.sort()
            return keys
    counts = np.empty(deltas.size, dtype=np.int64)
    for level in range(deltas.size - 1, -1, -1):
        heads = np.empty(keys.size, dtype=bool)
        heads[0] = True
        np.not_equal(keys[1:], keys[:-1], out=heads[1:])
        keys = keys[heads]
        counts[level] = keys.size
        keys = halve(keys)
    return counts


def estimate_box_dimension(cloud: PointCloud, deltas: np.ndarray) -> DimensionEstimate:
    """Windowed-secant box-dimension estimate of a finite sample.

    The deltas must form a doubling ladder (such as 2^-j over consecutive j); `covering_counts`
    counts every level from the cells of the finest, with the counts of dividing by each delta
    (save its -0.0 caveat).  Levels whose count exceeds 90% of the sample size are saturated by
    finiteness and excluded.  Secant slopes of log N over log(1/delta) are taken between
    consecutive usable levels; lower_dim/upper_dim are their min/max over the trailing half of
    the window, clamped to [0, ambient].
    """
    deltas = np.unique(np.asarray(deltas, dtype=float))[::-1]
    if deltas.size < 8:
        raise ValueError("need a delta grid with at least 8 levels")
    if not np.all(deltas > 0):
        raise ValueError("deltas must be positive")
    counts = covering_counts(cloud, deltas)
    saturated = counts > _SATURATION_FRACTION * cloud.count
    usable = np.flatnonzero(~saturated)
    if usable.size < 2:
        raise ValueError(
            "every level is saturated by the finite sample; enlarge the cloud or coarsen the grid"
        )
    x = np.log(1.0 / deltas[usable])
    y = np.log(counts[usable].astype(float))
    slopes = np.diff(y) / np.diff(x)
    window = slopes[slopes.size // 2 :] if slopes.size >= 6 else slopes
    used = np.zeros(slopes.size, dtype=bool)
    used[slopes.size - window.size :] = True
    lo = float(min(max(window.min(), 0.0), cloud.dimension_cap))
    hi = float(min(max(window.max(), 0.0), cloud.dimension_cap))
    note = ""
    if saturated.any():
        note = f"{int(saturated.sum())} saturated level(s) excluded"
    return DimensionEstimate(lo, hi, deltas, counts, slopes, used, saturated, note)


def gap_exponent_bounds(partition: IntervalPartition, n_min: int = 16) -> GapExponentEstimate:
    """Window extremes and drift-corrected bounds for the sorted gap ratios.

    For lengths sorted decreasingly, r_n = log n / (-log length_(n)); the
    liminf/limsup of r_n bound the box dimension of the endpoint set from
    below and above.  Finite windows of slowly converging sequences sit far
    from their limit, so the estimate also fits secant slopes of
    g(x) = -log length_(e^x) - x to gamma + a/x + b/x^2 and extrapolates
    1/(1 + max(gamma, 0)); summability of the lengths forces gamma >= 0,
    which justifies the clamp.  The fit is discarded when its residual shows
    the ratio sequence does not converge (oscillating local decay).
    """
    lengths = np.sort(partition.lengths, kind="stable")[::-1]
    n_total = lengths.size
    if n_total < max(n_min, 16):
        raise PartitionError(f"gap exponents need at least {max(n_min, 16)} intervals, got {n_total}")
    n_min = max(int(n_min), 2)
    neg_log = -np.log(lengths)
    ratios = np.arange(n_min, n_total + 1, dtype=float)  # log n / neg_log, in place
    np.log(ratios, out=ratios)
    ratios /= neg_log[n_min - 1 :]
    # np.log may run a SIMD routine whose last bit depends on the CPU, a few ulps from libm's log: so these
    # ratios only locate the candidates, those within 64u of an extreme (which hold libm's extremes) and
    # the two edge_drift reads, and each candidate is taken again with math.log
    lo, hi = ratios.min(), ratios.max()
    candidates = np.flatnonzero((ratios <= lo * (1.0 + 64.0 * _U)) | (ratios >= hi * (1.0 - 64.0 * _U)))
    for i in {*candidates.tolist(), ratios.size - 1, max(int(0.1 * n_total), n_min) - n_min}:
        ratios[i] = math.log(n_min + i) / -math.log(lengths[n_min - 1 + i])
    window_min = float(ratios[candidates].min())
    window_max = float(ratios[candidates].max())

    fitted = None
    gamma = None
    residual = None
    grid = np.unique(np.geomspace(n_min, n_total, 48).astype(np.int64))
    if grid.size >= 8:
        x = _libm(math.log, grid.astype(float))
        g = -_libm(math.log, lengths[grid - 1]) - x
        sec = np.diff(g) / np.diff(x)
        xm = 0.5 * (x[1:] + x[:-1])
        design = np.column_stack([np.ones_like(xm), 1.0 / xm, 1.0 / xm**2])
        coef, *_ = np.linalg.lstsq(design, sec, rcond=None)
        gamma = float(coef[0])
        residual = float(np.sqrt(np.mean((design @ coef - sec) ** 2)))
        if residual <= _FIT_RESIDUAL_CAP:
            fitted = 1.0 / (1.0 + max(gamma, 0.0))

    lower = window_min if fitted is None else min(window_min, fitted)
    upper = window_max if fitted is None else max(window_max, fitted)
    return GapExponentEstimate(
        lower, upper, window_min, window_max, (n_min, n_total), fitted, gamma, residual, ratios
    )
