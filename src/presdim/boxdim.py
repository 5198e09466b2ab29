"""Box-counting on point clouds and gap exponents of interval partitions.

Covering counts on the line are exact minimal interval covers (greedy sweep).
On spheres, minimal covers are replaced by the number of occupied cells of
the delta-mesh, which stays within a constant factor (2^d, after a sqrt(d)
change of scale) of the covering count and therefore leaves log-log slopes
unchanged (Falconer, Fractal Geometry, sec. 3.1).  Dimension estimates report the
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

from .interval_partition import IntervalPartition, PartitionError, _dedup_sorted

__all__ = [
    "PointCloud",
    "CoveringCount",
    "DimensionEstimate",
    "GapExponentEstimate",
    "covering_count_line",
    "covering_count_sphere",
    "estimate_box_dimension",
    "gap_exponent_bounds",
]

# cell indices for unit-sphere coordinates must fit the 21-bit packed keys
_MIN_SPHERE_DELTA = 2.0 ** -19
_SATURATION_FRACTION = 0.9
# order-2 drift fits with worse residuals than this describe ratio sequences
# with no limit; the extrapolated value is then discarded
_FIT_RESIDUAL_CAP = 0.02


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An immutable finite point set, either on the line or on a unit sphere.

    Line clouds are deduplicated at 1e-15; sphere clouds hold unit vectors
    (rows) deduplicated exactly.  `label` records how the cloud was built.
    """

    points: np.ndarray
    kind: str
    label: str = ""

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if self.kind == "line":
            if pts.ndim != 1 or pts.size == 0:
                raise ValueError("line cloud needs a non-empty 1-d array")
            pts = _dedup_sorted(np.sort(pts))
        elif self.kind == "sphere":
            if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] < 2:
                raise ValueError("sphere cloud needs a non-empty (N, d) array with d >= 2")
            norms = np.linalg.norm(pts, axis=1)
            if not np.all(np.abs(norms - 1.0) < 1e-9):
                raise ValueError("sphere cloud points must be unit vectors")
            pts = np.unique(pts, axis=0)
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
class CoveringCount:
    delta: float
    count: int
    algorithm: str


@dataclass(frozen=True)
class DimensionEstimate:
    """Windowed secant slopes of log N against log(1/delta).

    lower_dim/upper_dim are the min/max slope over the trailing window of
    non-saturated levels, clamped to [0, ambient].  `pairs` holds every
    (log 1/delta, log N) sample; `used` marks the secants in the window.
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

    @property
    def pairs(self) -> np.ndarray:
        return np.column_stack([np.log(1.0 / self.deltas), np.log(self.counts.astype(float))])


@dataclass(frozen=True)
class GapExponentEstimate:
    """Bounds on the gap exponents of a sorted-length partition.

    window_min/window_max are exact extremes of log n / (-log length_(n))
    over [n_window[0], n_window[1]].  fitted_limit removes the finite-size
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
        later = self.ratios[decade:]
        if later.size == 0:
            return 0.0
        return float(abs(self.ratios[-1] - self.ratios[decade]))


def covering_count_line(cloud: PointCloud, delta: float) -> CoveringCount:
    """Minimal number of length-delta intervals covering a line cloud.

    The greedy sweep (new interval at the leftmost uncovered point) is
    exactly minimal in one dimension.
    """
    if cloud.kind != "line":
        raise ValueError("covering_count_line needs a line cloud")
    if delta <= 0:
        raise ValueError("delta must be positive")
    pts = cloud.points
    count = 0
    i = 0
    n = pts.size
    while i < n:
        count += 1
        i = int(np.searchsorted(pts, pts[i] + delta, side="right"))
    return CoveringCount(float(delta), count, "sorted-sweep")


def covering_count_sphere(cloud: PointCloud, delta: float) -> CoveringCount:
    """Number N_delta of occupied cells of the delta-mesh (side-delta cubes).

    Cell indices floor(x / delta) are packed into one 21-bit field per axis
    and counted with a single `np.unique`, so the result depends only on the
    point set.  Occupied mesh cells give one of the equivalent definitions of
    box dimension: each cell has diameter delta*sqrt(d), and a set of
    diameter delta meets at most 2^d cells, so N_delta shares its log-log
    slopes with the minimal covering count.
    """
    if cloud.kind != "sphere":
        raise ValueError("covering_count_sphere needs a sphere cloud")
    if not 0 < delta < math.pi:
        raise ValueError("delta must lie in (0, pi)")
    if delta < _MIN_SPHERE_DELTA:
        raise ValueError(f"delta below supported resolution {_MIN_SPHERE_DELTA}")
    pts = cloud.points
    dim = pts.shape[1]
    if dim > 3:
        raise ValueError("packed cell keys support sphere clouds in R^2 and R^3 only")
    bits = 21
    # offset indices in [-2^19, 2^19] to non-negative fields, so packing is injective
    idx = np.floor(pts / delta).astype(np.int64) + (1 << (bits - 1))
    keys = idx[:, 0]
    for axis in range(1, dim):
        keys = (keys << bits) | idx[:, axis]
    return CoveringCount(float(delta), int(np.unique(keys).size), "grid-cells")


def _count(cloud: PointCloud, delta: float) -> int:
    fn = covering_count_line if cloud.kind == "line" else covering_count_sphere
    return fn(cloud, delta).count


def estimate_box_dimension(cloud: PointCloud, deltas: np.ndarray) -> DimensionEstimate:
    """Windowed-secant box-dimension estimate of a finite sample.

    Levels whose count exceeds 90% of the sample size are saturated by
    finiteness and excluded.  Secant slopes of log N over log(1/delta) are
    taken between consecutive usable levels; lower_dim/upper_dim are their
    min/max over the trailing half of the window, clamped to [0, ambient].
    """
    deltas = np.sort(np.unique(np.asarray(deltas, dtype=float)))[::-1]
    if deltas.size < 8:
        raise ValueError("need a delta grid with at least 8 levels")
    if np.any(deltas <= 0):
        raise ValueError("deltas must be positive")
    counts = np.array([_count(cloud, d) for d in deltas], dtype=np.int64)
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
    lengths = partition.sorted_lengths
    n_total = lengths.size
    if n_total < max(n_min, 16):
        raise PartitionError(f"gap exponents need at least {max(n_min, 16)} intervals, got {n_total}")
    n_min = max(int(n_min), 2)
    neg_log = -np.log(lengths)
    idx = np.arange(n_min, n_total + 1, dtype=float)
    ratios = np.log(idx) / neg_log[n_min - 1 :]
    window_min = float(ratios.min())
    window_max = float(ratios.max())

    fitted = None
    gamma = None
    residual = None
    grid = np.unique(np.geomspace(n_min, n_total, 48).astype(np.int64))
    if grid.size >= 8:
        x = np.log(grid.astype(float))
        g = neg_log[grid - 1] - x
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
