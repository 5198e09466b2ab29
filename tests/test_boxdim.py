"""Covering counts, windowed dimension estimates, and gap exponent bounds."""

import math

import numpy as np
import pytest

from presdim.boxdim import (
    PointCloud,
    covering_counts,
    estimate_box_dimension,
    gap_exponent_bounds,
)
from presdim.interval_partition import IntervalPartition, PartitionError, build_partition


# ---------------------------------------------------------------------------
# point clouds


def test_line_cloud_sorts_and_dedups():
    cloud = PointCloud(np.array([0.5, 0.1, 0.5, 0.9, 0.1]), "line")
    np.testing.assert_allclose(cloud.points, [0.1, 0.5, 0.9])
    assert cloud.count == 3
    assert cloud.dimension_cap == 1.0
    # an ascending input skips the sort; the cloud still holds its own deduplicated copy
    ascending = np.array([0.1, 0.1, 0.5, 0.9])
    assert PointCloud(ascending, "line").points.tolist() == [0.1, 0.5, 0.9]
    assert ascending.flags.writeable


@pytest.mark.parametrize("columns", range(2, 8))
def test_sphere_check_accepts_exactly_what_the_row_norm_accepts(columns):
    # rows a few ulps either side of 1 +- 1e-9, and non-finite rows; below 8 columns numpy's row norm sums
    # column by column too
    rng = np.random.default_rng(40 + columns)
    unit = rng.normal(size=(400, columns))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    edge = np.array([1.0 + 1e-9, 1.0 - 1e-9])[rng.integers(0, 2, 400)]
    rows = unit * (edge * (1.0 + rng.integers(-40, 41, 400) * 2.0 ** -52))[:, None]
    rows = np.vstack([rows, unit[:4] * [[np.nan], [np.inf], [-np.inf], [1e200]]])
    with np.errstate(over="ignore"):  # the squares of the last row overflow
        accepted = np.abs(np.linalg.norm(rows, axis=1) - 1.0) < 1e-9
        assert 50 < accepted[:-4].sum() < 350 and not accepted[-4:].any()
        for row, ok in zip(rows, accepted):
            if ok:
                PointCloud(row[None, :], "sphere")
            else:
                with pytest.raises(ValueError, match="unit vectors"):
                    PointCloud(row[None, :], "sphere")


def test_sphere_cloud_validation():
    good = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    cloud = PointCloud(good, "sphere")
    # rows keep their given order; the duplicate row is kept
    assert cloud.count == 3
    np.testing.assert_array_equal(cloud.points, good)
    assert cloud.dimension_cap == 1.0
    with pytest.raises(ValueError, match="unit vectors"):
        PointCloud(np.array([[0.5, 0.0]]), "sphere")
    wide = np.random.default_rng(9).normal(size=(50, 9))  # 9 columns, far from the 1 +- 1e-9 edge
    wide /= np.linalg.norm(wide, axis=1, keepdims=True)
    assert PointCloud(wide, "sphere").count == 50
    with pytest.raises(ValueError, match="unit vectors"):
        PointCloud(wide * (1.0 + 1e-7), "sphere")
    with pytest.raises(ValueError, match="non-empty 1-d array"):
        PointCloud(np.eye(2), "line")
    with pytest.raises(ValueError, match=r"non-empty \(N, d\) array with d >= 2"):
        PointCloud(np.array([[1.0], [-1.0]]), "sphere")
    with pytest.raises(ValueError, match="unknown cloud kind"):
        PointCloud(np.array([0.1]), "plane")


def test_line_cloud_rejects_non_finite_points():
    # sorted, NaN lands last, where the repeat test (NaN != NaN) would keep it
    for bad in ([1.0, np.nan, 2.0], [np.nan], [1.0, np.inf], [-np.inf, 0.5]):
        with pytest.raises(ValueError, match="line cloud points must be finite"):
            PointCloud(np.array(bad), "line")


def test_line_cloud_drops_exact_repeats_only():
    # a point goes only when it equals its predecessor: one ulp apart is two points, at every
    # scale down to the subnormals, and a repeated point is one
    x = 2.0 ** -np.arange(1.0, 1074.0)
    pts = np.concatenate([x, x, np.nextafter(x, 1.0)])
    kept = PointCloud(pts, "line").points
    np.testing.assert_array_equal(kept, np.unique(pts))
    assert kept.size == 2 * x.size


def test_dyadic_endpoint_cloud_keeps_every_endpoint():
    # the endpoints 2^-k, k = 0..1000, are distinct floats; at delta = 2^-j those with k <= j
    # occupy one cell each and the rest share cell 0
    cloud = PointCloud(build_partition("dyadic", 1000).endpoints(), "line")
    assert cloud.count == 1001
    j = np.arange(1, 999)
    for jj in j.tolist():
        assert covering_counts(cloud, [2.0 ** -jj]).tolist() == [jj + 2]
    # one ladder, its keys taken at 2^-998 only, gives every level's count
    assert covering_counts(cloud, 2.0 ** -j).tolist() == (j + 2).tolist()


ENDPOINT_PARTITIONS = [
    ("gauss", {"truncation": 10_000}),
    ("dyadic", {"truncation": 1000}),
    ("power-law", {"truncation": 10_000, "exponent": 1.5}),
    ("log-squared", {"truncation": 10_000}),
    ("oscillating", {"truncation": 10_000}),
    ("gauss-restricted", {"digits": (1, 2, 5)}),
]


def _reference_endpoint_cloud(part) -> np.ndarray:
    pts = np.sort(np.concatenate([part.left, part.right]))
    return pts[np.concatenate([[True], pts[1:] != pts[:-1]])]


def _counting_sorts(monkeypatch) -> list:
    calls = []
    real_sort = np.sort

    def spy(*args, **kwargs):
        calls.append(1)
        return real_sort(*args, **kwargs)

    monkeypatch.setattr(np, "sort", spy)
    return calls


@pytest.mark.parametrize("generator, kwargs", ENDPOINT_PARTITIONS)
def test_endpoint_cloud_of_a_generator_skips_the_sort(monkeypatch, generator, kwargs):
    part = build_partition(generator, **kwargs)
    pts = part.endpoints()
    assert pts.size == 2 * part.count
    assert np.all(pts[1:] >= pts[:-1])
    sorts = _counting_sorts(monkeypatch)
    cloud = PointCloud(pts, "line")
    assert sorts == []
    assert cloud.points.tobytes() == _reference_endpoint_cloud(part).tobytes()


def test_endpoint_cloud_of_overlapping_intervals_is_sorted(monkeypatch):
    # overlaps within the 1e-12 tiling tolerance are accepted; their endpoints do not ascend
    part = IntervalPartition(np.array([0.5, 0.2, 0.05]), np.array([1.0, 0.5 + 1e-13, 0.1]), "explicit")
    assert not np.all(np.diff(part.endpoints()) >= 0)
    sorts = _counting_sorts(monkeypatch)
    cloud = PointCloud(part.endpoints(), "line")
    assert sorts == [1]
    assert cloud.points.tobytes() == _reference_endpoint_cloud(part).tobytes()
    assert cloud.count == 6


# ---------------------------------------------------------------------------
# line covering: occupied delta-mesh cells, checked by brute force and
# sandwiched against the packing number


def _packing_number(pts: np.ndarray, delta: float) -> int:
    count = 0
    next_free = -np.inf
    for x in pts:
        if x > next_free:
            count += 1
            next_free = x + delta
    return count


def test_line_covering_counts_occupied_cells():
    # M <= N <= 2M: a delta-separated subset puts its points in distinct cells,
    # and the length-delta intervals of the greedy cover each meet at most two
    rng = np.random.default_rng(7)
    for _ in range(50):
        pts = rng.uniform(0.0, 1.0, size=rng.integers(2, 200))
        cloud = PointCloud(pts, "line")
        delta = float(rng.uniform(0.01, 0.4))
        [got] = covering_counts(cloud, [delta])
        assert got == len({math.floor(x / delta) for x in cloud.points})
        m_packing = _packing_number(cloud.points, delta)
        assert m_packing <= got <= 2 * m_packing


def test_line_covering_known_values():
    cloud = PointCloud(np.array([0.0, 0.1, 0.2, 0.55, 1.0]), "line")
    assert covering_counts(cloud, [0.2]).tolist() == [4]
    assert covering_counts(cloud, [1.0]).tolist() == [2]
    for bad in ([0.0], [np.nan], [0.0, 0.0]):
        with pytest.raises(ValueError, match="positive"):
            covering_counts(cloud, bad)
    # one function counts both kinds of cloud
    assert covering_counts(PointCloud(np.eye(2), "sphere"), [0.1]).tolist() == [2]


def _direct_counts(pts: np.ndarray, deltas) -> list[int]:
    """Occupied cells at each delta by its own division: the reference the ladder must match."""
    return [np.unique(np.floor(pts / delta), axis=0).shape[0] for delta in deltas]


@pytest.mark.parametrize("base", [2.0 ** -20, 0.3 * 2.0 ** -20])
def test_line_covering_ladder_matches_direct_division(base):
    # negative points and a base that is not a power of two: every level of the ladder, its keys
    # halved from the finest level's cells, counts what dividing by that level's delta counts
    rng = np.random.default_rng(17)
    pts = np.concatenate([rng.uniform(-3.0, 2.0, 5000), -rng.uniform(0.0, 1e-5, 500), -(2.0 ** -np.arange(60.0)),
                          build_partition("gauss", 2000).endpoints()])
    cloud = PointCloud(pts, "line")
    deltas = base * 2.0 ** np.arange(24, -1, -1)
    assert covering_counts(cloud, deltas).tolist() == _direct_counts(cloud.points, deltas)
    assert covering_counts(cloud, deltas[-3:]).tolist() == _direct_counts(cloud.points, deltas[-3:])


def test_line_covering_ladder_keeps_tiny_negatives_in_cell_minus_one():
    # -2^-1070 / 2^5 rounds to -0.0, so dividing by 32 puts the point in cell 0 with 1.0; the
    # ladder keeps the cell -1 that the finest level (delta 1) resolves, which is the true cell
    cloud = PointCloud(np.array([-(2.0 ** -1070), 1.0]), "line")
    deltas = 2.0 ** np.arange(5.0, -1.0, -1.0)
    assert _direct_counts(cloud.points, deltas) == [1, 2, 2, 2, 2, 2]
    assert covering_counts(cloud, deltas).tolist() == [2] * 6


@pytest.mark.parametrize("deltas", [[0.5, 0.125], [0.5, 0.3], [0.25, 0.5], [0.5, 0.25, 0.25], [], [[0.5]]],
                         ids=["skips-a-level", "not-dyadic", "ascending", "repeated", "empty", "two-d"])
def test_covering_counts_need_a_doubling_ladder(deltas):
    for cloud in (PointCloud(np.linspace(0.0, 1.0, 50), "line"), PointCloud(np.eye(3), "sphere")):
        with pytest.raises(ValueError, match="each exactly twice the next"):
            covering_counts(cloud, deltas)


def test_covering_counts_need_finite_deltas():
    # inf == 2 inf, so an overflowed delta passes the ladder test; it would count one cell
    cloud = PointCloud(np.linspace(0.0, 1.0, 50), "line")
    for deltas in ([math.inf], [math.inf, math.inf], [math.inf, 2.0 ** 1023, 2.0 ** 1022]):
        for each in (cloud, PointCloud(np.eye(3), "sphere")):
            with pytest.raises(ValueError, match="deltas must be finite"):
                covering_counts(each, deltas)


# ---------------------------------------------------------------------------
# sphere covering: occupied delta-mesh cells, checked by brute force and
# sandwiched against a greedy delta-separated packing


def _greedy_reference(pts: np.ndarray, delta: float) -> int:
    """Size M_delta of a maximal delta-separated subset, by brute-force scan."""
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    kept: list[np.ndarray] = []
    for p in pts:
        if all(np.linalg.norm(p - q) >= delta for q in kept):
            kept.append(p)
    return len(kept)


def _random_sphere_cloud(rng, n: int, dim: int) -> PointCloud:
    v = rng.normal(size=(n, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return PointCloud(v, "sphere")


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_sphere_covering_counts_occupied_cells(dim):
    # keys pack 63 // d bits per axis, down to delta = 2^(2 - 63 // d); the axis vectors,
    # scaled within the unit tolerance, put indices at both ends of each field
    rng = np.random.default_rng(101 + dim)
    v = _random_sphere_cloud(rng, 2000, dim).points
    pts = np.vstack([v, np.eye(dim), -np.eye(dim)]) * (1.0 + 5e-10)
    cloud = PointCloud(pts, "sphere")
    bits = 63 // dim
    floor = 2.0 ** (2 - bits)
    for delta in (floor, 3.0 * floor, 0.003, 0.05, 0.2, 0.7, 3.0):
        if delta >= floor:
            assert covering_counts(cloud, [delta]).tolist() == _direct_counts(pts, [delta])
    # whole ladders from 2 and 3 (below pi) down to the floor, or to 3 times it: every level's
    # keys are the finest level's fields halved at once
    for deltas in (floor * 2.0 ** np.arange(bits - 1, -1, -1), 3.0 * floor * 2.0 ** np.arange(bits - 2, -1, -1)):
        assert covering_counts(cloud, deltas).tolist() == _direct_counts(pts, deltas)
    with pytest.raises(ValueError, match=f"below supported resolution {floor} in R\\^{dim}"):
        covering_counts(cloud, [np.nextafter(floor, 0.0)])
    with pytest.raises(ValueError, match=f"below supported resolution {floor} in R\\^{dim}"):
        covering_counts(cloud, [2.0 * floor, floor, 0.5 * floor])


@pytest.mark.parametrize("dim", [2, 3])
def test_sphere_covering_sandwiches_greedy_packing(dim):
    # M <= 2^d N: half-side subcubes have diameter < delta for d <= 3, so each
    # holds at most one separated point.  N <= 3^d M: every point lies within
    # delta of a kept point, so in one of the 3^d cells around it.
    rng = np.random.default_rng(211 + dim)
    cloud = _random_sphere_cloud(rng, 400, dim)
    for j in range(2, 7):
        delta = 2.0 ** -j
        [n_cells] = covering_counts(cloud, [delta])
        m_packing = _greedy_reference(cloud.points, delta)
        assert m_packing <= 2**dim * n_cells
        assert n_cells <= 3**dim * m_packing


def test_sphere_covering_row_order_invariant():
    rng = np.random.default_rng(5)
    cloud = _random_sphere_cloud(rng, 500, 3)
    shuffled = PointCloud(cloud.points[rng.permutation(cloud.count)], "sphere")
    for delta in (0.03, 0.11):
        assert covering_counts(cloud, [delta]).tolist() == covering_counts(shuffled, [delta]).tolist()
    deltas = 2.0 ** -np.arange(0.0, 12.0)
    assert covering_counts(cloud, deltas).tolist() == covering_counts(shuffled, deltas).tolist()


def test_sphere_covering_guards():
    cloud = _random_sphere_cloud(np.random.default_rng(0), 10, 2)
    for bad in ([4.0], [np.nan], [4.0, 2.0], [0.0]):
        with pytest.raises(ValueError, match=r"\(0, pi\)"):
            covering_counts(cloud, bad)
    with pytest.raises(ValueError, match="below supported resolution"):
        covering_counts(cloud, [2.0 ** -30])
    # R^4 and up count like R^2 and R^3
    v = _random_sphere_cloud(np.random.default_rng(1), 10, 4).points
    assert covering_counts(PointCloud(v, "sphere"), [0.1]).tolist() == [len({tuple(np.floor(p / 0.1)) for p in v})]


# ---------------------------------------------------------------------------
# windowed dimension estimates


def test_box_dimension_reciprocal_endpoints():
    part = build_partition("gauss", 10000)
    cloud = PointCloud(part.endpoints(), "line")
    deltas = 2.0 ** -np.arange(4.0, 13.0)
    est = estimate_box_dimension(cloud, deltas)
    assert 0.40 <= est.lower_dim <= est.upper_dim <= 0.60
    # the window is the trailing half of the secant slopes
    assert est.used.size == deltas.size - 1
    assert est.used.sum() == est.used.size // 2
    assert not est.saturated.any()


def test_box_dimension_full_interval_clamps_to_cap():
    cloud = PointCloud(np.linspace(0.0, 1.0, 200001), "line")
    deltas = 2.0 ** -np.arange(3.0, 12.0)
    est = estimate_box_dimension(cloud, deltas)
    assert est.lower_dim == pytest.approx(1.0, abs=0.02)
    assert est.upper_dim <= 1.0  # clamped at the ambient cap


def test_box_dimension_needs_a_doubling_grid():
    cloud = PointCloud(np.linspace(0.0, 1.0, 100), "line")
    for deltas in (2.0 ** -np.arange(4.0, 20.0, 2.0), 0.1 * np.arange(1.0, 10.0)):
        with pytest.raises(ValueError, match="each exactly twice the next"):
            estimate_box_dimension(cloud, deltas)


def test_box_dimension_needs_eight_levels():
    cloud = PointCloud(np.linspace(0.0, 1.0, 100), "line")
    with pytest.raises(ValueError, match="at least 8 levels"):
        estimate_box_dimension(cloud, 2.0 ** -np.arange(4.0, 9.0))


@pytest.mark.parametrize("bad", [0.0, -0.5, np.nan])
def test_box_dimension_needs_positive_deltas(bad):
    cloud = PointCloud(np.linspace(0.0, 1.0, 100), "line")
    with pytest.raises(ValueError, match="deltas must be positive"):
        estimate_box_dimension(cloud, np.append(2.0 ** -np.arange(4.0, 12.0), bad))


def test_box_dimension_all_saturated():
    cloud = PointCloud(np.linspace(0.0, 1.0, 10), "line")
    deltas = 2.0 ** -np.arange(20.0, 28.0)  # every point isolated at all levels
    with pytest.raises(ValueError, match="saturated"):
        estimate_box_dimension(cloud, deltas)


def test_box_dimension_excludes_saturated_levels():
    part = build_partition("gauss", 300)
    cloud = PointCloud(part.endpoints(), "line")
    deltas = 2.0 ** -np.arange(4.0, 23.0)
    est = estimate_box_dimension(cloud, deltas)
    assert est.saturated.any()
    # slopes come from the unsaturated levels only
    assert est.slopes.size == (~est.saturated).sum() - 1
    assert "saturat" in est.note


# ---------------------------------------------------------------------------
# gap exponents


def test_gap_bounds_gauss():
    gb = gap_exponent_bounds(build_partition("gauss", 100000))
    assert gb.fitted_limit is not None
    assert gb.fitted_limit == pytest.approx(0.5, abs=0.02)
    assert gb.L_lower <= 0.5 <= gb.L_upper
    assert gb.L_upper - gb.L_lower < 0.02
    assert gb.edge_drift < 1e-4


def test_gap_bounds_power_law():
    gb = gap_exponent_bounds(build_partition("power-law", 100000, exponent=1.5))
    assert gb.fitted_limit == pytest.approx(2.0 / 3.0, abs=0.01)
    assert gb.L_lower <= 2.0 / 3.0 <= gb.L_upper


def test_gap_bounds_dyadic_rejects_extrapolation():
    gb = gap_exponent_bounds(build_partition("dyadic", 1000))
    # log n / n never looks like a power-law approach to a limit
    assert gb.fitted_limit is None
    assert gb.fit_residual > 0.02
    assert gb.L_upper <= 0.25
    assert gb.L_lower < 0.02


def test_gap_bounds_oscillating_window():
    gb = gap_exponent_bounds(build_partition("oscillating", 100000))
    assert gb.fitted_limit is None
    assert gb.spread >= 0.1
    assert gb.window_min < 4.0 / 11.0 + 0.02
    assert gb.window_max > 4.0 / 9.0
    assert gb.L_lower <= 4.0 / 9.0 <= gb.L_upper


@pytest.mark.parametrize("skewed", [False, True], ids=["numpy-log", "skewed-log"])
@pytest.mark.parametrize("name, kwargs", [("gauss", {}), ("dyadic", {}), ("power-law", {"exponent": 1.5}),
                                          ("log-squared", {}), ("oscillating", {})])
def test_gap_bounds_take_their_logs_from_libm(monkeypatch, name, kwargs, skewed):
    # np.log's last bit depends on the CPU: the window extremes, the two ratios edge_drift reads and the
    # fit equal those of a reference that takes every log with math.log, also where np.log is 2 ulps off
    part = build_partition(name, 1000 if name == "dyadic" else 50_000, **kwargs)
    if skewed:
        real_log = np.log

        def skewed_log(x, out=None):
            y = real_log(x, out=out)
            y[::2] *= 1.0 + 2.0 ** -51
            y[1::2] *= 1.0 - 2.0 ** -51
            return y

        monkeypatch.setattr(np, "log", skewed_log)
    gb = gap_exponent_bounds(part)
    lengths = sorted(part.lengths.tolist(), reverse=True)
    ratios = [math.log(n) / -math.log(lengths[n - 1]) for n in range(16, len(lengths) + 1)]
    assert (gb.window_min, gb.window_max) == (min(ratios), max(ratios))
    assert gb.edge_drift == abs(ratios[-1] - ratios[int(0.1 * len(lengths)) - 16])
    grid = np.unique(np.geomspace(16, len(lengths), 48).astype(np.int64)).tolist()
    x = np.array([math.log(n) for n in grid])
    sec = np.diff(np.array([-math.log(lengths[n - 1]) for n in grid]) - x) / np.diff(x)
    xm = 0.5 * (x[1:] + x[:-1])
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones_like(xm), 1.0 / xm, 1.0 / xm**2]), sec, rcond=None)
    assert gb.fit_exponent == float(coef[0])


def test_gap_bounds_need_enough_intervals():
    with pytest.raises(PartitionError, match="at least 16"):
        gap_exponent_bounds(build_partition("dyadic", 10))


def test_gap_bounds_log_squared_drifts_more_than_gauss():
    slow = gap_exponent_bounds(build_partition("log-squared", 100000))
    fast = gap_exponent_bounds(build_partition("gauss", 100000))
    assert slow.edge_drift > fast.edge_drift
    assert slow.L_upper >= 0.9  # extrapolation reaches toward the true value 1
