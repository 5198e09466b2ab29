"""Half-space/ball geometry: distances, Busemann functions, boundary metrics."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from presdim import hyperbolic
from presdim.hyperbolic import (
    BALL,
    HALF_SPACE,
    ParabolicGroupSpec,
    ball_point,
    base_point,
    boundary_infinity,
    boundary_plane_point,
    boundary_sphere_point,
    bourdon_metric,
    busemann,
    comparison_triangle_check,
    distance,
    gromov_product,
    half_space_point,
    identity_suite,
    orbit_distance,
    parabolic_orbit,
    point_on_boundary_geodesic,
    spherical_metric,
    to_ball,
    to_half_space,
    translate,
)
from presdim.numerics import acosh1p

RNG_SEED = 20260813


def _random_half_space(rng, ambient=3, scale=2.0):
    x = rng.normal(size=ambient) * scale
    x[-1] = abs(x[-1]) + 0.05
    return half_space_point(x)


def _random_ball(rng, ambient=3):
    v = rng.normal(size=ambient)
    v *= rng.uniform(0.0, 0.97) / np.linalg.norm(v)
    return ball_point(v)


def _random_boundary(rng, ambient=3):
    return boundary_plane_point(rng.normal(size=ambient - 1) * 2.0)


# ---------------------------------------------------------------------------
# models and conversions


def test_point_validation():
    with pytest.raises(ValueError):
        half_space_point([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ball_point([1.0, 0.0])
    with pytest.raises(ValueError):
        boundary_sphere_point([0.5, 0.0])
    p = base_point(HALF_SPACE, 3)
    np.testing.assert_allclose(p.coords, [0.0, 0.0, 1.0])
    np.testing.assert_allclose(base_point(BALL, 3).coords, [0.0, 0.0, 0.0])


def test_involution_round_trip():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(200):
        p = _random_half_space(rng)
        q = to_half_space(to_ball(p))
        np.testing.assert_allclose(q.coords, p.coords, atol=1e-12)
        b = _random_ball(rng)
        c = to_ball(to_half_space(b))
        np.testing.assert_allclose(c.coords, b.coords, atol=1e-12)


def test_base_points_correspond():
    o = to_ball(base_point(HALF_SPACE, 4))
    np.testing.assert_allclose(o.coords, np.zeros(4), atol=1e-15)


def test_boundary_conversions():
    u = boundary_plane_point([0.3, -0.4])
    v = to_ball(u)
    assert v.model == BALL
    assert np.linalg.norm(v.coords) == pytest.approx(1.0)
    w = to_half_space(v)
    np.testing.assert_allclose(w.coords, u.coords, atol=1e-12)
    # infinity corresponds to the south pole -e_n
    south = boundary_sphere_point([0.0, 0.0, -1.0])
    assert to_half_space(south).at_infinity
    with pytest.raises(ValueError, match="boundary_sphere_point"):
        to_ball(boundary_infinity())


# ---------------------------------------------------------------------------
# distance


def test_vertical_distance_is_log_ratio():
    p = half_space_point([0.0, 0.0, 0.5])
    q = half_space_point([0.0, 0.0, 8.0])
    assert distance(p, q) == pytest.approx(math.log(16.0), abs=1e-14)


def test_distance_symmetric_positive():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(200):
        p, q = _random_half_space(rng), _random_half_space(rng)
        d = distance(p, q)
        assert d >= 0.0
        assert d == pytest.approx(distance(q, p), abs=1e-13)
    assert distance(p, p) == 0.0


def test_distance_model_invariance():
    rng = np.random.default_rng(RNG_SEED + 2)
    worst = 0.0
    for _ in range(500):
        p, q = _random_half_space(rng), _random_half_space(rng)
        d1 = distance(p, q)
        d2 = distance(to_ball(p), to_ball(q))
        d3 = distance(to_ball(p), q)  # mixed models allowed
        worst = max(worst, abs(d1 - d2), abs(d1 - d3))
    assert worst <= 1e-9


def test_triangle_inequality_sweep():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(300):
        p, q, r = (_random_half_space(rng) for _ in range(3))
        assert distance(p, q) <= distance(p, r) + distance(r, q) + 1e-10


# ---------------------------------------------------------------------------
# Busemann functions


def test_busemann_at_infinity_is_height_log():
    p = half_space_point([1.0, 2.0, 0.25])
    q = half_space_point([-3.0, 0.5, 4.0])
    assert busemann(boundary_infinity(), p, q) == pytest.approx(math.log(16.0), abs=1e-14)


def test_busemann_matches_distance_limit():
    # B_xi(p, q) = lim d(p, x) - d(q, x) as x -> xi along the geodesic
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(25):
        p, q = _random_half_space(rng), _random_half_space(rng)
        u = rng.normal(size=2)
        xi = boundary_plane_point(u)
        x = half_space_point([*u, 1e-9])
        approx = distance(p, x) - distance(q, x)
        assert busemann(xi, p, q) == pytest.approx(approx, abs=1e-6)


def test_busemann_cocycle_and_bound():
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(300):
        p, q, r = (_random_half_space(rng) for _ in range(3))
        xi = _random_boundary(rng) if rng.uniform() < 0.8 else boundary_infinity()
        b_pq = busemann(xi, p, q)
        assert abs(b_pq + busemann(xi, q, r) - busemann(xi, p, r)) <= 1e-10
        assert abs(b_pq) <= distance(p, q) + 1e-10
        assert busemann(xi, p, p) == 0.0


# ---------------------------------------------------------------------------
# Gromov products and boundary metrics


def test_gromov_product_z_independent():
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(200):
        xi, eta = _random_boundary(rng), _random_boundary(rng)
        if np.array_equal(xi.coords, eta.coords):
            continue
        base = _random_half_space(rng)
        ref = gromov_product(xi, eta, base)
        for s in (0.2, 0.5, 0.9):
            z = point_on_boundary_geodesic(xi, eta, s)
            assert gromov_product(xi, eta, base, z=z) == pytest.approx(ref, abs=1e-10)


def test_gromov_product_coincident_points_rejected():
    xi = boundary_plane_point([0.1, 0.2])
    with pytest.raises(ValueError, match="infinity"):
        gromov_product(xi, boundary_plane_point([0.1, 0.2]), base_point(HALF_SPACE, 3))


def test_bourdon_is_sine_of_half_angle_at_origin():
    rng = np.random.default_rng(RNG_SEED + 7)
    o = base_point(BALL, 3)
    worst = 0.0
    for _ in range(500):
        v, w = rng.normal(size=3), rng.normal(size=3)
        xi = boundary_sphere_point(v / np.linalg.norm(v))
        eta = boundary_sphere_point(w / np.linalg.norm(w))
        angle = spherical_metric(xi, eta)
        if angle < 1e-8:
            continue
        worst = max(worst, abs(bourdon_metric(xi, eta, o) - math.sin(0.5 * angle)))
    assert worst <= 1e-9


def test_bourdon_triangle_inequality():
    rng = np.random.default_rng(RNG_SEED + 8)
    o = base_point(HALF_SPACE, 3)
    for _ in range(200):
        xi, eta, zeta = (_random_boundary(rng) for _ in range(3))
        lhs = bourdon_metric(xi, eta, o)
        rhs = bourdon_metric(xi, zeta, o) + bourdon_metric(zeta, eta, o)
        assert lhs <= rhs + 1e-10


def test_spherical_metric_is_the_angle():
    xi = boundary_sphere_point([1.0, 0.0])
    eta = boundary_sphere_point([0.0, 1.0])
    assert spherical_metric(xi, eta) == pytest.approx(math.pi / 2.0)
    assert spherical_metric(xi, xi) == 0.0


# ---------------------------------------------------------------------------
# parabolic groups


def test_group_validation():
    with pytest.raises(ValueError):
        ParabolicGroupSpec(3, 2, np.array([[1.0, 0.0], [2.0, 0.0]]))  # dependent
    g = ParabolicGroupSpec(3, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert g.fixed_point.at_infinity


def test_sigma_min_is_a_certified_lower_bound():
    # numpy's SVD value lies above the 50-digit value for about half of these matrices
    rng = np.random.default_rng(RNG_SEED + 21)
    for ambient, rank in [(3, 1), (3, 2), (4, 2), (4, 3)] * 100:
        alphas = rng.normal(size=(rank, ambient - 1))
        sigma = ParabolicGroupSpec(ambient, rank, alphas).sigma_min
        with mpmath.workdps(50):
            exact = min(mpmath.svd_r(mpmath.matrix(alphas.tolist()), compute_uv=False))
            assert sigma <= exact
            assert exact - sigma <= 1e-12 * exact
    assert ParabolicGroupSpec(3, 2, np.eye(2)).sigma_min == 1.0
    assert ParabolicGroupSpec(4, 3, np.eye(3)).sigma_min == 1.0


def test_sigma_min_steps_down_from_a_high_estimate():
    assert 1.0 - 3e-9 <= hyperbolic._certified_sigma_min(np.eye(2), 1.0 + 1e-9) <= 1.0
    assert hyperbolic._certified_sigma_min(np.eye(2), 1.0) == 1.0
    assert hyperbolic._certified_sigma_min(np.array([[1.0, 1.0]]), 0.0) == 0.0


@pytest.mark.parametrize("matrix, psd", [
    ([[1, 1], [1, 1]], True),
    ([[0, 0], [0, 0]], True),
    ([[0, 1], [1, 0]], False),  # zero pivot with a nonzero column
    ([[1, 2], [2, 1]], False),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], True),
    ([[1, 0, 0], [0, 0, 0], [0, 0, -1e-300]], False),
])
def test_is_psd_exact(matrix, psd):
    assert hyperbolic._is_psd([[Fraction(x) for x in row] for row in matrix]) is psd


def test_translate_is_isometry_and_fixes_infinity():
    rng = np.random.default_rng(RNG_SEED + 9)
    g = ParabolicGroupSpec(3, 2, np.array([[1.0, 0.3], [0.0, 0.8]]))
    for _ in range(200):
        p, q = _random_half_space(rng), _random_half_space(rng)
        coeffs = rng.integers(-5, 6, size=2)
        gp, gq = translate(g, coeffs, p), translate(g, coeffs, q)
        assert distance(gp, gq) == pytest.approx(distance(p, q), abs=1e-10)
    assert translate(g, [3, -2], boundary_infinity()).at_infinity


def test_orbit_distance_closed_form():
    g = ParabolicGroupSpec(3, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    o = base_point(HALF_SPACE, 3)
    for coeffs in ([1, 0], [2, 3], [-4, 1]):
        direct = distance(o, translate(g, coeffs, o))
        assert orbit_distance(g, coeffs) == pytest.approx(direct, abs=1e-12)
        norm = np.linalg.norm(g.displacement(coeffs))
        assert direct == pytest.approx(2.0 * math.asinh(norm / 2.0), abs=1e-13)


def test_parabolic_orbit_counts_and_errors():
    g1 = ParabolicGroupSpec(2, 1, np.array([[1.0]]))
    cloud = parabolic_orbit(g1, boundary_plane_point([0.0]), 100)
    assert cloud.kind == "sphere"
    assert cloud.count == 201  # includes the orbit of xi under N = 0
    np.testing.assert_allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="fixed by P"):
        parabolic_orbit(g1, boundary_infinity(), 10)
    g2 = ParabolicGroupSpec(3, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert parabolic_orbit(g2, boundary_plane_point([0.0, 0.0]), 7).count == 15 ** 2


def test_orbit_gaps_track_orbit_distance():
    # consecutive orbit points on the boundary sphere separate like
    # e^{-d(o, N o)}: both decay as 1/N^2
    g = ParabolicGroupSpec(2, 1, np.array([[1.0]]))
    xi = boundary_plane_point([0.0])
    for n in (50, 200, 1000):
        a = to_ball(translate(g, [n], xi))
        b = to_ball(translate(g, [n + 1], xi))
        gap = spherical_metric(a, b)
        ratio = gap / math.exp(-orbit_distance(g, [n]))
        assert 0.5 <= ratio <= 8.0


# ---------------------------------------------------------------------------
# comparison triangles


def test_collinear_triangle_has_zero_slack():
    x = half_space_point([0.0, 0.0, 0.25])
    z = half_space_point([0.0, 0.0, 1.0])
    y = half_space_point([0.0, 0.0, 4.0])
    # z between x and y on a vertical geodesic: angle pi, slack exactly 0
    rep = comparison_triangle_check(x, y, z, min_angle=math.pi / 2.0)
    assert rep.angle_at_z == pytest.approx(math.pi, abs=1e-9)
    assert abs(rep.slack) <= 1e-9
    assert rep.passed


def test_thin_angle_rejected():
    x = half_space_point([1.0, 0.0, 0.1])
    y = half_space_point([1.05, 0.0, 0.1])
    z = half_space_point([0.0, 0.0, 5.0])
    with pytest.raises(ValueError, match="angle"):
        comparison_triangle_check(x, y, z, min_angle=math.pi / 3.0)


def test_degenerate_triangle_rejected():
    z = half_space_point([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="degenerate"):
        comparison_triangle_check(z, half_space_point([0.0, 0.0, 2.0]), z, min_angle=1.0)


def test_right_angle_slack_within_constant():
    rng = np.random.default_rng(RNG_SEED + 10)
    min_angle = math.pi / 2.0
    c = 2.0 * math.log(2.0 / (1.0 - math.cos(min_angle)))
    for _ in range(100):
        # legs of a right angle at a random apex
        h = rng.uniform(0.5, 2.0)
        a, b = rng.uniform(0.5, 3.0, size=2)
        z = half_space_point([0.0, 0.0, h])
        x = half_space_point([0.0, 0.0, h * math.exp(a)])  # straight up
        # distance b along the semicircle of radius h centered below z,
        # which meets the vertical ray orthogonally
        y = half_space_point([h * math.tanh(b), 0.0, h / math.cosh(b)])
        rep = comparison_triangle_check(x, y, z, min_angle=min_angle / 2.0)
        assert rep.angle_at_z == pytest.approx(math.pi / 2.0, abs=1e-9)
        assert rep.slack >= -c
        assert rep.slack <= 0.0 + 1e-12  # triangle inequality side
        assert rep.constant == pytest.approx(2.0 * math.log(2.0 / (1.0 - math.cos(min_angle / 2.0))))


# ---------------------------------------------------------------------------
# array kernels: 50-digit references, errors kept by the batch-of-one API


def _mp_acosh1p(x):
    return mpmath.acosh(1 + x)


def _mp_norm2(x):
    return mpmath.fsum(mpmath.mpf(float(c)) ** 2 for c in x)


def _mp_invert(x):
    # J(x) = -e_n + 2(x + e_n)/|x + e_n|^2, exchanging ball and half-space
    y = [mpmath.mpf(float(c)) for c in x]
    y[-1] += 1
    nn = mpmath.fsum(c * c for c in y)
    out = [2 * c / nn for c in y]
    out[-1] -= 1
    return out


def _mp_busemann_ball(xi, p, q):
    # ball Busemann function log(|x - xi|^2 / (1 - |x|^2)), a formula the module does not use
    def b(x):
        return mpmath.log(_mp_norm2([mpmath.mpf(float(a)) - float(c) for a, c in zip(x, xi)])
                          / (1 - _mp_norm2(x)))
    return b(p) - b(q)


def _mp_gromov(u, v, base):
    # e^{-2 (u|v)_o} = h^2 |u - v|^2 / ((|u - x|^2 + h^2)(|v - x|^2 + h^2)) at o = (x, h);
    # v = None is the point at infinity
    x, h = base[:-1], mpmath.mpf(float(base[-1]))
    du = _mp_norm2([mpmath.mpf(float(a)) - float(c) for a, c in zip(u, x)]) + h * h
    if v is None:
        return -mpmath.log(h * h / du) / 2
    dv = _mp_norm2([mpmath.mpf(float(a)) - float(c) for a, c in zip(v, x)]) + h * h
    uv = _mp_norm2([mpmath.mpf(float(a)) - float(c) for a, c in zip(u, v)])
    return -mpmath.log(h * h * uv / (du * dv)) / 2


def _close(value, ref, rel=1e-12):
    assert abs(value - float(ref)) <= rel * (1.0 + abs(float(ref))), (value, ref)


def test_distance_matches_mpmath():
    rng = np.random.default_rng(RNG_SEED + 20)
    with mpmath.workdps(50):
        for _ in range(200):
            p, q = _random_half_space(rng), _random_half_space(rng)
            ref = _mp_acosh1p(_mp_norm2(p.coords - q.coords) / (2 * mpmath.mpf(p.height) * q.height))
            _close(distance(p, q), ref)
            b, c = _random_ball(rng), _random_ball(rng)
            diff = [mpmath.mpf(float(s)) - float(t) for s, t in zip(b.coords, c.coords)]
            ref = _mp_acosh1p(2 * _mp_norm2(diff) / ((1 - _mp_norm2(b.coords)) * (1 - _mp_norm2(c.coords))))
            _close(distance(b, c), ref)


def test_busemann_matches_mpmath():
    rng = np.random.default_rng(RNG_SEED + 21)
    with mpmath.workdps(50):
        for _ in range(200):
            p, q = _random_half_space(rng), _random_half_space(rng)
            _close(busemann(boundary_infinity(), p, q), mpmath.log(mpmath.mpf(q.height) / p.height))
            xi = _random_boundary(rng)
            ball_xi = [float(c) for c in to_ball(xi).coords]
            ref = _mp_busemann_ball(ball_xi, _mp_invert(p.coords), _mp_invert(q.coords))
            _close(busemann(xi, p, q), ref, rel=1e-11)
            # ball-model inputs are converted first
            b, c = _random_ball(rng), _random_ball(rng)
            v = rng.normal(size=3)
            eta = boundary_sphere_point(v / np.linalg.norm(v))
            _close(busemann(eta, b, c), _mp_busemann_ball(eta.coords, b.coords, c.coords), rel=1e-11)


def test_gromov_product_matches_mpmath():
    rng = np.random.default_rng(RNG_SEED + 22)
    with mpmath.workdps(50):
        for _ in range(200):
            base = _random_half_space(rng)
            xi, eta = _random_boundary(rng), _random_boundary(rng)
            ref = _mp_gromov(xi.coords, eta.coords, base.coords)
            _close(gromov_product(xi, eta, base), ref, rel=1e-11)
            z = point_on_boundary_geodesic(xi, eta, rng.uniform(0.1, 0.9))
            _close(gromov_product(xi, eta, base, z=z), ref, rel=1e-11)
            ref = _mp_gromov(xi.coords, None, base.coords)
            _close(gromov_product(xi, boundary_infinity(), base), ref, rel=1e-11)
            z = point_on_boundary_geodesic(boundary_infinity(), xi, rng.uniform(0.1, 0.9))
            _close(gromov_product(boundary_infinity(), xi, base, z=z), ref, rel=1e-11)


def test_batch_of_one_api_keeps_its_errors():
    base = base_point(HALF_SPACE, 2)
    for a, b in ((boundary_infinity(), boundary_infinity()),
                 (boundary_plane_point([0.5]), boundary_plane_point([0.5]))):
        with pytest.raises(ValueError, match="coincide"):
            gromov_product(a, b, base)
        with pytest.raises(ValueError, match="coincide"):
            point_on_boundary_geodesic(a, b, 0.5)
        assert bourdon_metric(a, b, base) == 0.0
    # only a point at height 0 reaches it, so bypass the constructor's check
    flat = half_space_point([0.5, 1.0])
    object.__setattr__(flat, "coords", np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="denominator"):
        busemann(boundary_plane_point([0.5]), flat, base)
    assert acosh1p(-1e-13) == 0.0
    for bad in (-1e-11, np.array([0.0, -0.5])):
        with pytest.raises(ValueError, match="u >= 0"):
            acosh1p(bad)
    assert acosh1p(np.array([0.0, 1.5]))[1] == acosh1p(1.5) == math.acosh(2.5)
    # 1 + v_n <= 1e-12 maps to infinity, exactly at -e_n and just beside it
    for v in ([0.0, -1.0], [1e-7, -math.cos(1e-7)]):
        south = boundary_sphere_point(v)
        assert to_half_space(south).at_infinity
        # sin of half the angle between the two points, whose cosine is -0.8
        east = boundary_sphere_point([0.6, 0.8])
        assert bourdon_metric(south, east, base_point(BALL, 2)) == pytest.approx(math.sqrt(0.9), abs=1e-14)


def _object_api_errors(trials, rng):
    """Per-trial errors of the nine identities through the object API, drawn as identity_suite draws."""

    def half_space_points(count, ambient):
        horizontal = rng.normal(0.0, 2.0, size=(count, ambient - 1))
        heights = np.exp(rng.normal(0.0, 0.7, size=count))
        return [half_space_point(np.append(h, t)) for h, t in zip(horizontal, heights)]

    def circle(count):
        return [boundary_sphere_point([math.cos(a), math.sin(a)])
                for a in rng.uniform(0.0, 2.0 * math.pi, size=count)]

    errors = []
    disk = base_point(BALL, 2)
    xs, ys = circle(trials), circle(trials)
    errors.append([abs(bourdon_metric(x, y, disk) - math.sin(0.5 * spherical_metric(x, y)))
                   for x, y in zip(xs, ys) if not np.array_equal(x.coords, y.coords)])
    pts = half_space_points(3 * trials, 3)
    us = rng.normal(0.0, 2.0, size=(trials, 2))
    cocycle, bound = [], []
    for i in range(trials):
        p, q, r = pts[3 * i:3 * i + 3]
        xi = boundary_plane_point(us[i]) if i % 2 else boundary_infinity()
        b_pq = busemann(xi, p, q)
        cocycle.append(abs(b_pq + busemann(xi, q, r) - busemann(xi, p, r)))
        bound.append(max(0.0, abs(b_pq) - distance(p, q)))
    errors += [cocycle, bound]
    bases = half_space_points(trials, 2)
    errors.append([])
    for base in bases:
        u = rng.normal(0.0, 3.0)
        xi, eta = boundary_plane_point([u]), boundary_plane_point([u + abs(rng.normal(0.0, 2.0)) + 1e-3])
        g1, g2 = (gromov_product(xi, eta, base, z=point_on_boundary_geodesic(xi, eta, s))
                  for s in sorted(rng.uniform(0.15, 0.85, size=2)))
        errors[-1].append(abs(g1 - g2))
    o2 = base_point(HALF_SPACE, 2)
    errors.append([abs(distance(o2, half_space_point([v, 1.0])) - 2.0 * math.asinh(0.5 * v))
                   for v in rng.uniform(0.01, 50.0, size=trials)])
    triple = half_space_points(3 * trials, 3)
    errors.append([max(0.0, distance(p, q) - distance(p, r) - distance(r, q))
                   for p, q, r in zip(triple[0::3], triple[1::3], triple[2::3])])
    pairs = half_space_points(2 * trials, 2)
    group = ParabolicGroupSpec(2, 1, [[1.0]])
    errors.append([])
    for p, q in zip(pairs[0::2], pairs[1::2]):
        shift = [float(rng.integers(-40, 41))]
        errors[-1].append(abs(distance(translate(group, shift, p), translate(group, shift, q))
                              - distance(p, q)))
    zs = circle(trials)
    errors.append([max(0.0, bourdon_metric(x, y, disk) - (bourdon_metric(x, z, disk) + bourdon_metric(z, y, disk)))
                   for x, y, z in zip(xs, ys, zs)
                   if not (np.array_equal(x.coords, z.coords) or np.array_equal(y.coords, z.coords))])
    errors.append([abs(distance(to_ball(p), to_ball(q)) - distance(p, q))
                   for p, q in zip(pts[:trials], pts[trials:2 * trials])])

    return errors


def test_identity_suite_matches_object_api():
    # many small samples: a max error is a few ulps, so one large sample hides changed inputs
    for seed, trials in [(7, 300), *((seed, 12) for seed in range(12))]:
        records = identity_suite(trials, np.random.default_rng(seed))
        errors = _object_api_errors(trials, np.random.default_rng(seed))
        assert len(records) == len(errors) == 9
        for rec, errs in zip(records, errors):
            expected = sum(e <= rec["tolerance"] for e in errs), len(errs), max(errs, default=0.0)
            assert (rec["passed"], rec["total"], rec["max_error"]) == expected, (seed, rec["name"])
    with pytest.raises(ValueError, match="trials"):
        identity_suite(0, np.random.default_rng(0))
