"""Half-space/ball geometry kernels: distances, Busemann functions, boundary metrics.

Every kernel takes (N, n) coordinate rows; a boundary-plane row u comes with a flag
at_inf, and the row of a point at infinity is unread.
"""

import math
import re

import mpmath
import numpy as np
import pytest

from presdim import hyperbolic, poincare
from presdim.hyperbolic import (
    BALL,
    HALF_SPACE,
    ParabolicGroupSpec,
    _bourdon,
    _busemann,
    _distance,
    _geodesic_point,
    _gromov,
    _invert,
    _orbit_distance,
    _plane_to_sphere,
    _sphere_to_plane,
    _spherical,
    _translate,
    identity_suite,
    parabolic_orbit,
)
from presdim.numerics import acosh1p

RNG_SEED = 20260813


def _random_half_space(rng, ambient=3, scale=2.0):
    x = rng.normal(size=ambient) * scale
    x[-1] = abs(x[-1]) + 0.05
    return x


def _random_ball(rng, ambient=3):
    v = rng.normal(size=ambient)
    v *= rng.uniform(0.0, 0.97) / np.linalg.norm(v)
    return v


def _random_boundary(rng, ambient=3):
    return rng.normal(size=ambient - 1) * 2.0


def _row(x):
    return np.asarray(x, dtype=float)[None]


def _end(u, dim):
    """(row, at_inf) of the boundary-plane point u in R^dim, or of infinity for u None."""
    return (np.zeros((1, dim)), np.array([True])) if u is None else (_row(u), np.array([False]))


# a kernel on a batch of one, as a float; None is the boundary point at infinity
def _distance1(p, q, model=HALF_SPACE):
    return float(_distance(_row(p), _row(q), model)[0])


def _busemann1(u, p, q):
    return float(_busemann(*_end(u, len(p) - 1), _row(p), _row(q))[0])


def _bourdon1(u, v, base):
    return float(_bourdon(*_end(u, len(base) - 1), *_end(v, len(base) - 1), _row(base))[0])


def _gromov1(u, v, base, z):
    return float(_gromov(*_end(u, len(base) - 1), *_end(v, len(base) - 1), _row(base), _row(z))[0])


def _disk_bourdon(a, b):
    """Bourdon metric of unit rows of the disk, seen from its origin."""
    origin = np.broadcast_to(_invert(np.zeros((1, a.shape[1]))), a.shape)
    return _bourdon(*_sphere_to_plane(a), *_sphere_to_plane(b), origin)


# ---------------------------------------------------------------------------
# model swap and boundary maps


def test_involution_round_trip():
    rng = np.random.default_rng(RNG_SEED)
    ps, bs = zip(*((_random_half_space(rng), _random_ball(rng)) for _ in range(200)))
    ps, bs = np.array(ps), np.array(bs)
    np.testing.assert_allclose(_invert(_invert(ps)), ps, atol=1e-12)
    np.testing.assert_allclose(_invert(_invert(bs)), bs, atol=1e-12)


def test_base_points_correspond():
    np.testing.assert_allclose(_invert(_row([0.0, 0.0, 0.0, 1.0])), np.zeros((1, 4)), atol=1e-15)


def test_boundary_conversions():
    u = _row([0.3, -0.4])
    v = _plane_to_sphere(u)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    w, at_inf = _sphere_to_plane(v)
    assert not at_inf[0]
    np.testing.assert_allclose(w, u, atol=1e-12)
    # infinity corresponds to the south pole -e_n
    assert _sphere_to_plane(_row([0.0, 0.0, -1.0]))[1][0]


# ---------------------------------------------------------------------------
# distance


def test_vertical_distance_is_log_ratio():
    assert _distance1([0.0, 0.0, 0.5], [0.0, 0.0, 8.0]) == pytest.approx(math.log(16.0), abs=1e-14)


def test_distance_symmetric_positive():
    rng = np.random.default_rng(RNG_SEED + 1)
    ps, qs = np.array([(_random_half_space(rng), _random_half_space(rng)) for _ in range(200)]).transpose(1, 0, 2)
    d = _distance(ps, qs, HALF_SPACE)
    assert np.all(d >= 0.0)
    np.testing.assert_allclose(d, _distance(qs, ps, HALF_SPACE), rtol=0.0, atol=1e-13)
    assert np.all(_distance(ps, ps, HALF_SPACE) == 0.0)


def test_distance_model_invariance():
    rng = np.random.default_rng(RNG_SEED + 2)
    ps, qs = np.array([(_random_half_space(rng), _random_half_space(rng)) for _ in range(500)]).transpose(1, 0, 2)
    d1 = _distance(ps, qs, HALF_SPACE)
    d2 = _distance(_invert(ps), _invert(qs), BALL)
    d3 = _distance(_invert(_invert(ps)), qs, HALF_SPACE)  # p carried to the ball and back
    assert max(np.abs(d1 - d2).max(), np.abs(d1 - d3).max()) <= 1e-9


def test_triangle_inequality_sweep():
    rng = np.random.default_rng(RNG_SEED + 3)
    p, q, r = np.array([[_random_half_space(rng) for _ in range(3)] for _ in range(300)]).transpose(1, 0, 2)
    assert np.all(_distance(p, q, HALF_SPACE) <= _distance(p, r, HALF_SPACE) + _distance(r, q, HALF_SPACE) + 1e-10)


# ---------------------------------------------------------------------------
# Busemann functions


def test_busemann_at_infinity_is_height_log():
    p, q = [1.0, 2.0, 0.25], [-3.0, 0.5, 4.0]
    assert _busemann1(None, p, q) == pytest.approx(math.log(16.0), abs=1e-14)


def test_busemann_matches_distance_limit():
    # B_xi(p, q) = lim d(p, x) - d(q, x) as x -> xi along the geodesic
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(25):
        p, q = _random_half_space(rng), _random_half_space(rng)
        u = rng.normal(size=2)
        x = [*u, 1e-9]
        approx = _distance1(p, x) - _distance1(q, x)
        assert _busemann1(u, p, q) == pytest.approx(approx, abs=1e-6)


def test_busemann_cocycle_and_bound():
    rng = np.random.default_rng(RNG_SEED + 5)
    pts, us, at_inf = [], [], []
    for _ in range(300):
        pts.append([_random_half_space(rng) for _ in range(3)])
        at_inf.append(rng.uniform() >= 0.8)
        us.append(np.zeros(2) if at_inf[-1] else _random_boundary(rng))
    p, q, r = np.array(pts).transpose(1, 0, 2)
    us, at_inf = np.array(us), np.array(at_inf)
    b_pq = _busemann(us, at_inf, p, q)
    assert np.all(np.abs(b_pq + _busemann(us, at_inf, q, r) - _busemann(us, at_inf, p, r)) <= 1e-10)
    assert np.all(np.abs(b_pq) <= _distance(p, q, HALF_SPACE) + 1e-10)
    assert np.all(_busemann(us, at_inf, p, p) == 0.0)


# ---------------------------------------------------------------------------
# Gromov products and boundary metrics


def test_gromov_product_z_independent():
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(200):
        xi, eta = _random_boundary(rng), _random_boundary(rng)
        if np.array_equal(xi, eta):
            continue
        base = _random_half_space(rng)
        ref = -math.log(_bourdon1(xi, eta, base))
        for s in (0.2, 0.5, 0.9):
            z = _geodesic_point(_row(xi), _row(eta), np.array([s]))[0]
            assert _gromov1(xi, eta, base, z) == pytest.approx(ref, abs=1e-10)


def test_bourdon_is_sine_of_half_angle_at_origin():
    rng = np.random.default_rng(RNG_SEED + 7)
    xi, eta = np.array([[v / np.linalg.norm(v) for v in (rng.normal(size=3), rng.normal(size=3))]
                        for _ in range(500)]).transpose(1, 0, 2)
    angle = _spherical(xi, eta)
    keep = angle >= 1e-8
    worst = np.abs(_disk_bourdon(xi[keep], eta[keep]) - np.sin(0.5 * angle[keep])).max()
    assert worst <= 1e-9


def test_bourdon_triangle_inequality():
    rng = np.random.default_rng(RNG_SEED + 8)
    xi, eta, zeta = np.array([[_random_boundary(rng) for _ in range(3)] for _ in range(200)]).transpose(1, 0, 2)
    o, finite = np.broadcast_to([0.0, 0.0, 1.0], (200, 3)), np.zeros(200, dtype=bool)
    lhs = _bourdon(xi, finite, eta, finite, o)
    rhs = _bourdon(xi, finite, zeta, finite, o) + _bourdon(zeta, finite, eta, finite, o)
    assert np.all(lhs <= rhs + 1e-10)


def test_spherical_metric_is_the_angle():
    xi, eta = _row([1.0, 0.0]), _row([0.0, 1.0])
    assert _spherical(xi, eta)[0] == pytest.approx(math.pi / 2.0)
    assert _spherical(xi, xi)[0] == 0.0


# ---------------------------------------------------------------------------
# parabolic groups


def test_group_validation():
    with pytest.raises(ValueError):
        ParabolicGroupSpec(3, 2, np.array([[1.0, 0.0], [2.0, 0.0]]))  # dependent
    ParabolicGroupSpec(3, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))  # independent: accepted


def _assert_certified(alphas, exact):
    # at or below the exact value, and sigma_min^2 within a few slacks e of it
    sigma = ParabolicGroupSpec(alphas.shape[1] + 1, alphas.shape[0], alphas).sigma_min
    _, slack, j = hyperbolic._gram_factor(alphas)  # the slack of the generators scaled by 2^-j
    assert sigma <= exact
    assert exact ** 2 - mpmath.mpf(sigma) ** 2 <= 8 * math.ldexp(slack, 2 * j)


def test_sigma_min_is_a_certified_lower_bound():
    # numpy's SVD value lies above the 50-digit value for about half of these matrices
    rng = np.random.default_rng(RNG_SEED + 21)
    shapes = [(1, 2), (2, 2), (2, 3), (3, 3)] * 100 + [(5, 5), (8, 9), (12, 12), (16, 16), (16, 20)]
    for rank, dim in shapes:
        alphas = rng.normal(size=(rank, dim))
        with mpmath.workdps(50):
            _assert_certified(alphas, min(mpmath.svd_r(mpmath.matrix(alphas.tolist()), compute_uv=False)))


@pytest.mark.parametrize("alphas, exact", [
    (np.eye(2), 1), (np.eye(3), 1), (np.eye(128), 1), (np.eye(128)[::-1] * 0.125, mpmath.mpf(0.125)),
    (np.diag(np.arange(1.0, 129.0))[np.random.default_rng(RNG_SEED).permutation(128)], 1),
    (np.hstack([3.0 * np.eye(64), np.zeros((64, 64))]), 3),
], ids=["eye2", "eye3", "eye128", "reversed-eighth128", "permuted-diagonal128", "padded-3x64"])
def test_sigma_min_of_groups_with_a_known_value(alphas, exact):
    # a float certificate cannot prove equality: sigma_min is at most the exact value, within the slack
    _assert_certified(alphas, mpmath.mpf(exact))


def test_sigma_min_steps_down_from_a_high_estimate():
    # the start 1 + 1e-9 fails, and the shift backs off by doubling steps until a factor exists
    assert 1.0 - 3e-9 <= hyperbolic._certified_sigma_min(np.eye(2), 1.0 + 1e-9) <= 1.0
    slack = hyperbolic._gram_factor(np.eye(2))[1]
    # no back-off: sigma_min^2 = (1 - e) - e, rounded down
    assert 1.0 - 3 * slack <= hyperbolic._certified_sigma_min(np.eye(2), 1.0) ** 2 <= 1.0
    assert hyperbolic._certified_sigma_min(np.array([[1.0, 1.0]]), 0.0) == 0.0
    assert hyperbolic._certified_sigma_min(np.array([[1.0, 0.0], [1.0, 0.0]]), 1e-300) == 0.0


def test_gram_factor_fails_on_an_indefinite_shift():
    assert hyperbolic._gram_factor(np.eye(2), 1.0)[0] is None
    upper, slack, j = hyperbolic._gram_factor(np.array([[1.0, 0.0], [0.3, 0.9]]))
    assert j == 0
    assert np.allclose(upper.T @ upper, [[1.0, 0.3], [0.3, 0.9]], rtol=0, atol=4 * slack)


@pytest.mark.parametrize("scale", [1e200, 1e-150, 2.0 ** 512, 2.0 ** -455, 1e-100])
def test_groups_build_at_any_scale(scale):
    # the factor works on the generators scaled into [1, 2): no Gram overflow (nor its numpy
    # RuntimeWarning, an error in this suite), and no slack under the underflow floor
    upper, slack, j = hyperbolic._gram_factor(np.array([[scale]]))
    assert 1.0 <= upper[0, 0] < 2.0 and math.ldexp(1.0, j) <= scale < math.ldexp(2.0, j)
    assert scale * (1 - 1e-15) <= ParabolicGroupSpec(2, 1, [[scale]]).sigma_min <= scale


@pytest.mark.parametrize("j", [-900, -455, -40, -3, 3, 40, 512, 900])
def test_scaling_a_group_by_a_power_of_two_scales_its_certificate_and_counts(j):
    alphas = np.array([[1.0, 0.0], [0.3, 0.9]])
    group, scaled = ParabolicGroupSpec(3, 2, alphas), ParabolicGroupSpec(3, 2, np.ldexp(alphas, j))
    assert scaled.sigma_min == math.ldexp(group.sigma_min, j)
    # lattice norms (N = (5, -2) and (3, 1)) and one ulp either side, where the count is decided exactly
    lengths = []
    for n in ([5.0, -2.0], [3.0, 1.0]):
        norm = float(np.linalg.norm(np.array(n) @ alphas))
        lengths += [math.nextafter(norm, 0.0), norm, math.nextafter(norm, math.inf)]
    assert poincare._ellipsoid_counts(scaled, [math.ldexp(x, j) for x in lengths]) == \
        poincare._ellipsoid_counts(group, lengths)


def test_translate_is_isometry_and_fixes_infinity():
    rng = np.random.default_rng(RNG_SEED + 9)
    g = ParabolicGroupSpec(3, 2, np.array([[1.0, 0.3], [0.0, 0.8]]))
    pts, coeffs = [], []
    for _ in range(200):
        pts.append((_random_half_space(rng), _random_half_space(rng)))
        coeffs.append(rng.integers(-5, 6, size=2))
    p, q = np.array(pts).transpose(1, 0, 2)
    shift = np.array(coeffs, dtype=float) @ g.alphas
    gp, gq = _translate(p, shift), _translate(q, shift)
    np.testing.assert_allclose(_distance(gp, gq, HALF_SPACE), _distance(p, q, HALF_SPACE), rtol=0.0, atol=1e-10)
    # heights are kept, so the horospheres about infinity and its Busemann function are too
    assert np.array_equal(gp[:, -1], p[:, -1])
    at_inf = np.ones(len(p), dtype=bool)
    assert np.array_equal(_busemann(np.zeros((len(p), 2)), at_inf, gp, gq),
                          _busemann(np.zeros((len(p), 2)), at_inf, p, q))


def test_translate_acts_on_ball_points_as_an_isometry():
    # a translation of the ball is the half-space translation conjugated by the model swap
    g = ParabolicGroupSpec(3, 2, np.array([[1.0, 0.3], [0.0, 0.8]]))
    p, q = _row([0.1, -0.2, 0.3]), _row([-0.5, 0.4, 0.0])
    shift = _row([2, -1]) @ g.alphas
    gp, gq = (_invert(_translate(_invert(x), shift)) for x in (p, q))
    assert np.linalg.norm(gp) < 1.0 and np.linalg.norm(gq) < 1.0
    assert _distance(gp, gq, BALL)[0] == pytest.approx(_distance(p, q, BALL)[0], rel=1e-12)
    # the ball image is the half-space translate carried back
    np.testing.assert_allclose(_invert(gp), _translate(_invert(p), shift), rtol=1e-12)


def test_orbit_distance_closed_form():
    g = ParabolicGroupSpec(3, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    o = _row([0.0, 0.0, 1.0])
    for coeffs in ([1, 0], [2, 3], [-4, 1]):
        shift = _row(coeffs) @ g.alphas
        direct = float(_distance(o, _translate(o, shift), HALF_SPACE)[0])
        assert float(_orbit_distance(shift)[0]) == pytest.approx(direct, abs=1e-12)
        assert direct == pytest.approx(2.0 * math.asinh(np.linalg.norm(shift) / 2.0), abs=1e-13)


def test_parabolic_orbit_counts_and_errors():
    g1 = ParabolicGroupSpec(2, 1, np.array([[1.0]]))
    cloud = parabolic_orbit(g1, [0.0], 100)
    assert cloud.kind == "sphere"
    assert cloud.count == 201  # includes the orbit of xi under N = 0
    np.testing.assert_allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-12)
    g2 = ParabolicGroupSpec(3, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert parabolic_orbit(g2, [0.0, 0.0], 7).count == 15 ** 2
    # the lattice cap is checked before any point is allocated
    with pytest.raises(ValueError, match="above the cap"):
        parabolic_orbit(g2, [0.0, 0.0], 10**6)
    # a group this large builds, but |u|^2 of its plane points overflows (no nan rows, no warning)
    with pytest.raises(ValueError, match="overflow the map to the sphere"):
        parabolic_orbit(ParabolicGroupSpec(2, 1, [[2.0 ** 512]]), [0.0], 1)


def test_orbit_gaps_track_orbit_distance():
    # consecutive orbit points on the boundary sphere separate like
    # e^{-d(o, N o)}: both decay as 1/N^2
    g = ParabolicGroupSpec(2, 1, np.array([[1.0]]))
    xi = _row([0.0])
    for n in (50, 200, 1000):
        a, b = (_plane_to_sphere(_translate(xi, _row([k]) @ g.alphas)) for k in (n, n + 1))
        ratio = _spherical(a, b)[0] / math.exp(-_orbit_distance(_row([n]) @ g.alphas)[0])
        assert 0.5 <= ratio <= 8.0


# ---------------------------------------------------------------------------
# validation of the public entry points: every documented error, with its message


G1 = ParabolicGroupSpec(2, 1, [[1.0]])


@pytest.mark.parametrize("call, error, message", [
    (lambda: ParabolicGroupSpec(1, 1, [[1.0]]), ValueError, "ambient dimension must be >= 2"),
    (lambda: ParabolicGroupSpec(3, 1, [[1.0]]),
     ValueError, "need 1 translation vectors of length 2, got shape (1, 1)"),
    (lambda: parabolic_orbit(G1, [0.0], 0), ValueError, "radius must be >= 1"),
    (lambda: parabolic_orbit(G1, [math.nan], 1), ValueError, "coordinates must be finite"),
    (lambda: parabolic_orbit(G1, [0.0, 0.0], 1), ValueError, "boundary point dimension does not match the group"),
    (lambda: parabolic_orbit(G1, [], 1), ValueError, "boundary point dimension does not match the group"),
    (lambda: ParabolicGroupSpec(2, 0, [[1.0]]), ValueError, "rank must lie in [1, ambient-1]"),
    (lambda: ParabolicGroupSpec(3, 3, np.eye(3)), ValueError, "rank must lie in [1, ambient-1]"),
    (lambda: ParabolicGroupSpec(2, 1, [[1.0, 2.0]]),
     ValueError, "need 1 translation vectors of length 1, got shape (1, 2)"),
    (lambda: ParabolicGroupSpec(3, 2, [[1.0, 0.0], [2.0, 0.0]]),
     ValueError, "translation vectors must be linearly independent"),
    (lambda: ParabolicGroupSpec(3, 2, [[1.0, 0.0], [0.0, 0.0]]),
     ValueError, "translation vectors must be linearly independent"),
    # independent in exact arithmetic, but sigma_min^2 is below the slack of its float certificate
    (lambda: ParabolicGroupSpec(3, 2, [[1.0, 0.0], [1.0, 1e-13]]),
     ValueError, "translation vectors must be linearly independent"),
    (lambda: ParabolicGroupSpec(3, 2, [[1.0, 0.0], [1.0, 1e-8]]),
     ValueError, "translation vectors must be linearly independent"),
    (lambda: parabolic_orbit(G1, [0.0], -5), ValueError, "radius must be >= 1"),
    (lambda: parabolic_orbit(G1, [math.inf], 1), ValueError, "coordinates must be finite"),
    (lambda: parabolic_orbit(G1, [[0.0]], 1), ValueError, "boundary point dimension does not match the group"),
    (lambda: parabolic_orbit(ParabolicGroupSpec(3, 2, np.eye(2)), [0.0, 0.0], 10**6),
     ValueError, "lattice cube has 4000004000001 points, above the cap 20000000"),
    (lambda: identity_suite(0, np.random.default_rng(0)), ValueError, "trials must be >= 1"),
])
def test_group_and_orbit_validation(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# kernels against 50-digit references, and their edge cases


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
            ref = _mp_acosh1p(_mp_norm2(p - q) / (2 * mpmath.mpf(p[-1]) * q[-1]))
            _close(_distance1(p, q), ref)
            b, c = _random_ball(rng), _random_ball(rng)
            diff = [mpmath.mpf(float(s)) - float(t) for s, t in zip(b, c)]
            ref = _mp_acosh1p(2 * _mp_norm2(diff) / ((1 - _mp_norm2(b)) * (1 - _mp_norm2(c))))
            _close(_distance1(b, c, BALL), ref)


def test_busemann_matches_mpmath():
    rng = np.random.default_rng(RNG_SEED + 21)
    with mpmath.workdps(50):
        for _ in range(200):
            p, q = _random_half_space(rng), _random_half_space(rng)
            _close(_busemann1(None, p, q), mpmath.log(mpmath.mpf(q[-1]) / p[-1]))
            xi = _random_boundary(rng)
            ball_xi = [float(c) for c in _plane_to_sphere(_row(xi))[0]]
            ref = _mp_busemann_ball(ball_xi, _mp_invert(p), _mp_invert(q))
            _close(_busemann1(xi, p, q), ref, rel=1e-11)
            # ball-model inputs, carried to the half-space by the model swap
            b, c = _random_ball(rng), _random_ball(rng)
            v = rng.normal(size=3)
            eta = v / np.linalg.norm(v)
            value = _busemann(*_sphere_to_plane(_row(eta)), _invert(_row(b)), _invert(_row(c)))[0]
            _close(value, _mp_busemann_ball(eta, b, c), rel=1e-11)


def test_gromov_product_matches_mpmath():
    rng = np.random.default_rng(RNG_SEED + 22)
    with mpmath.workdps(50):
        for _ in range(200):
            base = _random_half_space(rng)
            xi, eta = _random_boundary(rng), _random_boundary(rng)
            ref = _mp_gromov(xi, eta, base)
            _close(-math.log(_bourdon1(xi, eta, base)), ref, rel=1e-11)
            z = _geodesic_point(_row(xi), _row(eta), np.array([rng.uniform(0.1, 0.9)]))[0]
            _close(_gromov1(xi, eta, base, z), ref, rel=1e-11)
            ref = _mp_gromov(xi, None, base)
            _close(-math.log(_bourdon1(xi, None, base)), ref, rel=1e-11)
            # the geodesic from infinity to xi is the vertical line over xi
            s = rng.uniform(0.1, 0.9)
            _close(_gromov1(None, xi, base, [*xi, s / (1.0 - s)]), ref, rel=1e-11)


def test_bourdon_metric_matches_mpmath():
    # the closed form against e^{-(u|v)_o} at 50 digits, at random bases in H^2 and H^3
    rng = np.random.default_rng(RNG_SEED + 23)
    with mpmath.workdps(50):
        for ambient in (2, 3) * 100:
            base = _random_half_space(rng, ambient)
            xi, eta = _random_boundary(rng, ambient), _random_boundary(rng, ambient)
            for a, b, v in ((xi, eta, eta), (xi, None, None), (None, xi, None)):
                ref = mpmath.exp(-_mp_gromov(xi, v, base))
                assert abs(_bourdon1(a, b, base) - float(ref)) <= 1e-12 * float(ref), (a, b, base)


@pytest.mark.parametrize("u, v, base, metric", [
    # a geodesic of radius 5e-13, whose highest point is far below 1e-12, seen from 5 away
    (0.0, 1e-12, (5.0, 1e-3), 4.0e-17),
    # |u - v|^2 = 1e-400 underflows, the metric does not
    (0.0, 1e-200, (0.0, 1.0), 1e-200),
    # the metric 5e-324 / 101 underflows to 0
    (0.0, 5e-324, (10.0, 1.0), 0.0),
])
def test_boundary_metric_at_extreme_scales(u, v, base, metric):
    with mpmath.workdps(50):
        ref = _mp_gromov([u], [v], base)
        assert _bourdon1([u], [v], base) == pytest.approx(float(mpmath.exp(-ref)), rel=1e-14)
    assert _bourdon1([u], [v], base) == pytest.approx(metric, rel=1e-3)


@pytest.mark.parametrize("angle", [1e-8, 1e-12, math.pi / 2.0, math.pi - 1e-9])
def test_spherical_metric_is_accurate_at_every_angle(angle):
    a, b = np.array([1.0, 0.0]), np.array([math.cos(angle), math.sin(angle)])
    with mpmath.workdps(50):
        # the exact angle between the two float vectors
        exact = float(mpmath.atan2(mpmath.mpf(a[0]) * b[1] - mpmath.mpf(a[1]) * b[0],
                                   mpmath.mpf(a[0]) * b[0] + mpmath.mpf(a[1]) * b[1]))
    value = _spherical(_row(a), _row(b))[0]
    assert abs(value - exact) <= 4.0 * math.ulp(exact), (value, exact)


def test_kernel_edge_cases():
    base = [0.0, 1.0]
    # equal ends, both at infinity or both finite, are at Bourdon distance 0
    for a, b in ((None, None), ([0.5], [0.5])):
        assert _bourdon1(a, b, base) == 0.0
    # only a point at height 0 reaches it
    with pytest.raises(ValueError, match="denominator"):
        _busemann1([0.5], [0.5, 0.0], base)
    assert acosh1p(-1e-13) == 0.0
    for bad in (-1e-11, np.array([0.0, -0.5])):
        with pytest.raises(ValueError, match="u >= 0"):
            acosh1p(bad)
    assert acosh1p(np.array([0.0, 1.5]))[1] == acosh1p(1.5) == math.acosh(2.5)
    # 1 + v_n <= 1e-12 maps to infinity, exactly at -e_n and just beside it
    for v in ([0.0, -1.0], [1e-7, -math.cos(1e-7)]):
        south = _row(v)
        assert _sphere_to_plane(south)[1][0]
        # sin of half the angle between the two points, whose cosine is -0.8
        assert _disk_bourdon(south, _row([0.6, 0.8]))[0] == pytest.approx(math.sqrt(0.9), abs=1e-14)


def _each_row(kernel, *args):
    """kernel called on one row of every array argument at a time, the results stacked."""
    count = len(next(a for a in args if isinstance(a, np.ndarray)))
    return np.array([kernel(*(a[i:i + 1] if isinstance(a, np.ndarray) else a for a in args))[0]
                     for i in range(count)])


def _row_by_row_errors(trials, rng):
    """Per-trial errors of the nine identities, drawn as identity_suite draws, with every
    kernel called on one row at a time."""

    def interior(count, ambient):
        return np.column_stack([rng.normal(0.0, 2.0, size=(count, ambient - 1)),
                                np.exp(rng.normal(0.0, 0.7, size=count))])

    def circle(count):
        return np.array([[math.cos(a), math.sin(a)] for a in rng.uniform(0.0, 2.0 * math.pi, size=count)])

    def distance(p, q):
        return _each_row(_distance, p, q, HALF_SPACE)

    xs, ys = circle(trials), circle(trials)
    pts = interior(3 * trials, 3)
    us = rng.normal(0.0, 2.0, size=(trials, 2))
    bases = interior(trials, 2)
    starts, widths = rng.normal(0.0, 3.0, trials), rng.normal(0.0, 2.0, trials)
    params = rng.uniform(0.15, 0.85, size=(trials, 2))
    horo = rng.uniform(0.01, 50.0, size=(trials, 1))
    triple = interior(3 * trials, 3)
    pairs = interior(2 * trials, 2)
    shifts = rng.integers(-40, 41, size=(trials, 1)) @ ParabolicGroupSpec(2, 1, [[1.0]]).alphas
    zs = circle(trials)

    errors = []
    keep = ~np.all(xs == ys, axis=1)
    x, y = xs[keep], ys[keep]
    errors.append(np.abs(_each_row(_disk_bourdon, x, y)
                         - np.array([math.sin(0.5 * a) for a in _each_row(_spherical, x, y)])))
    p, q, r = pts[0::3], pts[1::3], pts[2::3]
    xi_inf = np.arange(trials) % 2 == 0
    b_pq = _each_row(_busemann, us, xi_inf, p, q)
    errors.append(np.abs(b_pq + _each_row(_busemann, us, xi_inf, q, r) - _each_row(_busemann, us, xi_inf, p, r)))
    errors.append(np.maximum(np.abs(b_pq) - distance(p, q), 0.0))
    u, v = starts[:, None], (starts + np.abs(widths) + 1e-3)[:, None]
    finite = np.zeros(1, dtype=bool)
    g1, g2 = (_each_row(lambda a, b, o, s: _gromov(a, finite, b, finite, o, _geodesic_point(a, b, s)),
                        u, v, bases, np.sort(params, axis=1)[:, k]) for k in (0, 1))
    errors.append(np.abs(g1 - g2))
    errors.append(np.abs(_each_row(lambda h: _distance(_row([0.0, 1.0]), np.hstack([h, [[1.0]]]), HALF_SPACE), horo)
                         - _each_row(_orbit_distance, horo)))
    p, q, r = triple[0::3], triple[1::3], triple[2::3]
    errors.append(np.maximum(distance(p, q) - distance(p, r) - distance(r, q), 0.0))
    p, q = pairs[0::2], pairs[1::2]
    errors.append(np.abs(_each_row(lambda a, b, s: _distance(_translate(a, s), _translate(b, s), HALF_SPACE),
                                   p, q, shifts) - distance(p, q)))
    keep = ~(np.all(xs == zs, axis=1) | np.all(ys == zs, axis=1))
    x, y, z = xs[keep], ys[keep], zs[keep]
    errors.append(np.maximum(_each_row(_disk_bourdon, x, y)
                             - (_each_row(_disk_bourdon, x, z) + _each_row(_disk_bourdon, z, y)), 0.0))
    p, q = pts[:trials], pts[trials:2 * trials]
    errors.append(np.abs(_each_row(lambda a, b: _distance(_invert(a), _invert(b), BALL), p, q) - distance(p, q)))
    return errors


def test_identity_suite_matches_kernels_row_by_row():
    # many small samples: a max error is a few ulps, so one large sample hides changed inputs
    for seed, trials in [(7, 300), *((seed, 12) for seed in range(12))]:
        records = identity_suite(trials, np.random.default_rng(seed))
        errors = _row_by_row_errors(trials, np.random.default_rng(seed))
        assert len(records) == len(errors) == 9
        for rec, errs in zip(records, errors):
            expected = int(np.sum(errs <= rec["tolerance"])), errs.size, float(errs.max(initial=0.0))
            assert (rec["passed"], rec["total"], rec["max_error"]) == expected, (seed, rec["name"])
    with pytest.raises(ValueError, match="trials"):
        identity_suite(0, np.random.default_rng(0))
