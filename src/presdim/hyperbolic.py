"""Constant-curvature hyperbolic space H^n, its boundary, and parabolic actions.

Two models are supported and converted freely: the upper half-space
{x in R^n : x_n > 0} with base point o = (0, ..., 0, 1), and the unit ball
with base point 0.  The conversion is the inversion J(x) = -e_n +
2(x + e_n)/|x + e_n|^2, an involution exchanging the models and the base
points; on the boundary it restricts to the stereographic pair
u -> (2u, 1 - |u|^2)/(1 + |u|^2) and infinity -> -e_n.

Busemann functions use the convention
    B_xi(p, q) = lim_t [d(p, alpha(t)) - d(q, alpha(t))],  alpha(t) -> xi,
so B is positive when q sits deeper toward xi than p.  Gromov products are
computed at the closest point of the connecting geodesic, which the Busemann
cocycle identity makes equal to the value at any other point of the geodesic.

Only parabolic isometries are implemented: horizontal translations of the
half-space fixing infinity.  Orbits of boundary points map to the ball-model
sphere for box-counting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxdim import PointCloud
from .numerics import _U, _libm, acosh1p

__all__ = [
    "HALF_SPACE",
    "BALL",
    "HyperbolicPoint",
    "BoundaryPoint",
    "ParabolicGroupSpec",
    "TriangleComparisonReport",
    "half_space_point",
    "ball_point",
    "base_point",
    "boundary_plane_point",
    "boundary_infinity",
    "boundary_sphere_point",
    "to_ball",
    "to_half_space",
    "distance",
    "busemann",
    "gromov_product",
    "point_on_boundary_geodesic",
    "bourdon_metric",
    "spherical_metric",
    "translate",
    "orbit_distance",
    "parabolic_orbit",
    "comparison_triangle_check",
    "identity_suite",
]

HALF_SPACE = "upper-half-space"
BALL = "ball"
_MODEL_TOL = 1e-12


def _readonly(arr) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class HyperbolicPoint:
    """Interior point of H^n in one of the two models."""

    model: str
    coords: np.ndarray

    def __post_init__(self):
        coords = _readonly(self.coords)
        if coords.ndim != 1 or coords.size < 2:
            raise ValueError("hyperbolic points need at least 2 coordinates")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        if self.model == HALF_SPACE:
            if coords[-1] <= _MODEL_TOL:
                raise ValueError("half-space points need a positive last coordinate")
        elif self.model == BALL:
            if np.dot(coords, coords) >= 1.0 - _MODEL_TOL:
                raise ValueError("ball points must have norm < 1")
        else:
            raise ValueError(f"unknown model {self.model!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def ambient(self) -> int:
        return self.coords.size

    @property
    def height(self) -> float:
        if self.model != HALF_SPACE:
            raise ValueError("height is a half-space notion")
        return float(self.coords[-1])

    @property
    def horizontal(self) -> np.ndarray:
        if self.model != HALF_SPACE:
            raise ValueError("horizontal part is a half-space notion")
        return self.coords[:-1]


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """Point of the boundary sphere of H^n.

    Half-space model: a point u of the boundary plane R^{n-1}, or infinity.
    Ball model: a unit vector of R^n.
    """

    model: str
    coords: np.ndarray | None = None
    at_infinity: bool = False

    def __post_init__(self):
        if self.model == HALF_SPACE:
            if self.at_infinity:
                if self.coords is not None:
                    raise ValueError("infinity carries no coordinates")
                return
            coords = _readonly(self.coords)
            if coords.ndim != 1 or coords.size < 1:
                raise ValueError("boundary plane points need at least 1 coordinate")
        elif self.model == BALL:
            if self.at_infinity:
                raise ValueError("the ball model has no infinity flag")
            coords = _readonly(self.coords)
            if coords.ndim != 1 or coords.size < 2:
                raise ValueError("ball boundary points need at least 2 coordinates")
            if abs(np.dot(coords, coords) - 1.0) > _MODEL_TOL:
                raise ValueError("ball boundary points must be unit vectors")
        else:
            raise ValueError(f"unknown model {self.model!r}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "coords", coords)

    @property
    def ambient(self) -> int:
        if self.model == BALL:
            return self.coords.size
        if self.at_infinity:
            raise ValueError("infinity does not determine the dimension")
        return self.coords.size + 1


def half_space_point(coords) -> HyperbolicPoint:
    return HyperbolicPoint(HALF_SPACE, np.asarray(coords, dtype=float))


def ball_point(coords) -> HyperbolicPoint:
    return HyperbolicPoint(BALL, np.asarray(coords, dtype=float))


def base_point(model: str, ambient: int) -> HyperbolicPoint:
    """Reference point o: (0, ..., 0, 1) in the half-space, 0 in the ball."""
    if ambient < 2:
        raise ValueError("ambient dimension must be >= 2")
    coords = np.zeros(ambient)
    if model == HALF_SPACE:
        coords[-1] = 1.0
    return HyperbolicPoint(model, coords)


def boundary_plane_point(u) -> BoundaryPoint:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return BoundaryPoint(HALF_SPACE, u)


def boundary_infinity() -> BoundaryPoint:
    return BoundaryPoint(HALF_SPACE, None, at_infinity=True)


def boundary_sphere_point(v) -> BoundaryPoint:
    return BoundaryPoint(BALL, np.asarray(v, dtype=float))


# ---------------------------------------------------------------------------
# array kernels, each formula once, on (N, n) rows; a boundary row u has a flag at_inf (its
# row is then unread).  Through _libm and _dot each row gets the bits of a scalar evaluation.


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b, rounded as np.dot of two vectors (einsum, sum(axis=1) round differently)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _invert(x: np.ndarray) -> np.ndarray:
    """J(x) = -e_n + 2(x + e_n)/|x + e_n|^2, the model-swapping involution."""
    y = x.copy()
    y[:, -1] += 1.0
    y *= (2.0 / _dot(y, y))[:, None]
    y[:, -1] -= 1.0
    return y


def _sphere_to_plane(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows to (plane rows, at_inf); rows with 1 + v_n <= tol go to infinity."""
    denom = 1.0 + v[:, -1]
    at_inf = denom <= _MODEL_TOL
    return v[:, :-1] / np.where(at_inf, 1.0, denom)[:, None], at_inf


def _plane_to_sphere(u: np.ndarray) -> np.ndarray:
    """u -> (2u, 1 - |u|^2)/(1 + |u|^2) on rows of the boundary plane."""
    nn = np.einsum("ij,ij->i", u, u)
    scale = 1.0 / (1.0 + nn)
    return np.column_stack([2.0 * u * scale[:, None], (1.0 - nn) * scale])


def _distance(x: np.ndarray, y: np.ndarray, model: str) -> np.ndarray:
    diff = x - y
    d2 = _dot(diff, diff)
    if model == HALF_SPACE:
        return acosh1p(d2 / (2.0 * x[:, -1] * y[:, -1]))
    return acosh1p(2.0 * d2 / ((1.0 - _dot(x, x)) * (1.0 - _dot(y, y))))


def _busemann(u: np.ndarray, at_inf: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    if at_inf.all():
        return _libm(math.log, q[:, -1] / p[:, -1])
    if at_inf.any():
        # mixed rows: each kind on its own (the per-row arithmetic is the same)
        out = np.empty(len(p))
        for rows in (at_inf, ~at_inf):
            out[rows] = _busemann(u[rows], at_inf[rows], p[rows], q[rows])
        return out
    pn, qn = p[:, -1], q[:, -1]
    dp, dq = p[:, :-1] - u, q[:, :-1] - u
    np2, nq2 = _dot(dp, dp) + pn * pn, _dot(dq, dq) + qn * qn
    if np.any(np2 == 0.0) or np.any(nq2 == 0.0):
        raise ValueError("Busemann denominator vanishes at the boundary point")
    return _libm(math.log, np2 / pn) - _libm(math.log, nq2 / qn)


def _same_boundary(u, u_inf, v, v_inf) -> np.ndarray:
    return (u_inf & v_inf) | (~u_inf & ~v_inf & np.all(u == v, axis=1))


def _frame(u, u_inf, v, v_inf):
    """Rows on vertical lines (an end at infinity) with their foot, and the
    center, radius and unit direction of the other (arc) rows' semicircles.

    line and arc select the rows; when every row is of one kind they are
    slices, so no boolean-mask copies are made.
    """
    line = u_inf | v_inf
    if line.all():
        line, arc = slice(None), slice(0, 0)
    elif not line.any():
        line, arc = slice(0, 0), slice(None)
    else:
        arc = ~line
    chord = v[arc] - u[arc]
    radius = 0.5 * np.sqrt(_dot(chord, chord))
    foot = np.where(u_inf[:, None], v, u)[line]
    return line, arc, foot, 0.5 * (u[arc] + v[arc]), radius, chord / (2.0 * radius)[:, None]


def _closest_on_geodesic(u, u_inf, v, v_inf, p: np.ndarray) -> np.ndarray:
    """Closest point of the geodesic (u, v) to p, all in the half-space.

    Vertical line over u (an end at infinity): cosh d is least at height |p - (u, 0)|.
    Semicircle with center c, radius R, direction e: with beta = (p_x - c) . e and
    A = |p_x - c|^2 + R^2 + p_n^2, the least cosh d is at cos(theta*) = 2 R beta / A,
    which lies in (-1, 1) for interior p.
    """
    out = np.empty(p.shape)
    px, pn = p[:, :-1], p[:, -1]
    line, arc, foot, c, radius, e = _frame(u, u_inf, v, v_inf)
    du = px[line] - foot
    out[line, :-1] = foot
    out[line, -1] = np.sqrt(_dot(du, du) + pn[line] * pn[line])
    w = px[arc] - c
    cos_t = 2.0 * radius * _dot(w, e) / (_dot(w, w) + radius * radius + pn[arc] * pn[arc])
    out[arc, :-1] = c + (radius * cos_t)[:, None] * e
    out[arc, -1] = radius * np.sqrt(np.maximum(1.0 - cos_t * cos_t, 0.0))
    if np.any(out[:, -1] <= _MODEL_TOL):
        raise ValueError("half-space points need a positive last coordinate")
    return out


def _geodesic_point(u, u_inf, v, v_inf, s: np.ndarray) -> np.ndarray:
    """Point of the geodesic (u, v) at parameter s: angle pi*(1-s) or height s/(1-s)."""
    out = np.empty((len(s), u.shape[1] + 1))
    line, arc, foot, c, radius, e = _frame(u, u_inf, v, v_inf)
    out[line, :-1] = foot
    out[line, -1] = s[line] / (1.0 - s[line])
    theta = math.pi * (1.0 - s[arc])
    out[arc, :-1] = c + (radius * _libm(math.cos, theta))[:, None] * e
    out[arc, -1] = radius * _libm(math.sin, theta)
    return out


def _gromov(u, u_inf, v, v_inf, base: np.ndarray, z: np.ndarray) -> np.ndarray:
    return 0.5 * (_busemann(u, u_inf, base, z) + _busemann(v, v_inf, base, z))


def _bourdon(u, u_inf, v, v_inf, base: np.ndarray) -> np.ndarray:
    out = np.zeros(len(u))
    k = ~_same_boundary(u, u_inf, v, v_inf)
    ends = (u[k], u_inf[k], v[k], v_inf[k])
    z = _closest_on_geodesic(*ends, base[k])
    out[k] = _libm(math.exp, -_gromov(*ends, base[k], z))
    return out


def _spherical(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _libm(math.acos, np.clip(_dot(a, b), -1.0, 1.0))


def _orbit_distance(shift: np.ndarray) -> np.ndarray:
    """d(o, o + shift) = 2 arcsinh(|shift| / 2) for horizontal shift rows, o the base point."""
    return 2.0 * _libm(math.asinh, 0.5 * np.sqrt(_dot(shift, shift)))


def _translate(x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Shift the first shift.shape[1] coordinates of each row (the horizontal part)."""
    out = x.copy()
    out[:, :shift.shape[1]] += shift
    return out


# ---------------------------------------------------------------------------
# object API: validation, then the kernels on a batch of one


def _convert(obj, model: str):
    if not isinstance(obj, (HyperbolicPoint, BoundaryPoint)):
        raise TypeError("expected a HyperbolicPoint or BoundaryPoint")
    if obj.model == model:
        return obj
    if isinstance(obj, HyperbolicPoint):
        return HyperbolicPoint(model, _invert(obj.coords[None])[0])
    if model == HALF_SPACE:
        u, at_inf = _sphere_to_plane(obj.coords[None])
        return boundary_infinity() if at_inf[0] else BoundaryPoint(HALF_SPACE, u[0])
    if obj.at_infinity:
        raise ValueError("converting infinity needs an ambient dimension; "
                         "use boundary_sphere_point on -e_n directly")
    return BoundaryPoint(BALL, _plane_to_sphere(obj.coords[None])[0])


def to_half_space(obj):
    """Convert a point or boundary point to the half-space model."""
    return _convert(obj, HALF_SPACE)


def to_ball(obj):
    """Convert a point or boundary point to the ball model."""
    return _convert(obj, BALL)


def _boundary_rows(dim: int, *points: BoundaryPoint) -> list[np.ndarray]:
    """(u, at_inf) per boundary point, each a half-space batch of one in R^dim."""
    rows = []
    for xi in map(to_half_space, points):
        if not xi.at_infinity and xi.coords.size != dim:
            raise ValueError("boundary point dimension mismatch")
        rows += [np.zeros((1, dim)) if xi.at_infinity else xi.coords[None], np.array([xi.at_infinity])]
    return rows


def distance(p: HyperbolicPoint, q: HyperbolicPoint) -> float:
    """Hyperbolic distance; models are aligned automatically.

    Half-space: arccosh(1 + |p-q|^2 / (2 p_n q_n)); ball:
    arccosh(1 + 2|p-q|^2 / ((1-|p|^2)(1-|q|^2))).  Both evaluate through
    acosh1p for full relative accuracy at small separations.
    """
    if p.ambient != q.ambient:
        raise ValueError("points live in different dimensions")
    model, convert = (BALL, to_ball) if p.model == q.model == BALL else (HALF_SPACE, to_half_space)
    return float(_distance(convert(p).coords[None], convert(q).coords[None], model)[0])


def busemann(xi: BoundaryPoint, p: HyperbolicPoint, q: HyperbolicPoint) -> float:
    """B_xi(p, q) = lim_t [d(p, alpha(t)) - d(q, alpha(t))] with alpha -> xi.

    Closed forms in the half-space: log(q_n/p_n) for xi = infinity, and
    log[(|p-u|^2/p_n) * (q_n/|q-u|^2)] for a finite boundary point u (the
    norms taken in R^n with u embedded at height 0).  Ball-model inputs are
    converted first.  B is a cocycle in (p, q) and bounded by distance.
    """
    if p.ambient != q.ambient:
        raise ValueError("points live in different dimensions")
    u, at_inf = _boundary_rows(p.ambient - 1, xi)
    return float(_busemann(u, at_inf, to_half_space(p).coords[None], to_half_space(q).coords[None])[0])


def point_on_boundary_geodesic(xi: BoundaryPoint, eta: BoundaryPoint, s: float) -> HyperbolicPoint:
    """A half-space point of the geodesic (xi, eta), parameterized by s in (0,1).

    Semicircles use the angle theta = pi*(1-s); vertical lines the height
    s/(1-s).  Intended for z-independence checks of the Gromov product.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie strictly between 0 and 1")
    finite = [b.coords.size for b in map(to_half_space, (xi, eta)) if not b.at_infinity]
    ends = _boundary_rows(finite[0] if finite else 1, xi, eta)
    if _same_boundary(*ends)[0]:
        raise ValueError("boundary points coincide; no geodesic")
    return HyperbolicPoint(HALF_SPACE, _geodesic_point(*ends, np.array([float(s)]))[0])


def gromov_product(xi: BoundaryPoint, eta: BoundaryPoint, base: HyperbolicPoint,
                   z: HyperbolicPoint | None = None) -> float:
    """(xi|eta)_base = [B_xi(base, z) + B_eta(base, z)] / 2.

    z defaults to the closest point of the geodesic (xi, eta) to the base;
    the value does not depend on which point of the geodesic is used (an
    exact consequence of the Busemann cocycle), so callers may pass any
    other z from point_on_boundary_geodesic to cross-check.
    """
    base_h = to_half_space(base).coords[None]
    ends = _boundary_rows(base_h.shape[1] - 1, xi, eta)
    if _same_boundary(*ends)[0]:
        raise ValueError("boundary points coincide; the Gromov product is +infinity")
    z_h = _closest_on_geodesic(*ends, base_h) if z is None else to_half_space(z).coords[None]
    return float(_gromov(*ends, base_h, z_h)[0])


def bourdon_metric(xi: BoundaryPoint, eta: BoundaryPoint, base: HyperbolicPoint) -> float:
    """Boundary metric e^{-(xi|eta)_base}; 0 for equal points.

    With the ball origin as base this takes values in [0, 1] and equals
    sin of half the angle subtended at the origin.
    """
    base_h = to_half_space(base).coords[None]
    return float(_bourdon(*_boundary_rows(base_h.shape[1] - 1, xi, eta), base_h)[0])


def spherical_metric(xi: BoundaryPoint, eta: BoundaryPoint) -> float:
    """Angle metric on the ball boundary: arccos of the dot product."""
    if xi.model != BALL or eta.model != BALL:
        raise ValueError("the spherical metric needs ball-model boundary points")
    if xi.coords.size != eta.coords.size:
        raise ValueError("boundary point dimension mismatch")
    return float(_spherical(xi.coords[None], eta.coords[None])[0])


def _is_psd(m: list[list[Fraction]]) -> bool:
    """Exact test that a symmetric matrix is positive semidefinite, by elimination.

    A negative pivot fails; a zero pivot needs the rest of its column to be zero.
    """
    m = [row[:] for row in m]
    for i, row in enumerate(m):
        if row[i] < 0 or (row[i] == 0 and any(row[i + 1:])):
            return False
        if row[i] == 0:
            continue
        for lower in m[i + 1:]:
            f = lower[i] / row[i]
            lower[i + 1:] = [a - f * b for a, b in zip(lower[i + 1:], row[i + 1:])]
    return True


def _certified_sigma_min(alphas: np.ndarray, estimate: float) -> float:
    """The least singular value of alphas rounded down: `estimate` if it passes, else
    the first value below it that does.

    s passes when G - s^2 I is positive semidefinite in exact rationals, with
    G = alphas alphas^T the Gram matrix, which proves s <= sigma_min.  A failing
    s steps down by one ulp, then by doubling relative steps; s = 0 always passes.
    """
    rows = [[Fraction(x) for x in row] for row in alphas.tolist()]
    gram = [[sum(a * b for a, b in zip(r, c)) for c in rows] for r in rows]
    s, step = estimate, 0.0
    while not _is_psd([[g - (Fraction(s) ** 2 if i == j else 0) for j, g in enumerate(row)]
                       for i, row in enumerate(gram)]):
        s = math.nextafter(s * (1.0 - step * _U), 0.0)
        step = max(1.0, 2.0 * step)
    return s


@dataclass(frozen=True, eq=False)
class ParabolicGroupSpec:
    """Rank-k group of horizontal translations of the upper half-space H^n.

    Generators translate by linearly independent vectors alpha_1..alpha_k of
    the boundary plane R^{n-1}; every element fixes infinity and preserves
    the horospheres x_n = const.
    """

    ambient: int
    rank: int
    alphas: np.ndarray

    def __post_init__(self):
        if self.ambient < 2:
            raise ValueError("ambient dimension must be >= 2")
        if not 1 <= self.rank <= self.ambient - 1:
            raise ValueError("rank must lie in [1, ambient-1]")
        alphas = np.array(self.alphas, dtype=float)
        alphas = np.atleast_2d(alphas)
        if alphas.shape != (self.rank, self.ambient - 1):
            raise ValueError(
                f"need {self.rank} translation vectors of length {self.ambient - 1}, "
                f"got shape {alphas.shape}"
            )
        sing = np.linalg.svd(alphas, compute_uv=False)
        if sing.size < self.rank or sing[self.rank - 1] <= 1e-12 * max(1.0, sing[0]):
            raise ValueError("translation vectors must be linearly independent")
        alphas.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "_sigma_min", _certified_sigma_min(alphas, float(sing[self.rank - 1])))
        object.__setattr__(self, "_sigma_max", float(sing[0]))

    @property
    def sigma_min(self) -> float:
        return self._sigma_min

    @property
    def sigma_max(self) -> float:
        return self._sigma_max

    @property
    def fixed_point(self) -> BoundaryPoint:
        return boundary_infinity()

    def displacement(self, coeffs) -> np.ndarray:
        """Translation vector sum_i coeffs_i alpha_i in the boundary plane."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.rank,):
            raise ValueError(f"need {self.rank} coefficients")
        return coeffs @ self.alphas


def translate(group: ParabolicGroupSpec, coeffs, obj):
    """Apply the group element with lattice coordinates coeffs.

    Acts on interior points (any model; the model is preserved) and on
    boundary points; infinity is fixed.
    """
    v = group.displacement(coeffs)[None]
    if not isinstance(obj, (HyperbolicPoint, BoundaryPoint)):
        raise TypeError("expected a HyperbolicPoint or BoundaryPoint")
    if obj.model == BALL:
        return to_ball(translate(group, coeffs, to_half_space(obj)))
    if isinstance(obj, BoundaryPoint):
        if obj.at_infinity:
            return obj
        if obj.coords.size != group.ambient - 1:
            raise ValueError("boundary point dimension does not match the group")
    elif obj.ambient != group.ambient:
        raise ValueError("point dimension does not match the group")
    return type(obj)(HALF_SPACE, _translate(obj.coords[None], v)[0])


def orbit_distance(group: ParabolicGroupSpec, coeffs) -> float:
    """d(o, N.o) = 2 arcsinh(|sum_i N_i alpha_i| / 2) at the base o."""
    return float(_orbit_distance(group.displacement(coeffs)[None])[0])


def _lattice_grid(rank: int, radius: int) -> np.ndarray:
    """All N in Z^rank with |N|_inf <= radius, lexicographic order."""
    axes = [np.arange(-radius, radius + 1, dtype=np.int64)] * rank
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1)


def parabolic_orbit(group: ParabolicGroupSpec, xi: BoundaryPoint, radius: int) -> PointCloud:
    """Orbit {N.xi : |N|_inf <= radius} as a ball-model sphere cloud.

    The plane points xi + sum N_i alpha_i are pushed to the unit sphere by
    u -> (2u, 1-|u|^2)/(1+|u|^2); the cloud accumulates at the image -e_n of
    the fixed point.  Points are deduplicated; the label records the build.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    xi = to_half_space(xi)
    if xi.at_infinity:
        raise ValueError("xi is fixed by P")
    if xi.coords.size != group.ambient - 1:
        raise ValueError("boundary point dimension does not match the group")
    lattice = _lattice_grid(group.rank, radius).astype(float)
    plane = xi.coords[None, :] + lattice @ group.alphas
    label = f"parabolic-orbit(ambient={group.ambient}, rank={group.rank}, radius={radius})"
    return PointCloud(_plane_to_sphere(plane), "sphere", label)


@dataclass(frozen=True)
class TriangleComparisonReport:
    """Reverse-triangle slack of a geodesic triangle with a wide angle.

    slack = d(x,y) - d(z,x) - d(z,y) is always <= 0; when the angle at z is
    at least D the slack is bounded below by -C(D) with
    C(D) = 2 log(2 / (1 - cos D)).  The asymptotically exact constant (long
    sides) is log(2/(1-cos D)); the reported C doubles it, a documented
    sufficient margin rather than a sharp one.
    """

    side_xy: float
    side_zx: float
    side_zy: float
    angle_at_z: float
    min_angle: float
    slack: float
    constant: float
    passed: bool


def comparison_triangle_check(x: HyperbolicPoint, y: HyperbolicPoint,
                              z: HyperbolicPoint, min_angle: float) -> TriangleComparisonReport:
    """Check d(x,y) >= d(z,x) + d(z,y) - C at a vertex of angle >= min_angle.

    The angle at z comes from the hyperbolic law of cosines
    cos(angle) = (cosh a cosh b - cosh c) / (sinh a sinh b) with a = d(z,x),
    b = d(z,y), c = d(x,y).  Degenerate triangles (a side collapses) and
    angles below min_angle are rejected.
    """
    if not 0.0 < min_angle <= math.pi:
        raise ValueError("min_angle must lie in (0, pi]")
    a = distance(z, x)
    b = distance(z, y)
    c = distance(x, y)
    if min(a, b) < 1e-12:
        raise ValueError("degenerate triangle: a vertex pair coincides")
    cos_angle = (math.cosh(a) * math.cosh(b) - math.cosh(c)) / (math.sinh(a) * math.sinh(b))
    angle = math.acos(min(1.0, max(-1.0, cos_angle)))
    if angle < min_angle:
        raise ValueError(f"angle at z is {angle:.6f}, below the required {min_angle:.6f}")
    slack = c - a - b
    constant = 2.0 * math.log(2.0 / (1.0 - math.cos(min_angle)))
    return TriangleComparisonReport(
        side_xy=c, side_zx=a, side_zy=b, angle_at_z=angle, min_angle=min_angle,
        slack=slack, constant=constant, passed=slack >= -constant,
    )


def identity_suite(trials: int, rng: np.random.Generator) -> list[dict]:
    """Check nine identities of this module on `trials` random inputs each.

    One record per identity: name, tolerance, total (trials checked; coincident
    boundary points are skipped), passed (within tolerance) and max_error.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    results = []

    def record(name, tolerance, errors):
        worst = float(errors.max()) if errors.size else 0.0
        results.append({"name": name, "passed": int(np.sum(errors <= tolerance)), "total": errors.size,
                        "tolerance": tolerance, "max_error": worst})

    def interior(count, ambient):
        return np.column_stack([rng.normal(0.0, 2.0, size=(count, ambient - 1)),
                                np.exp(rng.normal(0.0, 0.7, size=count))])

    def circle(count):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
        return np.column_stack([_libm(math.cos, angles), _libm(math.sin, angles)])

    xs, ys = circle(trials), circle(trials)
    pts = interior(3 * trials, 3)
    us = rng.normal(0.0, 2.0, size=(trials, 2))
    bases = interior(trials, 2)
    # per-trial draws: batched normals read the stream differently
    chords = np.array([(rng.normal(0.0, 3.0), rng.normal(0.0, 2.0), *rng.uniform(0.15, 0.85, size=2))
                       for _ in range(trials)])
    horo = rng.uniform(0.01, 50.0, size=(trials, 1))
    triple = interior(3 * trials, 3)
    pairs = interior(2 * trials, 2)
    # scalar draws: batched bounded integers read the stream differently
    shifts = np.array([[float(rng.integers(-40, 41))] for _ in range(trials)])
    zs = circle(trials)

    def disk_bourdon(a, b):
        origin = np.broadcast_to(_invert(np.zeros((1, 2))), a.shape)
        return _bourdon(*_sphere_to_plane(a), *_sphere_to_plane(b), origin)

    keep = ~np.all(xs == ys, axis=1)
    record("bourdon equals sine of half angle (disk)", 1e-9, np.abs(
        disk_bourdon(xs[keep], ys[keep]) - _libm(math.sin, 0.5 * _spherical(xs[keep], ys[keep]))))

    p, q, r = pts[0::3], pts[1::3], pts[2::3]
    xi_inf = np.arange(trials) % 2 == 0
    b_pq = _busemann(us, xi_inf, p, q)
    record("busemann cocycle", 1e-10,
           np.abs(b_pq + _busemann(us, xi_inf, q, r) - _busemann(us, xi_inf, p, r)))
    record("busemann bounded by distance", 1e-10, np.maximum(np.abs(b_pq) - _distance(p, q, HALF_SPACE), 0.0))

    u, v = chords[:, :1], chords[:, :1] + np.abs(chords[:, 1:2]) + 1e-3
    s = np.sort(chords[:, 2:], axis=1)
    line = np.zeros(trials, dtype=bool)
    g1, g2 = (_gromov(u, line, v, line, bases, _geodesic_point(u, line, v, line, s[:, k])) for k in (0, 1))
    record("gromov product independent of z", 1e-10, np.abs(g1 - g2))

    moved = _distance(np.array([[0.0, 1.0]]), np.hstack([horo, np.ones_like(horo)]), HALF_SPACE)
    record("arccosh distance equals 2 arcsinh on horospheres", 1e-12, np.abs(moved - _orbit_distance(horo)))

    p, q, r = triple[0::3], triple[1::3], triple[2::3]
    record("triangle inequality", 1e-10, np.maximum(
        _distance(p, q, HALF_SPACE) - _distance(p, r, HALF_SPACE) - _distance(r, q, HALF_SPACE), 0.0))

    shift = shifts @ ParabolicGroupSpec(2, 1, [[1.0]]).alphas
    p, q = pairs[0::2], pairs[1::2]
    record("parabolic isometry invariance", 1e-10, np.abs(
        _distance(_translate(p, shift), _translate(q, shift), HALF_SPACE) - _distance(p, q, HALF_SPACE)))

    keep = ~(np.all(xs == zs, axis=1) | np.all(ys == zs, axis=1))
    x, y, z = xs[keep], ys[keep], zs[keep]
    record("bourdon triangle inequality (disk)", 1e-10, np.maximum(
        disk_bourdon(x, y) - (disk_bourdon(x, z) + disk_bourdon(z, y)), 0.0))

    p, q = pts[:trials], pts[trials:2 * trials]
    record("model conversion preserves distance", 1e-9, np.abs(
        _distance(_invert(p), _invert(q), BALL) - _distance(p, q, HALF_SPACE)))
    return results
