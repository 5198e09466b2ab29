"""Constant-curvature hyperbolic space H^n, its boundary, and parabolic actions.

Each formula is one private numpy kernel over (N, n) coordinate rows (column
products and sums and `math` calls, no BLAS), so a row gets the bits of a scalar
evaluation on every CPU.  Two models appear: the upper half-space
{x in R^n : x_n > 0} with base point o = (0, ..., 0, 1), and the unit ball with
base point 0.  The inversion J(x) = -e_n + 2(x + e_n)/|x + e_n|^2 is an involution
exchanging the models and the base points; on the boundary it restricts to the
stereographic pair u -> (2u, 1 - |u|^2)/(1 + |u|^2) and infinity -> -e_n.

Busemann functions use the convention
    B_xi(p, q) = lim_t [d(p, alpha(t)) - d(q, alpha(t))],  alpha(t) -> xi,
so B is positive when q sits deeper toward xi than p.  The Bourdon metric
e^{-(xi|eta)_o} is one closed form in the half-space,
e^{-(u|v)_o} = |u - v| o_n / (|o - u| |o - v|) (Bourdon, "Structure conforme au
bord et flot geodesique d'un CAT(-1)-espace", 1995); the Busemann form of the
Gromov product at any point of the connecting geodesic gives the same value.

The public entry points are the parabolic groups (horizontal translations of
the half-space fixing infinity), the orbit of a boundary point mapped to the
ball-model sphere for box-counting, and `identity_suite`, which checks the
kernels against each other on random inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxdim import PointCloud
from .numerics import _U, _down, _gamma, _libm, _up, acosh1p

__all__ = ["ParabolicGroupSpec", "parabolic_orbit", "identity_suite"]

HALF_SPACE = "upper-half-space"
BALL = "ball"
_MODEL_TOL = 1e-12
# largest lattice cube (2 radius + 1)^rank that one enumeration may build, or number of ellipsoid rows it may walk
_ENUMERATION_CAP = 20_000_000


# ---------------------------------------------------------------------------
# array kernels, each formula once, on (N, n) rows; a boundary row u has a flag at_inf (its
# row is then unread).  Through _libm and _dot each row gets the bits of a scalar evaluation.


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b as column products summed left to right (a BLAS dot's rounding varies by CPU)."""
    total = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        total += a[..., k] * b[..., k]
    return total


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
    if not np.all(np.isfinite(nn)):
        raise ValueError("plane points beyond about 1e154 overflow the map to the sphere")
    scale = np.divide(1.0, np.add(1.0, nn), out=np.empty_like(nn))
    out = np.empty((len(u), u.shape[1] + 1))
    for column, target in zip(u.T, out.T):  # a 1-d pass per column beats a 2-d broadcast of scale
        np.multiply(np.multiply(column, 2.0, out=target), scale, out=target)
    np.multiply(np.subtract(1.0, nn, out=nn), scale, out=out[:, -1])
    return out


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


def _norm(rows: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean norm; each row is scaled by its largest |entry| first, so no square
    underflows or overflows."""
    columns = np.abs(rows).T
    scale = columns[0].copy()
    for column in columns[1:]:
        np.maximum(scale, column, out=scale)
    unit = rows / np.where(scale > 0.0, scale, 1.0)[:, None]
    return scale * np.sqrt(_dot(unit, unit))


def _geodesic_point(u: np.ndarray, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Point of the geodesic between the finite ends u != v at parameter s: at angle pi*(1-s)
    on the semicircle over [u, v]."""
    out = np.empty((len(s), u.shape[1] + 1))
    chord = v - u
    radius = 0.5 * np.sqrt(_dot(chord, chord))
    theta = math.pi * (1.0 - s)
    e = chord / (2.0 * radius)[:, None]
    out[:, :-1] = 0.5 * (u + v) + (radius * _libm(math.cos, theta))[:, None] * e
    out[:, -1] = radius * _libm(math.sin, theta)
    return out


def _gromov(u, u_inf, v, v_inf, base: np.ndarray, z: np.ndarray) -> np.ndarray:
    return 0.5 * (_busemann(u, u_inf, base, z) + _busemann(v, v_inf, base, z))


def _bourdon(u, u_inf, v, v_inf, base: np.ndarray) -> np.ndarray:
    """e^{-(u|v)_p} = |u - v| p_n / (|p - u| |p - v|) at the base p, the ends at height 0.

    An end at infinity drops its two factors (p_n / |p - u| with one such end, 0 with two),
    and equal ends give 0.  Evaluated as (|u - v| / far) (p_n / near), near <= far the
    distances from p to the ends (inf for an end at infinity): neither quotient overflows,
    and swapping u and v keeps every bit.
    """
    px, pn = base[:, :-1], base[:, -1:]
    uv, pu, pv = _norm(u - v), _norm(np.hstack([px - u, pn])), _norm(np.hstack([px - v, pn]))
    pu, pv = np.where(u_inf, np.inf, pu), np.where(v_inf, np.inf, pv)
    return np.where(u_inf | v_inf, 1.0, uv / np.maximum(pu, pv)) * (base[:, -1] / np.minimum(pu, pv))


def _spherical(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between unit rows, 2 atan2(|a - b|, |a + b|): acos of a . b loses every digit
    of angles below about 1e-8."""
    return 2.0 * _libm(math.atan2, _norm(a - b), _norm(a + b))


def _orbit_distance(shift: np.ndarray) -> np.ndarray:
    """d(o, o + shift) = 2 arcsinh(|shift| / 2) for horizontal shift rows, o the base point."""
    return 2.0 * _libm(math.asinh, 0.5 * np.sqrt(_dot(shift, shift)))


def _translate(x: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Shift the first shift.shape[1] coordinates of each row (the horizontal part)."""
    out = x.copy()
    out[:, :shift.shape[1]] += shift
    return out


def _gram_factor(alphas: np.ndarray, shift: float = 0.0) -> tuple[np.ndarray | None, float, int]:
    """(U, e, j) for the generators a = 2^-j alphas, j chosen so that max |a_il| lies in [1, 2) (exact
    barring subnormals), so fl(G) neither overflows nor underflows past the slack at any scale: U is
    the upper float Cholesky factor of fl(G) - shift I, diagonal rounded down (None if it fails), G =
    a a^T (k x d), and e >= ||G - shift I - U^T U||_2, the sum of, with gamma_n = n u / (1 - n u) and
    T >= tr fl(G): the Gram rounding, gamma_d || |a| |a|^T ||_2 <= gamma_d ||a||_F^2 <= gamma_d T /
    (1 - gamma_d); and the factor's backward error, U^T U = M + D with |D| <= gamma_(k+1) |U^T| |U| for
    the factored M, so ||D||_2 <= gamma_(k+1) tr(M + D) <= gamma_(k+1) T / (1 - gamma_(k+1)) in any
    summation order (Rump, "Verification of positive definiteness", BIT 46 (2006)).  Both are at most
    n u T / (1 - 2 n u), n = d + k + 1.  Underflow, in the products or in scaling a subnormal entry,
    adds at most 4 k (k + d + 1) 2^-1074, inside the rounding-up margin of e >= 3u (T >= 1).
    """
    j = int(np.frexp(np.abs(alphas).max())[1]) - 1
    scaled = np.ldexp(alphas, -j)
    gram = scaled @ scaled.T
    n = sum(alphas.shape) + 1
    # T: the float trace widened by gamma_(k-1), the error of a float sum of k nonnegative terms in any order
    # (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed., 4.2)
    trace = _up(float(np.diag(gram).sum()), max(_gamma(alphas.shape[0] - 1), 4.0 * _U))
    slack = _up(n * _U / (1.0 - 2.0 * n * _U) * trace, 4.0 * _U)
    if shift:
        np.fill_diagonal(gram, np.nextafter(np.diag(gram) - shift, -np.inf))
    try:
        return np.linalg.cholesky(gram).T, slack, j
    except np.linalg.LinAlgError:
        return None, slack, j


def _certified_sigma_min(alphas: np.ndarray, estimate: float) -> float:
    """A lower bound for the least singular value of alphas: if fl(G) - cI has a float Cholesky
    factor, sigma_min^2 >= 4^j (c - e) (`_gram_factor`, G and c in its scaled units).  c starts at
    (2^-j estimate)^2 - e and backs off by 2e, 4e, ...; 0 once c <= e, or if fl(G) itself, which
    `poincare` counts with, has no factor."""
    factor, slack, j = _gram_factor(alphas)
    estimate = math.ldexp(estimate, -j)
    step = slack
    while factor is not None and estimate * estimate - step > slack:
        if _gram_factor(alphas, estimate * estimate - step)[0] is not None:
            return math.ldexp(_down(math.sqrt(_down(estimate * estimate - step - slack))), j)
        step *= 2.0
    return 0.0


@dataclass(frozen=True, eq=False)
class ParabolicGroupSpec:
    """Rank-k group of horizontal translations of the upper half-space H^n.

    Generators translate by linearly independent vectors alpha_1..alpha_k of
    the boundary plane R^{n-1} (independent as certified by `_certified_sigma_min`);
    every element fixes infinity and preserves the horospheres x_n = const.
    """

    ambient: int
    rank: int
    alphas: np.ndarray
    sigma_min: float = field(init=False, repr=False)  # certified from below
    sigma_max: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.ambient < 2:
            raise ValueError("ambient dimension must be >= 2")
        if not 1 <= self.rank <= self.ambient - 1:
            raise ValueError("rank must lie in [1, ambient-1]")
        alphas = np.atleast_2d(np.array(self.alphas, dtype=float))
        if alphas.shape != (self.rank, self.ambient - 1):
            raise ValueError(f"need {self.rank} translation vectors of length {self.ambient - 1}, "
                             f"got shape {alphas.shape}")
        sing = np.linalg.svd(alphas, compute_uv=False)
        sigma_min = _certified_sigma_min(alphas, float(sing[-1]))
        if sigma_min == 0.0:
            raise ValueError("translation vectors must be linearly independent")
        alphas.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "sigma_min", sigma_min)
        object.__setattr__(self, "sigma_max", float(sing[0]))


def _cube_points(rank: int, radius: int) -> int:
    """(2 radius + 1)^rank, the points N in Z^rank with |N|_inf <= radius, if within the cap."""
    if (total := (2 * radius + 1) ** rank) > _ENUMERATION_CAP:
        raise ValueError(f"lattice cube has {total} points, above the cap {_ENUMERATION_CAP}")
    return total


def _lattice_grid(rank: int, radius: int, lead: range | None = None) -> np.ndarray:
    """All N in Z^rank with |N|_inf <= radius, lexicographic order; with `lead`, only the N whose N_1
    lies in it.  The cap applies to the whole cube either way."""
    _cube_points(rank, radius)
    axes = [np.arange(-radius, radius + 1, dtype=np.int64)] * rank
    axes[0] = axes[0] if lead is None else np.array(lead, dtype=np.int64)
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1)


def parabolic_orbit(group: ParabolicGroupSpec, xi, radius: int) -> PointCloud:
    """Orbit {N.xi : |N|_inf <= radius} of the boundary-plane point xi as a ball-model sphere cloud.

    The plane points xi + sum N_i alpha_i are pushed to the unit sphere by
    u -> (2u, 1-|u|^2)/(1+|u|^2); the cloud accumulates at the image -e_n of
    the fixed point.  The label records the build.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError("coordinates must be finite")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if xi.shape != (group.ambient - 1,):
        raise ValueError("boundary point dimension does not match the group")
    pts = _lattice_grid(group.rank, radius).astype(float) @ group.alphas
    pts += xi  # the plane points xi + sum N_i alpha_i, in one buffer
    # rebinding frees the plane rows before the cloud checks its unit vectors
    pts = _plane_to_sphere(pts)
    label = f"parabolic-orbit(ambient={group.ambient}, rank={group.rank}, radius={radius})"
    return PointCloud(pts, "sphere", label)


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
                                rng.lognormal(0.0, 0.7, size=count)])

    def circle(count):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
        return np.column_stack([_libm(math.cos, angles), _libm(math.sin, angles)])

    xs, ys = circle(trials), circle(trials)
    pts = interior(3 * trials, 3)
    us = rng.normal(0.0, 2.0, size=(trials, 2))
    bases = interior(trials, 2)
    chords = np.column_stack([rng.normal(0.0, 3.0, trials), rng.normal(0.0, 2.0, trials),
                              rng.uniform(0.15, 0.85, size=(trials, 2))])
    horo = rng.uniform(0.01, 50.0, size=(trials, 1))
    triple = interior(3 * trials, 3)
    pairs = interior(2 * trials, 2)
    shifts = rng.integers(-40, 41, size=(trials, 1))
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
    at_inf = np.zeros(trials, dtype=bool)
    g1, g2 = (_gromov(u, at_inf, v, at_inf, bases, _geodesic_point(u, v, s[:, k])) for k in (0, 1))
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
