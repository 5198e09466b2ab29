"""Deterministic summation and numerically stable scalar helpers.

Reductions in this package must not depend on how their terms are chunked,
so every series total is accumulated exactly and rounded once.  The exact sum
first splits the terms by error-free extraction (Rump, Ogita and Oishi,
"Accurate floating-point summation part I: faithful rounding", SIAM J. Sci.
Comput. 31(1), 2008): three levels of fl(sigma + r) - sigma, each of whose
float sums is exact, leave a residual below n units of the last level, and
the total is certified when both ends of that range round to one float.
Otherwise (ties, heavy cancellation) math.fsum decides it.  The
hyperbolic distance formulas need arccosh(1 + u) evaluated without
cancellation for small u.  Certified power-sum tails need the Hurwitz zeta
function with an error bound (Euler-Maclaurin; Johansson, "Rigorous
high-precision computation of the Hurwitz zeta function and its
derivatives", arXiv:1309.2877).
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "compensated_sum",
    "acosh1p",
    "hurwitz_zeta",
]

# Arrays below this size go straight to math.fsum, which takes under 0.1 ms there.
_KERNEL_MIN_TERMS = 2048
# fsum raises when an intermediate partial overflows, which depends on term
# order.  Below this bound no partial of fewer than 2^63 terms can overflow,
# so the extraction only sums terms below it and leaves the rest, inf and nan
# to fsum itself.
_KERNEL_MAX_ABS = 2.0 ** 900


def _scaled(m: int, u: int) -> float:
    """m * 2^u rounded once, half to even (int true division and float(int) round correctly)."""
    return m / (1 << -u) if u < 0 else float(m << u)


# the extraction levels run over blocks of this many terms, so that the block
# and its two work arrays stay in cache
_EXTRACT_BLOCK = 1 << 15


def _extract_total(arr: np.ndarray, top: float) -> float | None:
    """The correctly rounded sum of finite terms with max |x| = top, or None if undecided.

    With 2^e > top and n < 2^g, sigma_j = 2^(e + g - j (53 - g)) for j = 0, 1, 2.
    Each level's q = fl(sigma_j + r) - sigma_j is exact, a multiple of
    2^-53 sigma_j with |q| <= 2^-g sigma_j, so any float sum of n of them is
    exact; r - q is the rounding error, at most 2^-53 sigma_j, which is
    2^-g sigma_(j+1).  After three levels the integer total T of the level
    sums, in units of 2^-53 sigma_2, is within n units of the exact sum.
    If T - n and T + n round to the same float, so does the sum; if they do
    not (ties, heavy cancellation) or a unit is below 2^-1074, it is None.
    """
    n = arr.size
    g = (n + 2).bit_length()
    e = math.frexp(top)[1]
    unit = e + g - 2 * (53 - g) - 53
    if unit < -1074:
        return None
    sigmas = [2.0 ** (e + g - j * (53 - g)) for j in range(3)]
    sums = [0.0, 0.0, 0.0]
    q = np.empty(min(n, _EXTRACT_BLOCK))
    r = np.empty_like(q)
    for start in range(0, n, _EXTRACT_BLOCK):
        x = arr[start:start + _EXTRACT_BLOCK]
        qk, rk = q[:x.size], r[:x.size]
        for j, sigma in enumerate(sigmas):
            np.add(x, sigma, out=qk)
            qk -= sigma
            sums[j] += qk.sum()
            if j < 2:
                x = np.subtract(x, qk, out=rk)
    total = sum(int(math.ldexp(s, -unit)) for s in sums)
    low = _scaled(total - n, unit)
    return low if low == _scaled(total + n, unit) else None


def compensated_sum(values: np.ndarray) -> float:
    """Sum an array to the correctly rounded float64 total.

    Error-free extraction decides most totals (`_extract_total`), with the
    bits math.fsum gives; the totals it leaves undecided, small arrays, inf,
    nan and terms near overflow go to math.fsum itself.  The total is exact
    before its one rounding, so it is a pure function of the multiset of
    values: callers may produce `values` in any chunk order and still obtain
    bit-identical totals.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size >= _KERNEL_MIN_TERMS and (top := max(arr.max(), -arr.min())) < _KERNEL_MAX_ABS:
        extracted = _extract_total(arr, float(top))
        if extracted is not None:
            return extracted
    return math.fsum(arr.tolist())


def _libm(fn, x: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """fn from `math` on every element of x (and of each array in `more`, of x's shape, as
    further arguments): numpy's SIMD log, exp, atan2, ... differ from libm in the last bit
    for some inputs, depending on the CPU."""
    args = (a.ravel().tolist() for a in (x, *more))
    return np.fromiter(map(fn, *args), float, x.size).reshape(x.shape)


def acosh1p(u):
    """arccosh(1 + u) for u >= 0 without cancellation near u = 0, on a float or an array.

    u in (-1e-12, 0) is roundoff from distance quadratic forms and gives 0.
    """
    arr = np.asarray(u, dtype=float)
    if (arr <= -1e-12).any():
        raise ValueError(f"acosh1p needs u >= 0, got {float(arr.min())}")
    arr = np.where(arr < 0.0, 0.0, arr)
    out = _libm(math.log1p, arr + np.sqrt(arr * (arr + 2.0)))
    return float(out) if out.ndim == 0 else out


# unit roundoff, and the smallest subnormal: the absolute error of one rounding below the
# normal range is at most half of it
_U = 2.0 ** -53
_TINY = 2.0 ** -1074
# libm pow, log and exp are within 1 ulp (relative 2u); twice that is budgeted
_LIBM_ERR = 4.0 * _U
# B_2j / (2j)! for j = 1..16, each correctly rounded (relative error <= u/2)
_EM_COEFFS = (
    1.0 / 12.0, -1.0 / 720.0, 3.306878306878307e-05, -8.267195767195768e-07,
    2.08767569878681e-08, -5.284190138687493e-10, 1.3382536530684679e-11, -3.3896802963225827e-13,
    8.586062056277845e-15, -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24, -5.744790668872202e-26,
)


def _up(x: float, rel: float = 0.0) -> float:
    """An upper bound for X >= 0 from x with |x - X| <= rel X, 4u <= rel <= 1/8;
    rel = 0 means that x is X rounded to nearest once."""
    return math.nextafter(x * (1.0 + 2.0 * rel), math.inf)


def _down(x: float, rel: float = 0.0) -> float:
    """A lower bound (>= 0) for X >= 0 from x, under the assumptions of _up."""
    return max(0.0, math.nextafter(x * (1.0 - 2.0 * rel), -math.inf))


def _em_tail(s: float, x: float) -> tuple[float, float]:
    """sum_{k >= 0} (x + k)^-s by Euler-Maclaurin at x, with an absolute error bound.

    The tail is x^(1-s) times S = 1/(s-1) + 1/(2x) + sum_j B_2j/(2j)! (s)_(2j-1) x^-2j;
    x^-s is completely monotone, so the remainder after any term is at most the
    first omitted term (Johansson 2015).  Terms are added until one is below u
    relative to 1/(s-1); the table covers that for x >= 12 and x >= 0.6 s + 8.
    The bound takes x as exact, as the base a + k of an integer a is.
    """
    p = x ** (1.0 - s)
    inv2 = 1.0 / x
    inv2 *= inv2
    scaled = [1.0 / (s - 1.0), 0.5 / x]
    errs = [_U * scaled[0], _U * scaled[1]]
    f = s * inv2  # (s)_(2j-1) x^-2j
    for j, c in enumerate(_EM_COEFFS, 1):
        term = c * f
        if abs(term) <= _U * scaled[0] or j == len(_EM_COEFFS):
            omitted = abs(term) * (1.0 + (8 * j + 1) * _U)
            break
        scaled.append(term)
        # inv2 carries 3u, and each step multiplies it in with five roundings: <= 8u per term
        errs.append(8 * j * _U * abs(term))
        f *= (s + (2 * j - 1)) * inv2
        f *= s + 2 * j
    total = math.fsum(scaled)
    size = math.fsum(map(abs, scaled)) + omitted
    err = (p * (math.fsum(errs) + omitted + _U * size)
           + (_LIBM_ERR + _U) * p * size
           # p may be subnormal or 0 (pow error <= 2^-1074), and the product may round there
           + 2.0 * _TINY * size + _TINY)
    return p * total, err


def hurwitz_zeta(s: float, a: float) -> tuple[float, float]:
    """The Hurwitz zeta function sum_{k >= 0} (a + k)^-s, enclosed in [lo, hi] rounded outward.

    For real s > 1 and integer a >= 1, so every base a + k is exact.  Terms (a + k)^-s below the
    shift max(12, ceil(0.6 s) + 8) are summed exactly with math.fsum; the rest
    is the Euler-Maclaurin tail, whose remainder is at most its first omitted
    Bernoulli term.  The error bound adds that remainder to a rounding
    budget for every pow, product and sum (1 ulp per libm call budgeted as 2,
    u per rounding, 2^-1074 per result below the normal range), so the
    value is within a few ulps and hi never falls below the exact sum, even
    when the value underflows.
    """
    s, a = float(s), float(a)
    if not (math.isfinite(s) and s > 1.0 and a.is_integer() and a >= 1.0):
        raise ValueError(f"hurwitz_zeta needs finite s > 1 and integer a >= 1, got s={s}, a={a}")
    shift = max(12, math.ceil(0.6 * s) + 8)
    parts, errs = [], []
    k = 0
    while a + k < shift:
        x = a + k
        h = x ** -s
        if h == 0.0:
            # x^-s < 2^-1074, and the rest is at most x^-s (1 + x/(s-1))
            errs.append(2.0 * _TINY * (1.0 + x / (s - 1.0)))
            break
        parts.append(h)
        errs.append(_LIBM_ERR * h + _TINY)
        k += 1
    else:
        tail, err = _em_tail(s, a + k)
        parts.append(tail)
        errs.append(err)
    value = math.fsum(parts)
    errs += [_U * value, _TINY]
    # each error term is a product of a few rounded factors: 16u covers their rounding
    bound = _up(math.fsum(errs), 16.0 * _U)
    return _down(value - bound), _up(value + bound)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), which bounds the relative error of a float sum of k + 1 nonnegative terms."""
    return k * _U / (1.0 - k * _U)


def _sum_enclosure(values: np.ndarray) -> tuple[float, float]:
    """Floats lo <= P <= hi around the exact sum P of an array of nonnegative terms.

    One np.sum: adding n nonnegative floats in any order, numpy's pairwise
    order included, lands within gamma_(n-1) P of P, gamma_k = k u / (1 - k u)
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed., 4.2),
    and the float sum is widened outward by that much.  An inf or nan sum
    gives inf or nan ends.
    """
    rel = max(_gamma(values.size - 1), 4.0 * _U)
    total = float(values.sum())
    return _down(total, rel), _up(total, rel)
