"""Deterministic summation and numerically stable scalar helpers.

Reductions in this package must not depend on how their terms are chunked,
so every series total is accumulated exactly and rounded once.  The exact sum
bins each term by its binary exponent (a superaccumulator: Neal, "Fast exact
summation using small and large superaccumulators", arXiv:1505.05571):
within one exponent the terms are integers times a common power of two, and
numpy adds integers below 2^53 exactly.  The hyperbolic distance formulas
need arccosh(1 + u) evaluated without cancellation for small u.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "compensated_sum",
    "acosh1p",
]

# Below this size math.fsum over a list is faster than the binned kernel
# (measured crossover: 1.5k-3k terms).
_KERNEL_MIN_TERMS = 2048
# fsum raises when an intermediate partial overflows, which depends on term
# order.  Below this bound no partial of fewer than 2^63 terms can overflow,
# so the kernel only sums terms below it and leaves the rest, inf and nan to
# fsum itself.
_KERNEL_MAX_ABS = 2.0 ** 900
# frexp exponents of finite doubles lie in [-1073, 1024]; the bin of a term
# with exponent e is e + _EXP_OFFSET.
_EXP_OFFSET = 1073
_BINS = _EXP_OFFSET + 1025
# A term is m * 2^(e - 53) with m a signed integer, |m| < 2^53; adding and
# subtracting _SPLIT rounds m to h, a multiple of 2^27, and leaves |m - h| <= 2^26.
_SPLIT = 3.0 * 2.0 ** 78
_BLOCK = 1 << 14
# Each bin is spread over _LANES accumulators (by position mod _LANES), so
# runs of terms with one exponent do not wait on a single running total.
_LANES = 4
_BLOCK_INDEX = (np.arange(_BLOCK) % _LANES) * _BINS + _EXP_OFFSET
_BLOCK_INDEX.flags.writeable = False
# Float bin sums stay exact integers for up to 2^26 terms per bin.
_SPAN = 1 << 26


def _binned_total(arr: np.ndarray) -> int:
    """Exact sum of at most _SPAN finite terms, scaled by 2^(_EXP_OFFSET + 53)."""
    high = np.zeros(_LANES * _BINS)
    low = np.zeros(_LANES * _BINS)
    for start in range(0, arr.size, _BLOCK):
        m, e = np.frexp(arr[start:start + _BLOCK])
        m *= 2.0 ** 53
        h = m + _SPLIT
        h -= _SPLIT
        m -= h
        index = e.astype(np.intp)
        index += _BLOCK_INDEX[:index.size]
        high += np.bincount(index, weights=h, minlength=high.size)
        low += np.bincount(index, weights=m, minlength=low.size)
    high = high.reshape(_LANES, _BINS).sum(axis=0)
    low = low.reshape(_LANES, _BINS).sum(axis=0)
    total = 0
    for k in np.flatnonzero((high != 0.0) | (low != 0.0)).tolist():
        total += (int(high[k]) + int(low[k])) << k
    return total


def compensated_sum(values: np.ndarray) -> float:
    """Sum an array to the correctly rounded float64 total.

    The exact total is formed as one Python integer, scaled by a power of
    two: terms are binned by exponent, each bin adds the terms' 53-bit
    mantissas (split into two halves so that numpy's float adds stay
    exact), and the bins are folded together.  Integer true division then
    rounds it once, half to even, as math.fsum does; small arrays, inf, nan
    and terms near overflow go to math.fsum itself, and both paths return
    the same bits.  The total is exact before its one rounding, so it is a
    pure function of the multiset of values: callers may produce `values`
    in any chunk order and still obtain bit-identical totals.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < _KERNEL_MIN_TERMS or not max(arr.max(), -arr.min()) < _KERNEL_MAX_ABS:
        return math.fsum(arr.tolist())
    total = sum(_binned_total(arr[start:start + _SPAN]) for start in range(0, arr.size, _SPAN))
    return total / (1 << (_EXP_OFFSET + 53))


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn from `math` on every element of x: numpy's SIMD log, exp, acos, ...
    differ from libm in the last bit for some inputs, depending on the CPU."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


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
