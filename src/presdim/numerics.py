"""Deterministic summation and numerically stable scalar helpers.

Reductions in this package must not depend on chunking or thread count, so
every series total is accumulated exactly and rounded once.  The hyperbolic
distance formulas need arccosh(1 + u) evaluated without cancellation for
small u.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "compensated_sum",
    "acosh1p",
]


def compensated_sum(values: np.ndarray) -> float:
    """Sum an array to the correctly rounded float64 total.

    Exact accumulation (math.fsum) makes the result a pure function of the
    multiset of values, so callers may produce `values` in any chunk order
    (including from worker threads) and still obtain bit-identical totals.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        return 0.0
    return math.fsum(arr.tolist())


def acosh1p(u: float) -> float:
    """arccosh(1 + u) for u >= 0 without cancellation near u = 0."""
    if u < 0:
        if u > -1e-12:  # tolerate roundoff from distance quadratic forms
            return 0.0
        raise ValueError(f"acosh1p needs u >= 0, got {u}")
    return math.log1p(u + math.sqrt(u * (u + 2.0)))

