"""Pressure functions, critical exponents, and box-counting dimensions.

The package computes, at desk scale and with certified tails wherever the
generators allow it, three families of quantities and the identities tying
them together:

- thermodynamic pressure P(t) = log sum(length^t) of countable interval
  partitions, its critical exponent s_infinity, and Bowen roots of cylinder
  pressure brackets (`interval_partition`, `pressure`);
- box-counting dimensions of endpoint sets and sphere clouds, and the gap
  exponents sandwiching them (`boxdim`);
- parabolic groups of isometries of H^n, the boundary orbits of their
  points, the Poincare series of the groups, their critical exponents, and
  orbit counting (`hyperbolic`, `poincare`); the geometry of H^n and its
  boundary metrics are array kernels inside `hyperbolic`, checked by its
  `identity_suite`.

The `presdim` console script (module `cli`) drives everything from INI
configs and emits deterministic CSV/JSON artifacts.
"""

from .interval_partition import (
    BranchMap,
    IntervalPartition,
    PartitionError,
    SeriesVerdict,
    build_partition,
    cylinder_derivative_sums,
    make_branch_map,
    refine_partition,
)
from .pressure import (
    CriticalExponentEstimate,
    PressureSample,
    RootBracket,
    bowen_root_cylinder,
    bowen_root_linear,
    find_s_infinity,
    pressure_cylinder_bracket,
    pressure_linear,
)
from .boxdim import (
    DimensionEstimate,
    GapExponentEstimate,
    PointCloud,
    covering_counts,
    estimate_box_dimension,
    gap_exponent_bounds,
)
from .hyperbolic import ParabolicGroupSpec, parabolic_orbit
from .poincare import (
    CountingFunction,
    PoincareSample,
    classify_tail,
    counting_exponent,
    critical_exponent,
    poincare_partial,
)

__version__ = "0.1.0"
