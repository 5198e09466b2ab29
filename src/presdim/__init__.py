"""Pressure functions, critical exponents, and box-counting dimensions.

The package computes, at desk scale and with certified tails wherever the
generators allow it, three families of quantities and the identities tying
them together:

- thermodynamic pressure P(t) = log sum(length^t) of countable interval
  partitions, its critical exponent s_infinity, and Bowen roots of cylinder
  pressure brackets (`interval_partition`, `pressure`);
- box-counting dimensions of endpoint sets and sphere clouds, and the gap
  exponents sandwiching them (`boxdim`);
- hyperbolic geometry of H^n with its boundary metrics, Poincare series of
  parabolic groups, their critical exponents, and orbit counting
  (`hyperbolic`, `poincare`).

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
    covering_count,
    estimate_box_dimension,
    gap_exponent_bounds,
)
from .hyperbolic import (
    BALL,
    HALF_SPACE,
    BoundaryPoint,
    HyperbolicPoint,
    ParabolicGroupSpec,
    ball_point,
    base_point,
    boundary_infinity,
    boundary_plane_point,
    boundary_sphere_point,
    bourdon_metric,
    busemann,
    distance,
    gromov_product,
    half_space_point,
    orbit_distance,
    parabolic_orbit,
    point_on_boundary_geodesic,
    spherical_metric,
    to_ball,
    to_half_space,
    translate,
)
from .poincare import (
    CountingFunction,
    PoincareSample,
    classify_tail,
    counting_exponent,
    critical_exponent,
    poincare_partial,
)

__version__ = "0.1.0"
