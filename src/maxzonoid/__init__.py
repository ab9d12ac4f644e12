"""Max-stable distributions through support-function geometry.

Simple max-stable laws (unit Frechet marginals) correspond one-to-one
with normalized convex bodies called dependency sets; this package
builds, converts, evaluates, simulates, measures, checks, and estimates
such laws entirely through that correspondence.
"""

__version__ = "0.1.0"

from ._kernels import backend_name
from .alternation import (
    AlternationResult,
    ConsistencyResult,
    FiniteMaxLattice,
    check_alternation,
    check_extremal_consistency,
    construct_from_extremal,
    max_closure,
)
from .dependence import (
    ExtremalTable,
    chi,
    extremal_coefficient,
    extremal_table,
    inverted_pearson_2d,
    kendall_tau_2d,
    multivariate_rho,
    spearman_rho,
)
from .distribution import (
    MaxStableModel,
    SampleMatrix,
    cdf,
    copula,
    exponent_density,
    max_stability_check,
    pickands,
    quantile_curve,
    simulate,
)
from .estimate import (
    ConvergencePoint,
    DirectionEstimate,
    convergence_diagnostic,
    direction_estimate,
    empirical_spectral,
    estimate_zonoid_2d,
)
from .families import DiscretizeResult, discretize, make_family
from .geometry import (
    AnalyticNorm,
    DependencySet,
    Estimate,
    MaxZonoid,
    Polygon2D,
    as_dependency,
    cartesian_product,
    combine_2d,
    cross_polytope,
    exp_support_integral_mc,
    hausdorff_distance,
    m_distance,
    minkowski_combine,
    normalize_dependency,
    polar_2d,
    polar_volume,
    polygon_from_spectral,
    project,
    scale,
    support_function,
    unit_cross_polytope,
    unit_cube,
    zonoid_from_polygon,
    zonoid_from_spectral,
)
from .spectral import (
    DiscreteSpectralMeasure,
    make_measure,
    spectral_from_points,
    spectral_from_polygon_2d,
    validate_dependency,
)
