"""Boundary-anchored hyperbolic metrics on strictly pseudoconvex domains.

The package builds a Gromov hyperbolic geometry on a bounded domain from
boundary data alone: a distance to the boundary, a projection onto it, a
sampled boundary metric, and the collar paths that tie them together.
On top of that sit a closed-formula distance ``g``, its geodesic
envelope ``d``, an interior Finsler estimate with its sandwich fit, the
four-point and boundary-at-infinity apparatus, and orbit classification
for domain self-maps.
"""

# set before the submodules load, so any of them may import it
__version__ = "0.1.0"

from .errors import (
    HypkobError, ConfigError, PointOutsideDomain, ProjectionDiverged,
    CurvatureEstimateFailed, DerivativeEvaluationFailed,
    DimensionTooSmall, DegenerateContact,
    GraphDisconnected, ImageOffBoundary, HeightsDiffer,
    RefinementStalled, PrefixTooShort, NotStabilized,
    MapEscapedDomain,
)
from .domain import (
    ScalarField, Domain, HeightProjection, ReachEstimate, reach_details,
    principal_curvatures, ball_field, ellipsoid_field, superellipsoid_field,
    polynomial_field,
)
from .structures import (
    StructureField, standard_structure, check_structure, alpha_vec,
    dalpha_matrix, levi_matrix, ConvexityReport,
    check_strict_convexity, transverse_frame, ContactData, contact_batch,
)
from .boundary import (
    BoundaryGraph, BoundaryMap, LipschitzReport, lipschitz_details,
)
from .metrics import (
    MetricFamily, Polyline, PreparedPoints,
    collar_profile_distance, path_length, estimate_C,
)
from .layered import LayeredSolver
from .kobayashi import (
    kobayashi_speed_batch, QIReport, quasi_isometry_fit, qi_check,
)
from .gromov import (
    BoxSampler, BoundaryBiasedSampler, distance_matrix, HyperbolicityReport,
    four_point_from_matrix, four_point_delta, gromov_product,
    ConvergenceReport, converges_at_infinity, BoundaryPointRecord,
    normal_record, boundary_product, boundary_identification,
    triangle_thinness,
)
from .dynamics import (
    DomainMap, identity_map, affine_contraction, rotation_map, map_from_spec,
    OrbitRecord, iterate_many, check_semicontraction, OrbitVerdict,
    classify_orbit,
)
from .config import RunConfig, Workspace, load_config, build_workspace
