"""Matrix-weighted geodesic ray transforms of piecewise constant fields.

Forward integrals over maximal geodesics of conformal disk metrics, the
offset-fan limits that localize them to tangent-plane line integrals, local
sector-value recovery, and a layer-stripping reconstruction sweep along a
strictly convex foliation.
"""

__version__ = "0.1.0"

from .errors import (
    CoverageError,
    DomainError,
    FanConstructionError,
    GeoxrayError,
    IllPosedSamplingError,
    IllPosedStepError,
    NearParallelSectorError,
    NonInjectiveWeightError,
    SceneValidationError,
    TangencyWarning,
    TrappingSuspectedError,
)
from .foliation import FoliationFunction, OffsetRadial, RadialSquare, foliation_from_config
from .geometry import (
    GeodesicPath,
    MetricField,
    UnitTangent,
    boundary_tangent,
    convexity_margin,
    metric_from_config,
    trace_geodesic,
    trace_geodesics,
    unit_tangent,
)
from .recovery import (
    ChordPlan,
    RecordedOracle,
    ReconstructionReport,
    SyntheticOracle,
    order_frontier,
    reconstruct,
    recover_fan_values,
    singular_spectrum,
    spectral_summary,
)
from .scene import Scene, build_scene, load_scene
from .tiling import (
    PiecewiseConstantField,
    SectorFan,
    Tiling,
    locate_points,
    polygon_fan_tiling,
    refine,
    tangent_fan,
)
from .transform import (
    PlanOperator,
    fan_geodesics,
    frozen_limit,
    plan_weight_integrals,
    tangent_line_integral,
)
from .weights import (
    AngularWeight,
    AttenuationWeight,
    ConstantWeight,
    IdentityWeight,
    ProductWeight,
    WeightField,
    injectivity_margin,
    weight_from_config,
)
