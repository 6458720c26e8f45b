"""anchorguard: wireless anchor networks that police their own positions.

Deploy anchors in trilateration groups, let some of them lie about
where they are, and catch the liars by replaying the deployment
geometry: group consistency checks first, per-anchor isolation through
neighbor groups second, Mahalanobis confirmation on top.
"""

from .attack import (
    AttackSpec,
    FixedOffset,
    GroundTruth,
    InvalidSpec,
    SpecificIds,
    UniformRadial,
    UniformRandom,
    compromise,
)
from .deployment import (
    AnchorGroup,
    AnchorNode,
    DeploymentFailure,
    Network,
    ReferenceTable,
    UnknownGroup,
    build_references,
    deploy,
    neighbor_groups,
    parse_network,
    serialize_network,
)
from .detection import (
    DetectionReport,
    GroupCheckResult,
    SuspectRecord,
    group_check,
    isolate_suspects,
    quarantine,
    relocalization_cloud,
    run_detection,
)
from .geometry import (
    CanonicalFrame,
    DegenerateGeometry,
    Point2,
    TrilaterationResult,
    solve_canonical,
    to_canonical,
    trilaterate,
)
from .harness import (
    MetricsRecord,
    ParseError,
    ScenarioConfig,
    ValidationError,
    emit_csv,
    parse_scenario,
    run_sweep,
    run_trial,
)
from .mahalanobis import (
    CovarianceMatrix2,
    InsufficientData,
    MahalanobisScore,
    SingularCovariance,
    chi_square_cutoff,
    confirm_outliers,
    covariance,
    distance_to_centroid,
    invert,
)
from .ranging import RangingModel, measure, true_distance

__version__ = "0.1.0"

__all__ = [
    "AnchorGroup",
    "AnchorNode",
    "AttackSpec",
    "CanonicalFrame",
    "CovarianceMatrix2",
    "DegenerateGeometry",
    "DeploymentFailure",
    "DetectionReport",
    "FixedOffset",
    "GroundTruth",
    "GroupCheckResult",
    "InsufficientData",
    "InvalidSpec",
    "MahalanobisScore",
    "MetricsRecord",
    "Network",
    "ParseError",
    "Point2",
    "RangingModel",
    "ReferenceTable",
    "ScenarioConfig",
    "SingularCovariance",
    "SpecificIds",
    "SuspectRecord",
    "TrilaterationResult",
    "UniformRadial",
    "UniformRandom",
    "UnknownGroup",
    "ValidationError",
    "build_references",
    "chi_square_cutoff",
    "compromise",
    "confirm_outliers",
    "covariance",
    "deploy",
    "distance_to_centroid",
    "emit_csv",
    "group_check",
    "invert",
    "isolate_suspects",
    "measure",
    "neighbor_groups",
    "parse_network",
    "parse_scenario",
    "quarantine",
    "relocalization_cloud",
    "run_detection",
    "run_sweep",
    "run_trial",
    "serialize_network",
    "solve_canonical",
    "to_canonical",
    "trilaterate",
    "true_distance",
]
