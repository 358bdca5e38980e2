"""Parametric rate-distortion model for video transcoding decisions.

Measured per-GOP (bitrate, PSNR) curves are clustered per resolution
tier; each cluster centroid gets a cubic quality-vs-bitrate fit. From
those fits the package derives knee points and resolution ladders,
visually-lossless bitrate thresholds and near-zero-slope intervals, and
turns them into per-GOP trans-sizing/trans-rating recommendations with
quantified bitrate savings.
"""

from .clustering import (
    BitrateGrid,
    ClusterModelSet,
    KMeansResult,
    TierVectors,
    kmeans,
    resample_to_grid,
    train_details,
)
from .decision import (
    OPERATING_RANGE,
    VL_SEARCH_RANGE,
    DecisionConfig,
    DecisionTables,
    Modes,
    ObservationBatch,
    ResolutionLadder,
    build_ladder,
    curve_intersections,
    nzs_interval,
    savings_report,
    vl_threshold,
)
from .errors import (
    ConditioningError,
    ConflictError,
    CoverageError,
    IdenticalCurvesError,
    InsufficientDataError,
    ParseError,
    RDLadderError,
    SchemaVersionError,
    ValidationError,
)
from .ingest import (
    MeasurementSet,
    builtin_model,
    format_measurements,
    load_model,
    parse_measurements,
    save_model,
)
from .rd_model import (
    CubicRD,
    FitReport,
    LogFit,
    compare_fits,
    eval_cubic,
    eval_derivative,
    fit_log,
    fit_polynomial,
)
from .tiers import STANDARD_TIERS, ResolutionTier, tier_from_name

__version__ = "0.1.0"
