"""Parametric rate-distortion model for video transcoding decisions.

Measured per-GOP (bitrate, PSNR) curves are clustered over all
resolution tiers at once, so a GOP has one cluster at every tier; each
(cluster, tier) centroid gets a cubic quality-vs-bitrate fit. From
those fits the package derives knee points and resolution ladders,
visually-lossless bitrate thresholds and near-zero-slope intervals, and
turns them into per-GOP trans-sizing/trans-rating recommendations with
quantified bitrate savings.
"""

from .clustering import BitrateGrid, ClusterModelSet, resample_to_grid, train_details
from .decision import (
    OPERATING_RANGE,
    VL_SEARCH_RANGE,
    DecisionConfig,
    DecisionTables,
    Modes,
    ObservationBatch,
    savings_report,
)
from .errors import ParseError, RDLadderError, ValidationError
from .ingest import MeasurementSet, builtin_model, load_model, parse_measurements, save_model
from .rd_model import CubicRD, eval_cubic, eval_derivative, fit_polynomial
from .tiers import ResolutionTier, tier_from_name

__version__ = "0.1.0"
