"""Per-ISN quality and latency predictors (the paper's Section III B-C).

``features`` implements Tables I and II; ``quality``/``latency`` the two NN
models; ``gamma_quality`` the Taily baseline estimator; ``datasets`` the
training-set builders; ``bank`` the per-shard model collection Cottage
coordinates.
"""

from repro.predictors.bank import ISNPrediction, PredictorBank, TrainingReport
from repro.predictors.datasets import (
    ShardLatencyDataset,
    ShardQualityDataset,
    build_latency_dataset,
    build_quality_dataset,
)
from repro.predictors.features import (
    LATENCY_FEATURE_NAMES,
    QUALITY_FEATURE_NAMES,
    TermFeatureCache,
    feature_table,
    trace_feature_tensors,
)
from repro.predictors.fused import FusedLatencyModels, FusedQualityModels
from repro.predictors.gamma_quality import TailyEstimate, TailyQualityEstimator
from repro.predictors.latency import LatencyBinning, LatencyPredictor
from repro.predictors.quality import QualityPredictor

__all__ = [
    "QUALITY_FEATURE_NAMES",
    "LATENCY_FEATURE_NAMES",
    "trace_feature_tensors",
    "TermFeatureCache",
    "FusedQualityModels",
    "FusedLatencyModels",
    "feature_table",
    "QualityPredictor",
    "LatencyPredictor",
    "LatencyBinning",
    "TailyQualityEstimator",
    "TailyEstimate",
    "ShardQualityDataset",
    "ShardLatencyDataset",
    "build_quality_dataset",
    "build_latency_dataset",
    "PredictorBank",
    "ISNPrediction",
    "TrainingReport",
]
