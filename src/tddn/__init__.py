"""Remaining-useful-life prediction on C-MAPSS turbofan data.

A moving-window pipeline: causal 1-D convolutions extract temporal
features from normalized sensor windows, an attention layer weighs the
abstract feature rows against the first (healthiest) one, and a small
regressor maps the pooled state to a RUL estimate.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .cmapss import (
    CmapssError,
    DatasetBundle,
    EngineTrajectory,
    ParseError,
    StructureError,
    load_subset,
)
from .metrics import EvaluationResult, evaluate_test, nasa_score, predict_engine, rmse
from .model import DegradationNetwork, ModelConfig, conv_channels_for_depth
from .preprocess import (
    LabelPolicy,
    Scaler,
    SensorSelection,
    apply_scaler,
    assign_rul_labels,
    fit_scaler,
    select_columns,
)
from .training import TrainConfig, TrainReport, TrainResult, lr_at, split_engines, train

__all__ = [
    "__version__",
    "CheckpointError",
    "CmapssError",
    "DatasetBundle",
    "DegradationNetwork",
    "EngineTrajectory",
    "EvaluationResult",
    "LabelPolicy",
    "ModelConfig",
    "ParseError",
    "Scaler",
    "SensorSelection",
    "StructureError",
    "TrainConfig",
    "TrainReport",
    "TrainResult",
    "apply_scaler",
    "assign_rul_labels",
    "conv_channels_for_depth",
    "evaluate_test",
    "fit_scaler",
    "load_checkpoint",
    "load_subset",
    "lr_at",
    "nasa_score",
    "predict_engine",
    "rmse",
    "save_checkpoint",
    "select_columns",
    "split_engines",
    "train",
]
