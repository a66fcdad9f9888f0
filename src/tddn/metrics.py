"""Accuracy metrics and test-set evaluation.

Test evaluation follows the standard C-MAPSS protocol: one prediction
per engine, taken from the window ending on its last recorded cycle,
against the RUL value the dataset states for that cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmapss import DatasetBundle, EngineTrajectory
from .model import DegradationNetwork
from .preprocess import LabelPolicy, Scaler, SensorSelection, front_pad, scale_rows, selection_matrix
# only bench/ uses this: its metrics.apply_scaler span reads 0, since nothing here calls it
from .preprocess import apply_scaler  # noqa: F401
from .training import build_window_bank, map_windows, predict_windows


def rmse(pred: np.ndarray, true: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    if pred.shape != true.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, true {true.shape}")
    if pred.size == 0:
        raise ValueError("rmse of zero predictions is undefined")
    diff = pred - true
    return float(np.sqrt(np.mean(diff * diff)))


def nasa_score(pred: np.ndarray, true: np.ndarray) -> float:
    """PHM08 challenge score: asymmetric exponential penalty, summed.

    An early prediction (pred below true) of e cycles costs
    exp(e/13) - 1; a late one costs exp(e/10) - 1, so overestimating
    the remaining life is penalized harder. Lower is better.
    """
    pred = np.asarray(pred, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    if pred.shape != true.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, true {true.shape}")
    d = pred - true
    terms = np.where(d < 0.0, np.exp(-d / 13.0) - 1.0, np.exp(d / 10.0) - 1.0)
    return float(np.sum(terms))


@dataclass(frozen=True, eq=False)
class EvaluationResult:
    """Per-engine predictions and the aggregate metrics over them."""

    unit_ids: np.ndarray
    pred: np.ndarray
    true: np.ndarray
    rmse: float
    nasa_score: float


def predict_engine(
    model: DegradationNetwork,
    trajectory: EngineTrajectory,
    scaler: Scaler,
    selection: SensorSelection,
    policy: LabelPolicy,
) -> np.ndarray:
    """Predicted RUL for every cycle of one engine, clamped to [0, r_max].

    Clamping happens at inference only; training sees raw outputs.
    """
    bank = build_window_bank([trajectory], scaler, selection, policy, model.config.window)
    return np.clip(predict_windows(model, bank), 0.0, float(policy.r_max))


def last_windows(
    bundle: DatasetBundle,
    scaler: Scaler,
    selection: SensorSelection,
    window: int,
) -> np.ndarray:
    """The final window of every test engine, stacked (n_engines, w, m).

    Every cycle's selected columns are checked for non-finite values, engine
    by engine in bundle order, so the error is ``selection_matrix``'s for the
    first bad engine. Then each engine's last ``window`` rows are gathered,
    front-padded with its first row by ``front_pad`` (the window bank's rule)
    when it is shorter than the window, and all are scaled in one pass.
    Scaling and padding work row by row, so the bytes are those of the
    window bank of the full trajectories, at each engine's last window.
    """
    windows = np.empty((len(bundle.test), window, selection.n_columns))
    # a sum is finite only when every term is, so the check that names the
    # engine, cycle and column of a NaN or inf runs only on that hint (a sum
    # may also meet inf - inf, or overflow from finite terms)
    with np.errstate(invalid="ignore", over="ignore"):
        for out, traj in zip(windows, bundle.test):
            if not np.isfinite(traj.values.sum()):
                selection_matrix(traj, selection)
            front_pad(out, traj.values[-window:, selection.indices])
    return scale_rows(windows, scaler, selection)


def evaluate_test(
    model: DegradationNetwork,
    bundle: DatasetBundle,
    scaler: Scaler,
    selection: SensorSelection,
    policy: LabelPolicy,
    cap_true_rul: bool = True,
) -> EvaluationResult:
    """Score a model on the held-out test engines of a subset.

    Predictions are clamped into [0, r_max]. True RUL values are capped
    at r_max by default, matching how the training labels saturate;
    ``cap_true_rul=False`` scores against the raw dataset values.
    """
    windows = last_windows(bundle, scaler, selection, model.config.window)
    pred = np.concatenate(map_windows(lambda c: model.predict(windows[c]), len(windows)))
    pred = np.clip(pred, 0.0, float(policy.r_max))
    true = bundle.test_rul.astype(np.float64)
    if cap_true_rul:
        true = np.minimum(true, float(policy.r_max))
    unit_ids = np.array([traj.unit_id for traj in bundle.test], dtype=np.int64)
    return EvaluationResult(
        unit_ids=unit_ids,
        pred=pred,
        true=true,
        rmse=rmse(pred, true),
        nasa_score=nasa_score(pred, true),
    )
