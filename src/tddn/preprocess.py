"""Feature selection, scaling, RUL labeling and window padding.

The pipeline per engine is: pick the informative columns for the subset,
min-max scale them with statistics fitted on the training split only,
attach piecewise-linear RUL labels, and front-pad with the first cycle so
every cycle owns a full window. Labels are those of a run to failure,
the only kind of engine trained on; a test engine is scored at its last
cycle against the RUL file (``metrics.evaluate_test``). ``front_pad`` is
the one padding rule, for the window bank and ``metrics.last_windows``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .cmapss import _INT_LIMIT, COLUMN_NAMES, EngineTrajectory, _check_subset_id

logger = logging.getLogger(__name__)

# Channels with a clear ascending/descending trend over a run-to-failure
# trajectory under a single operating condition. The remaining sensors
# (1, 5, 6, 10, 14, 16, 18, 19) and setting_3 stay flat and carry no
# degradation signal.
TREND_SETTINGS = ("setting_1", "setting_2")
TREND_SENSORS = (2, 3, 4, 7, 8, 9, 11, 12, 13, 15, 17, 20, 21)


@dataclass(frozen=True)
class SensorSelection:
    """Ordered subset of the 24 feature columns used as model input."""

    subset_id: str
    columns: tuple[str, ...]
    indices: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate columns in selection")
        try:
            indices = tuple(COLUMN_NAMES.index(c) for c in self.columns)
        except ValueError:
            unknown = [c for c in self.columns if c not in COLUMN_NAMES]
            raise ValueError(f"unknown columns: {unknown}") from None
        object.__setattr__(self, "indices", indices)

    @property
    def n_columns(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class LabelPolicy:
    """Piecewise-linear RUL labeling: flat at the cap, then a countdown."""

    r_max: int = 120

    def __post_init__(self) -> None:
        if self.r_max <= 0:
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        # labels are float64, so a larger cap is not a whole number of cycles
        if self.r_max >= _INT_LIMIT:
            raise ValueError(f"r_max must be below 2**53, got {self.r_max}")


@dataclass(frozen=True, eq=False)
class Scaler:
    """Per-column min/max fitted on the training split."""

    columns: tuple[str, ...]
    col_min: np.ndarray
    col_max: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        """Boolean mask of constant columns (max == min)."""
        return self.col_max == self.col_min


def select_columns(subset_id: str, include_sensor_14: bool = False) -> SensorSelection:
    """Input columns for a subset.

    FD001/FD003 run under a single operating condition, so only the
    trending settings and sensors are kept (15 columns). FD002/FD004 mix
    six operating conditions where no channel is visually flat, so all 3
    settings and 21 sensors are used (24 columns).

    ``include_sensor_14`` adds the nominally flat sensor 14 back into the
    FD001/FD003 selection for sensitivity checks.
    """
    sid = _check_subset_id(subset_id)
    if sid in ("FD002", "FD004"):
        return SensorSelection(subset_id=sid, columns=COLUMN_NAMES)
    sensors = sorted(TREND_SENSORS + (14,)) if include_sensor_14 else TREND_SENSORS
    columns = TREND_SETTINGS + tuple(f"sensor_{i}" for i in sensors)
    return SensorSelection(subset_id=sid, columns=columns)


def selection_matrix(trajectory: EngineTrajectory, selection: SensorSelection) -> np.ndarray:
    """Extract the selected columns of a trajectory as an (n, m) matrix.

    A NaN or infinity in them is a ``ValueError`` naming the engine, the
    1-based cycle, the column and the value.
    """
    matrix = trajectory.values[:, selection.indices]
    finite = np.isfinite(matrix)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(
            f"engine {trajectory.unit_id}, cycle {row + 1}: column "
            f"{selection.columns[col]} is {matrix[row, col]}, not a finite number"
        )
    return matrix


def fit_scaler(
    trajectories: Iterable[EngineTrajectory], selection: SensorSelection
) -> Scaler:
    """Fit per-column min/max over every cycle of every given trajectory.

    Call this with the training split only; test data must never leak
    into the statistics. Constant columns are legal but logged, since
    they normalize to 0 everywhere.
    """
    col_min: np.ndarray | None = None
    col_max: np.ndarray | None = None
    for traj in trajectories:
        matrix = selection_matrix(traj, selection)
        lo = matrix.min(axis=0)
        hi = matrix.max(axis=0)
        col_min = lo if col_min is None else np.minimum(col_min, lo)
        col_max = hi if col_max is None else np.maximum(col_max, hi)
    if col_min is None or col_max is None:
        raise ValueError("cannot fit a scaler on zero trajectories")
    degenerate = np.flatnonzero(col_max == col_min)
    if degenerate.size:
        names = [selection.columns[i] for i in degenerate]
        logger.warning("constant columns scale to 0: %s", ", ".join(names))
    return Scaler(columns=selection.columns, col_min=col_min, col_max=col_max)


def apply_scaler(
    trajectory: EngineTrajectory, scaler: Scaler, selection: SensorSelection
) -> np.ndarray:
    """Scale the selected columns into [-1, 1] via x' = 2(x-min)/(max-min) - 1.

    Training values land exactly in [-1, 1]; test values may fall outside
    and are intentionally not clipped. Degenerate columns map to 0.
    """
    return scale_rows(selection_matrix(trajectory, selection), scaler, selection)


def scale_rows(rows: np.ndarray, scaler: Scaler, selection: SensorSelection) -> np.ndarray:
    """Scale rows of ``selection``'s columns (the last axis) in place, as ``apply_scaler`` does.

    A scaler fitted on other columns is a ``ValueError``. Returns ``rows``.
    """
    if scaler.columns != selection.columns:
        raise ValueError(
            "scaler/selection column mismatch: "
            f"scaler has {scaler.columns}, selection has {selection.columns}"
        )
    span = scaler.col_max - scaler.col_min
    safe_span = np.where(span == 0.0, 1.0, span)
    # the element-wise steps of 2.0 * (x - min) / span - 1.0, in that order
    rows -= scaler.col_min
    rows *= 2.0
    rows /= safe_span
    rows -= 1.0
    rows[..., scaler.degenerate] = 0.0
    return rows


def assign_rul_labels(n_cycles: int, policy: LabelPolicy) -> np.ndarray:
    """Labels for cycles 1..n of a run to failure: label(j) = min(r_max, n - j).

    The last cycle is the failure, so its label is 0.
    """
    if n_cycles < 1:
        raise ValueError(f"need at least one cycle, got {n_cycles}")
    countdown = n_cycles - np.arange(1, n_cycles + 1)
    return np.minimum(countdown, policy.r_max).astype(np.float64)


def front_pad(out: np.ndarray, rows: np.ndarray) -> None:
    """Write ``rows`` at the end of ``out`` and copies of ``rows[0]`` before them.

    ``out`` holds at least as many rows as ``rows``, and ``rows`` at least
    one. With ``out`` ``window - 1`` rows longer than ``rows``, even the
    first row owns a full window.
    """
    pad = len(out) - len(rows)
    out[pad:] = rows
    out[:pad] = rows[0]
