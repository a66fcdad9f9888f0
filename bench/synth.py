"""Seeded C-MAPSS-shaped text files for the benchmark workloads.

The files follow the official 26-column layout (unit, cycle, three
settings, 21 sensors) with the engine and row counts of the official
FD001 and FD004 subsets. The engine lengths and their assignment to
engines are fixed per subset, so every seed gives the same amount of
work; the seed draws every measured value.

This module is the benchmark's own generator and imports nothing from
the package or its tests, so editing either cannot move a workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """Engine and row counts of one generated subset."""

    subset_id: str
    n_train: int
    n_test: int
    train_rows: int
    test_rows: int
    min_train_len: int
    min_test_len: int
    max_test_rul: int
    n_regimes: int


# counts of the official files
SHAPES = {
    "FD001": Shape("FD001", 100, 100, 20631, 13096, 128, 31, 145, 1),
    "FD004": Shape("FD004", 249, 248, 61249, 41214, 128, 19, 195, 6),
}

# (setting_1, setting_2, setting_3) of the six FD002/FD004 operating conditions
_REGIMES = np.array(
    [
        [0.0, 0.0, 100.0],
        [10.0, 0.25, 100.0],
        [20.0, 0.70, 100.0],
        [25.0, 0.62, 60.0],
        [35.0, 0.84, 100.0],
        [42.0, 0.84, 100.0],
    ]
)
# sensors that drift as an engine wears; the others only carry noise
_TRENDING = np.array([2, 3, 4, 7, 8, 9, 11, 12, 13, 14, 15, 17, 20, 21]) - 1
_SENSOR_BASE = 400.0 + 55.0 * np.arange(21)
_SENSOR_SLOPE = np.where(np.arange(21) % 2 == 0, 1.0, -1.0) * (8.0 + 0.9 * np.arange(21))


def scaled(shape: Shape, factor: float) -> Shape:
    """A smaller subset with the same length profile, for quick runs."""
    n_train = max(2, round(shape.n_train * factor))
    n_test = max(2, round(shape.n_test * factor))
    return Shape(
        shape.subset_id,
        n_train,
        n_test,
        round(shape.train_rows * n_train / shape.n_train),
        round(shape.test_rows * n_test / shape.n_test),
        shape.min_train_len,
        shape.min_test_len,
        shape.max_test_rul,
        shape.n_regimes,
    )


def length_profile(n: int, total: int, minimum: int) -> np.ndarray:
    """``n`` integer lengths >= ``minimum`` summing to ``total``, right-skewed.

    Quantiles of u**1.5 (mean 1 after scaling) spread the lengths from
    ``minimum`` to about 2.5 times the mean excess; the rounding remainder
    goes to the largest fractional parts, so the sum is exact.
    """
    u = (np.arange(n) + 0.5) / n
    weights = 2.5 * u**1.5
    raw = minimum + (total - n * minimum) * weights / weights.sum()
    lengths = np.floor(raw).astype(np.int64)
    short = total - int(lengths.sum())
    lengths[np.argsort(raw - lengths)[::-1][:short]] += 1
    return lengths


def _engine(
    unit: int, n_cycles: int, life: int, shape: Shape, rng: np.random.Generator
) -> np.ndarray:
    """(n_cycles, 26) rows of one engine observed over the first cycles of its life."""
    rows = np.empty((n_cycles, 26))
    rows[:, 0] = unit
    rows[:, 1] = np.arange(1, n_cycles + 1)
    regime = rng.integers(0, shape.n_regimes, n_cycles)
    rows[:, 2:5] = _REGIMES[regime] + rng.normal(0.0, [0.002, 0.0003, 0.0], (n_cycles, 3))
    wear = (np.arange(1, n_cycles + 1) / life) ** 1.6
    regime_shift = 0.08 * _SENSOR_BASE * regime[:, None] / 5.0
    sensors = _SENSOR_BASE + regime_shift + rng.normal(0.0, 0.5, (n_cycles, 21))
    sensors[:, _TRENDING] += (
        _SENSOR_SLOPE[_TRENDING] * (1.0 + 0.1 * rng.standard_normal()) * wear[:, None]
    )
    rows[:, 5:] = sensors
    return rows


def _write_rows(path: Path, rows: np.ndarray) -> None:
    line = "%d %d " + " ".join(["%.4f"] * 24)
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, rows.shape[0], 4096):
            chunk = rows[start : start + 4096].tolist()
            fh.write("\n".join(line % tuple(r) for r in chunk))
            fh.write("\n")


def write_subset(directory: Path, shape: Shape, seed: int) -> None:
    """Write train_/test_/RUL_ files of one subset into ``directory``."""
    # which engine gets which length is fixed, so every seed has the same work
    layout = np.random.default_rng(int(shape.subset_id[2:]))
    train_len = layout.permutation(
        length_profile(shape.n_train, shape.train_rows, shape.min_train_len)
    )
    test_len = layout.permutation(
        length_profile(shape.n_test, shape.test_rows, shape.min_test_len)
    )
    # remaining cycles after each test engine's last record, spread evenly
    ruls = layout.permutation(
        np.round(
            6 + (shape.max_test_rul - 6) * (np.arange(shape.n_test) + 0.5) / shape.n_test
        ).astype(np.int64)
    )
    rng = np.random.default_rng([seed, int(shape.subset_id[2:])])
    train = [
        _engine(u, int(n), int(n), shape, rng) for u, n in enumerate(train_len, 1)
    ]
    test = [
        _engine(u, int(n), int(n + r), shape, rng)
        for u, (n, r) in enumerate(zip(test_len, ruls), 1)
    ]
    directory.mkdir(parents=True, exist_ok=True)
    sid = shape.subset_id
    _write_rows(directory / f"train_{sid}.txt", np.concatenate(train))
    _write_rows(directory / f"test_{sid}.txt", np.concatenate(test))
    (directory / f"RUL_{sid}.txt").write_text("".join(f"{int(r)}\n" for r in ruls))
