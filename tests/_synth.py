"""Synthetic run-to-failure data shaped like the C-MAPSS text files.

Trending channels follow a smooth monotone curve of the consumed-life
fraction plus noise, flat channels hover around a constant, so models
trained on these engines have real signal to find. Test engines are the
same process truncated before failure, with the remaining cycles
recorded as their RUL.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from tddn.cmapss import DatasetBundle, EngineTrajectory, format_value, subset_file_names
from tddn.preprocess import TREND_SENSORS

# per-sensor slope over one full life, in raw sensor units
_SLOPES = {s: (18.0 if s % 2 else -14.0) + 0.7 * s for s in range(1, 22)}


def make_trajectory(
    unit_id: int, n_cycles: int, full_length: int, rng: np.random.Generator
) -> EngineTrajectory:
    """One engine observed for ``n_cycles`` of a ``full_length``-cycle life."""
    life = np.arange(1, n_cycles + 1) / full_length
    values = np.empty((n_cycles, 24))
    values[:, 0] = rng.normal(0.0, 0.002, n_cycles)
    values[:, 1] = rng.normal(0.0, 0.0003, n_cycles)
    values[:, 2] = 100.0 + rng.normal(0.0, 0.01, n_cycles)
    for sensor in range(1, 22):
        base = 500.0 + 20.0 * sensor
        if sensor in TREND_SENSORS:
            trend = _SLOPES[sensor] * life**1.5
            noise = rng.normal(0.0, 0.4, n_cycles)
        else:
            trend = 0.0
            noise = rng.normal(0.0, 0.05, n_cycles)
        values[:, 3 + sensor - 1] = base + trend + noise
    return EngineTrajectory(unit_id=unit_id, values=values)


def make_bundle(
    subset_id: str = "FD001",
    n_train: int = 6,
    n_test: int = 4,
    min_len: int = 40,
    max_len: int = 70,
    seed: int = 0,
) -> DatasetBundle:
    rng = np.random.default_rng([seed, 7])
    train = []
    for uid in range(1, n_train + 1):
        length = int(rng.integers(min_len, max_len + 1))
        train.append(make_trajectory(uid, length, length, rng))
    test = []
    ruls = []
    for uid in range(1, n_test + 1):
        full = int(rng.integers(min_len, max_len + 1))
        rul = int(rng.integers(5, max(6, full // 2)))
        test.append(make_trajectory(uid, full - rul, full, rng))
        ruls.append(rul)
    return DatasetBundle(
        subset_id=subset_id,
        train=tuple(train),
        test=tuple(test),
        test_rul=np.asarray(ruls, dtype=np.int64),
    )


def write_data_file(trajectories: Iterable[EngineTrajectory], stream: IO[str]) -> None:
    """Write trajectories back to the 26-column text layout.

    Values are emitted with round-trip precision, so parse -> write ->
    parse is bit-exact.
    """
    for traj in trajectories:
        for idx in range(traj.n_cycles):
            row = traj.values[idx]
            fields = [str(traj.unit_id), str(idx + 1)]
            fields.extend(format_value(v) for v in row)
            stream.write(" ".join(fields) + "\n")


def write_rul_file(ruls: Sequence[int], stream: IO[str]) -> None:
    for rul in ruls:
        stream.write(f"{int(rul)}\n")


def write_bundle(bundle: DatasetBundle, directory: Path) -> Path:
    """Write a bundle as the three official-layout text files."""
    directory.mkdir(parents=True, exist_ok=True)
    train_name, test_name, rul_name = subset_file_names(bundle.subset_id)
    with open(directory / train_name, "w") as fh:
        write_data_file(bundle.train, fh)
    with open(directory / test_name, "w") as fh:
        write_data_file(bundle.test, fh)
    with open(directory / rul_name, "w") as fh:
        write_rul_file([int(r) for r in bundle.test_rul], fh)
    return directory
