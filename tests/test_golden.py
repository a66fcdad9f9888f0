"""Pinned training and evaluation outputs.

``tddn train`` and ``tddn evaluate`` on a fixed synthetic bundle must give
the values below. The other determinism tests compare two runs of the
same code, so they cannot see a change that moves every run alike (a
gradient that accumulates across steps, say); these values can.

The learning rate is small on purpose. At 3e-3 over 8 epochs, NumPy's
baseline-SIMD path moves the final values by up to 9%; at 1e-4 over 2
epochs it prints the same values as the native path, so the pins hold on
both and ``rtol`` can stay tight.

Each pin is checked in three lane modes: as the host runs it, with
``map_chunks`` held to one lane, and with two lanes and both split
thresholds at 0, so that every optimizer step and every linear backward
starts a worker. The lanes split work without changing it, so all three
must print the same values.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

from tddn import layers, training
from tddn.cli import main
from _synth import make_bundle, write_bundle

RTOL = 1e-9

# (window, depth) -> per-epoch (train_loss, val_rmse), then (rmse, nasa_score)
PINNED = {
    (8, 2): (
        [(3535.3061653869813, 43.96392416212094), (3511.2060303579124, 43.65908011849933)],
        (24.132994812267526, 23.590255378700405),
    ),
    (16, 1): (
        [(3531.205392286816, 43.70662061247567), (3407.9581803320552, 41.856598635427396)],
        (23.197606669719377, 21.704171518805353),
    ),
    (32, 3): (
        [(3479.309966808748, 42.438423754208536), (2759.255395743786, 24.867207449518293)],
        (14.036296818025539, 8.139156475551331),
    ),
}


# lanes forced on tddn.lanes, by mode; None leaves the host's count
LANE_MODES = {"native": None, "one-lane": 1, "two-lanes": 2}
CASES = [
    pytest.param(window, depth, lanes, id=f"{window}-{depth}" + (f"-{mode}" if lanes else ""))
    for window, depth in PINNED
    for mode, lanes in LANE_MODES.items()
]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory) -> Path:
    bundle = make_bundle(n_train=12, n_test=4, min_len=30, max_len=140, seed=5)
    return write_bundle(bundle, tmp_path_factory.mktemp("golden_data"))


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("window, depth, lanes", CASES)
def test_train_and_evaluate_give_the_pinned_values(
    data_dir, tmp_path, monkeypatch, executors, window, depth, lanes
):
    if lanes is not None:
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: lanes)
    if lanes == 2:
        monkeypatch.setattr(training, "ADAM_TWO_LANE_MIN", 0)
        monkeypatch.setattr(layers, "LINEAR_TWO_LANE_MIN", 0)
    epochs, metrics = PINNED[window, depth]
    run = tmp_path / "run"
    assert main([
        "train", "--data", str(data_dir), "--out", str(run), "--subset", "FD001",
        "--window", str(window), "--depth", str(depth), "--epochs", "2",
        "--batch", "16", "--lr", "1e-4", "--seed", "4",
    ]) == 0
    log = read_rows(run / "training_log.csv")
    got = [(float(row["train_loss"]), float(row["val_rmse"])) for row in log]
    np.testing.assert_allclose(got, epochs, rtol=RTOL)

    evaluated = tmp_path / "evaluated"
    assert main([
        "evaluate", "--checkpoint", str(run / "model.ckpt"), "--data", str(data_dir),
        "--out", str(evaluated),
    ]) == 0
    (row,) = read_rows(evaluated / "metrics.csv")
    np.testing.assert_allclose(
        (float(row["rmse"]), float(row["nasa_score"])), metrics, rtol=RTOL
    )
    if lanes == 1:
        assert not executors
    elif lanes == 2:
        assert executors
