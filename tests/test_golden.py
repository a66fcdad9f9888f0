"""Pinned training, evaluation and feature-export outputs.

``tddn train``, ``tddn evaluate`` and ``tddn export-features`` on a fixed
synthetic bundle must give the values below. The other determinism tests
compare two runs of the same code, so they cannot see a change that moves
every run alike (a gradient that accumulates across steps, say); these
values can.

The learning rate is small on purpose. At 3e-3 over 8 epochs, NumPy's
baseline-SIMD path moves the final values by up to 9%; at 1e-4 over 2
epochs it prints the same values as the native path, so the pins hold on
both and ``rtol`` can stay tight.

Each pin is checked in three lane modes: as the host runs it, with
``map_chunks`` held to one lane, and with two lanes and both split
thresholds at 0, so that every optimizer step and every conv, attention
and linear backward hands half its work to the caller's one lane worker.
The lanes split work without changing it, so all three must print the same
values.
"""

from __future__ import annotations

import csv
import math
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

# (window, depth) -> per export-features file of test engine 1, the sums of
# its values, of their squares, and of each value times its column number
EXPORTED = {
    (8, 2): {
        "attention.csv": (37.0, 5.215240504301346, 159.2401614639984),
        "temporal_features.csv": (914.8241528685933, 547.6912021860176, 31236.279591265764),
        "abstract_features.csv": (761.9174770440395, 515.7030669188048, 6057.439680826506),
    },
    (16, 1): {
        "attention.csv": (37.0, 3.763480730877689, 330.0426448947012),
        "temporal_features.csv": (2940.807882592726, 1916.9006248226685, 47985.180000451124),
        "abstract_features.csv": (4767.555415488602, 5230.772309136015, 41240.39476595563),
    },
    (32, 3): {
        "attention.csv": (37.0, 18.995025136182388, 699.9671540064918),
        "temporal_features.csv": (19272.453337409337, 32110.25094345076, 1212534.5249814675),
        "abstract_features.csv": (69605.53530071737, 521349.5307151889, 586016.2724849607),
    },
}
# leading key columns of each exported file: the cycle, then the step or row
KEY_COLUMNS = {"attention.csv": 1, "temporal_features.csv": 2, "abstract_features.csv": 2}


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


def value_sums(path: Path, n_keys: int) -> tuple[float, float, float]:
    """Exact sums of a CSV's values, of their squares, and of each times its column number."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = [[float(v) for v in row[n_keys:]] for row in list(csv.reader(fh))[1:]]
    return (
        math.fsum(v for row in rows for v in row),
        math.fsum(v * v for row in rows for v in row),
        math.fsum(j * v for row in rows for j, v in enumerate(row, 1)),
    )


@pytest.mark.parametrize("window, depth, lanes", CASES)
def test_train_and_evaluate_give_the_pinned_values(
    data_dir, tmp_path, monkeypatch, executors, window, depth, lanes
):
    if lanes is not None:
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: lanes)
    if lanes == 2:
        monkeypatch.setattr(training, "ADAM_TWO_LANE_MIN", 0)
        monkeypatch.setattr(layers, "BACKWARD_TWO_LANE_MIN", 0)
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

    exported = tmp_path / "exported"
    assert main([
        "export-features", "--checkpoint", str(run / "model.ckpt"), "--data", str(data_dir),
        "--out", str(exported), "--engine", "1",
    ]) == 0
    for name, sums in EXPORTED[window, depth].items():
        got = value_sums(exported / name, KEY_COLUMNS[name])
        np.testing.assert_allclose(got, sums, rtol=RTOL, err_msg=name)
    if lanes == 1:
        assert not executors
    elif lanes == 2:
        # train, evaluate and export-features share the caller's one worker
        assert len(executors) == 1
