"""Pinned training, evaluation and feature-export outputs.

``tddn train``, ``tddn evaluate`` and ``tddn export-features`` on a fixed
synthetic bundle must give the values below; so must ``evaluate`` and
``export-features`` of the committed ``checkpoint_v1.ckpt``, which pin the
float64 inference on its own, with no float32 training before it. The other
determinism tests compare two runs of the same code, so they cannot see a
change that moves every run alike (a gradient that accumulates across
steps, say); these values can.

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
        [(3535.3061670680136, 43.963924203635514), (3511.2060455278415, 43.65908042807321)],
        (24.13299494145255, 23.590255643246444),
    ),
    (16, 1): (
        [(3531.205395145609, 43.706620725154885), (3407.9582356310266, 41.856599786122345)],
        (23.19760722136591, 21.704172610845937),
    ),
    (32, 3): (
        [(3479.3099853646736, 42.4384245462512), (2759.255866596081, 24.867220904695916)],
        (14.036299239562592, 8.139155883574976),
    ),
}

# (window, depth) -> per export-features file of test engine 1, the sums of
# its values, of their squares, and of each value times its column number
EXPORTED = {
    (8, 2): {
        "attention.csv": (37.0, 5.215239788807382, 159.24017069437951),
        "temporal_features.csv": (914.8238730856522, 547.6908675623544, 31236.26956785349),
        "abstract_features.csv": (761.9171072083195, 515.7025632183786, 6057.43657930445),
    },
    (16, 1): {
        "attention.csv": (37.0, 3.763479781786653, 330.0426413110781),
        "temporal_features.csv": (2940.8074637328587, 1916.9001815252561, 47985.172977377835),
        "abstract_features.csv": (4767.553281052747, 5230.767753754985, 41240.37577100373),
    },
    (32, 3): {
        "attention.csv": (37.0, 18.99503986159091, 699.9672682501241),
        "temporal_features.csv": (19272.442676700728, 32110.21845691371, 1212533.840480909),
        "abstract_features.csv": (69605.48311280769, 521348.73840062757, 586015.8277587359),
    },
}
# leading key columns of each exported file: the cycle, then the step or row
KEY_COLUMNS = {"attention.csv": 1, "temporal_features.csv": 2, "abstract_features.csv": 2}

# the committed checkpoint (window 8, conv channels (4, 8)) on the same data:
# (rmse, nasa_score), then the sums of each export-features file of engine 1
V1_CHECKPOINT = Path(__file__).with_name("checkpoint_v1.ckpt")
V1_METRICS = (24.325912110340283, 23.997404740888534)
V1_EXPORTED = {
    "attention.csv": (37.0, 4.720315073223764, 169.24420242157726),
    "temporal_features.csv": (192.85717481370438, 136.88170512543843, 1006.875879333998),
    "abstract_features.csv": (456.94044172751046, 141.89955846781044, 3840.4549235548925),
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


def value_sums(path: Path, n_keys: int) -> tuple[float, float, float]:
    """Exact sums of a CSV's values, of their squares, and of each times its column number."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = [[float(v) for v in row[n_keys:]] for row in list(csv.reader(fh))[1:]]
    return (
        math.fsum(v for row in rows for v in row),
        math.fsum(v * v for row in rows for v in row),
        math.fsum(j * v for row in rows for j, v in enumerate(row, 1)),
    )


def force_lanes(monkeypatch, lanes: int | None) -> None:
    """Hold ``map_chunks`` to ``lanes``; at 2, split every Adam step and layer backward too."""
    if lanes is not None:
        monkeypatch.setattr("tddn.lanes.cpu_lanes", lambda: lanes)
    if lanes == 2:
        monkeypatch.setattr(training, "ADAM_TWO_LANE_MIN", 0)
        monkeypatch.setattr(layers, "BACKWARD_TWO_LANE_MIN", 0)


def check_evaluate_and_export(
    checkpoint: Path, data_dir: Path, out: Path, metrics, exported
) -> None:
    """``evaluate`` and ``export-features --engine 1`` of ``checkpoint`` give the pinned values."""
    assert main([
        "evaluate", "--checkpoint", str(checkpoint), "--data", str(data_dir),
        "--out", str(out / "evaluated"),
    ]) == 0
    (row,) = read_rows(out / "evaluated" / "metrics.csv")
    np.testing.assert_allclose(
        (float(row["rmse"]), float(row["nasa_score"])), metrics, rtol=RTOL
    )
    assert main([
        "export-features", "--checkpoint", str(checkpoint), "--data", str(data_dir),
        "--out", str(out / "exported"), "--engine", "1",
    ]) == 0
    for name, sums in exported.items():
        got = value_sums(out / "exported" / name, KEY_COLUMNS[name])
        np.testing.assert_allclose(got, sums, rtol=RTOL, err_msg=name)


@pytest.mark.parametrize("window, depth, lanes", CASES)
def test_train_and_evaluate_give_the_pinned_values(
    data_dir, tmp_path, monkeypatch, executors, window, depth, lanes
):
    force_lanes(monkeypatch, lanes)
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
    check_evaluate_and_export(
        run / "model.ckpt", data_dir, tmp_path, metrics, EXPORTED[window, depth]
    )
    if lanes == 1:
        assert not executors
    elif lanes == 2:
        # train, evaluate and export-features share the caller's one worker
        assert len(executors) == 1


@pytest.mark.parametrize("lanes", LANE_MODES.values(), ids=LANE_MODES)
def test_a_committed_checkpoint_evaluates_and_exports_the_pinned_values(
    data_dir, tmp_path, monkeypatch, lanes
):
    force_lanes(monkeypatch, lanes)
    check_evaluate_and_export(V1_CHECKPOINT, data_dir, tmp_path, V1_METRICS, V1_EXPORTED)
