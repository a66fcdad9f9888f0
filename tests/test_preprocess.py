from __future__ import annotations

import logging

import numpy as np
import pytest

from tddn.cmapss import COLUMN_NAMES, EngineTrajectory
from tddn.preprocess import (
    LabelPolicy,
    Scaler,
    SensorSelection,
    apply_scaler,
    assign_rul_labels,
    fit_scaler,
    front_pad,
    select_columns,
)
from _synth import make_bundle, make_trajectory


class TestSelectColumns:
    def test_single_condition_subsets_keep_trending_columns(self):
        expected = (
            "setting_1", "setting_2",
            "sensor_2", "sensor_3", "sensor_4", "sensor_7", "sensor_8", "sensor_9",
            "sensor_11", "sensor_12", "sensor_13", "sensor_15", "sensor_17",
            "sensor_20", "sensor_21",
        )
        for subset in ("FD001", "FD003"):
            selection = select_columns(subset)
            assert selection.columns == expected
            assert selection.n_columns == 15

    def test_multi_condition_subsets_keep_everything(self):
        for subset in ("FD002", "FD004"):
            selection = select_columns(subset)
            assert selection.columns == COLUMN_NAMES
            assert selection.n_columns == 24

    def test_include_sensor_14(self):
        selection = select_columns("FD001", include_sensor_14=True)
        assert selection.n_columns == 16
        assert "sensor_14" in selection.columns
        # order stays sorted by sensor number
        idx = selection.columns.index("sensor_14")
        assert selection.columns[idx - 1] == "sensor_13"
        assert selection.columns[idx + 1] == "sensor_15"

    def test_indices_point_at_named_columns(self):
        selection = select_columns("FD001")
        for name, idx in zip(selection.columns, selection.indices):
            assert COLUMN_NAMES[idx] == name

    def test_bad_subset(self):
        with pytest.raises(ValueError, match="unknown subset"):
            select_columns("FD000")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SensorSelection(subset_id="FD001", columns=("sensor_2", "sensor_2"))

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError, match="unknown columns"):
            SensorSelection(subset_id="FD001", columns=("sensor_99",))


class TestScaler:
    def test_min_max_match_brute_force(self):
        bundle = make_bundle(n_train=4, seed=5)
        selection = select_columns("FD001")
        scaler = fit_scaler(bundle.train, selection)
        stacked = np.concatenate(
            [t.values[:, selection.indices] for t in bundle.train]
        )
        for k in range(selection.n_columns):
            lo = min(stacked[i, k] for i in range(stacked.shape[0]))
            hi = max(stacked[i, k] for i in range(stacked.shape[0]))
            assert scaler.col_min[k] == lo
            assert scaler.col_max[k] == hi

    def test_formula_matches_brute_force(self):
        bundle = make_bundle(n_train=3, seed=6)
        selection = select_columns("FD001")
        scaler = fit_scaler(bundle.train, selection)
        traj = bundle.train[1]
        scaled = apply_scaler(traj, scaler, selection)
        raw = traj.values[:, selection.indices]
        for i in range(raw.shape[0]):
            for k in range(raw.shape[1]):
                span = scaler.col_max[k] - scaler.col_min[k]
                expected = 2.0 * (raw[i, k] - scaler.col_min[k]) / span - 1.0
                assert scaled[i, k] == expected

    def test_training_values_hit_exact_bounds(self):
        bundle = make_bundle(n_train=5, seed=7)
        selection = select_columns("FD001")
        scaler = fit_scaler(bundle.train, selection)
        scaled_all = np.concatenate(
            [apply_scaler(t, scaler, selection) for t in bundle.train]
        )
        assert scaled_all.min() >= -1.0
        assert scaled_all.max() <= 1.0
        np.testing.assert_array_equal(scaled_all.max(axis=0), 1.0)
        np.testing.assert_array_equal(scaled_all.min(axis=0), -1.0)

    def test_test_values_may_leave_interval_unclipped(self):
        selection = SensorSelection(subset_id="FD001", columns=("sensor_2",))
        train = EngineTrajectory(unit_id=1, values=_traj_values(sensor_2=[1.0, 3.0]))
        scaler = fit_scaler([train], selection)
        test = EngineTrajectory(unit_id=2, values=_traj_values(sensor_2=[0.0, 5.0]))
        scaled = apply_scaler(test, scaler, selection)
        assert scaled[0, 0] == -2.0
        assert scaled[1, 0] == 3.0

    def test_degenerate_column_maps_to_zero_and_warns(self, caplog):
        selection = SensorSelection(subset_id="FD001", columns=("sensor_1", "sensor_2"))
        train = EngineTrajectory(
            unit_id=1, values=_traj_values(sensor_1=[4.0, 4.0], sensor_2=[1.0, 2.0])
        )
        with caplog.at_level(logging.WARNING, logger="tddn.preprocess"):
            scaler = fit_scaler([train], selection)
        assert "sensor_1" in caplog.text
        assert scaler.degenerate.tolist() == [True, False]
        scaled = apply_scaler(train, scaler, selection)
        np.testing.assert_array_equal(scaled[:, 0], 0.0)
        np.testing.assert_array_equal(scaled[:, 1], [-1.0, 1.0])

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError, match="zero trajectories"):
            fit_scaler([], select_columns("FD001"))

    def test_selection_mismatch_rejected(self):
        bundle = make_bundle(n_train=2, seed=8)
        scaler = fit_scaler(bundle.train, select_columns("FD001"))
        with pytest.raises(ValueError, match="mismatch"):
            apply_scaler(bundle.train[0], scaler, select_columns("FD002"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_selected_value_is_named(self, value):
        bundle = make_bundle(n_train=2, seed=9)
        selection = select_columns("FD001")
        scaler = fit_scaler(bundle.train, selection)
        values = bundle.train[1].values.copy()
        values[6, COLUMN_NAMES.index("sensor_7")] = value
        values[9, COLUMN_NAMES.index("sensor_2")] = value
        # the flat sensor_1 is not selected for FD001, so its NaNs are ignored
        values[:, COLUMN_NAMES.index("sensor_1")] = np.nan
        bad = EngineTrajectory(unit_id=2, values=values)
        message = f"engine 2, cycle 7: column sensor_7 is {value}, not a finite number"
        with pytest.raises(ValueError, match=message):
            fit_scaler([bundle.train[0], bad], selection)
        with pytest.raises(ValueError, match=message):
            apply_scaler(bad, scaler, selection)
        values[6, COLUMN_NAMES.index("sensor_7")] = 0.0
        values[9, COLUMN_NAMES.index("sensor_2")] = 0.0
        assert np.isfinite(apply_scaler(bad, scaler, selection)).all()


def _traj_values(**columns) -> np.ndarray:
    """A values matrix with the named columns set and the rest zero."""
    length = len(next(iter(columns.values())))
    values = np.zeros((length, 24))
    for name, data in columns.items():
        values[:, COLUMN_NAMES.index(name)] = data
    return values


class TestRulLabels:
    def test_matches_piecewise_formula(self):
        policy = LabelPolicy(r_max=120)
        for n in (1, 50, 120, 121, 250):
            labels = assign_rul_labels(n, policy)
            expected = [min(120, n - j) for j in range(1, n + 1)]
            np.testing.assert_array_equal(labels, expected)

    def test_run_to_failure_ends_at_zero(self):
        labels = assign_rul_labels(140, LabelPolicy())
        assert labels[-1] == 0.0
        assert labels[0] == 120.0
        assert labels.max() == 120.0

    def test_custom_cap(self):
        labels = assign_rul_labels(10, LabelPolicy(r_max=3))
        np.testing.assert_array_equal(labels[:7], 3.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="at least one cycle"):
            assign_rul_labels(0, LabelPolicy())
        with pytest.raises(ValueError, match="r_max"):
            LabelPolicy(r_max=0)


class TestPadding:
    def test_pads_with_first_row(self):
        # window 5: four pad rows, then the rows
        matrix = np.arange(12, dtype=np.float64).reshape(4, 3)
        out = np.full((8, 3), np.nan)
        front_pad(out, matrix)
        for i in range(5):
            np.testing.assert_array_equal(out[i], matrix[0])
        np.testing.assert_array_equal(out[4:], matrix)

    def test_window_one_is_identity(self):
        # rows as long as out: nothing is padded
        matrix = np.arange(6, dtype=np.float64).reshape(3, 2)
        out = np.full((3, 2), np.nan)
        front_pad(out, matrix)
        np.testing.assert_array_equal(out, matrix)

    def test_single_row_fills_out(self):
        row = np.array([[1.5, -2.0, 3.0]])
        out = np.full((6, 3), np.nan)
        front_pad(out, row)
        np.testing.assert_array_equal(out, np.repeat(row, 6, axis=0))


class TestSyntheticTrajectory:
    def test_trending_sensor_moves_flat_sensor_does_not(self):
        traj = make_trajectory(1, 120, 120, np.random.default_rng(0))
        idx = COLUMN_NAMES.index("sensor_2")
        flat_idx = COLUMN_NAMES.index("sensor_1")
        trend_span = np.ptp(traj.values[:, idx])
        flat_span = np.ptp(traj.values[:, flat_idx])
        assert trend_span > 10 * flat_span
