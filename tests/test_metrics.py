from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tddn.cmapss import COLUMN_NAMES, DatasetBundle, EngineTrajectory
from tddn.metrics import evaluate_test, last_windows, nasa_score, predict_engine, rmse
from tddn.model import DegradationNetwork, ModelConfig
from tddn.preprocess import (
    LabelPolicy,
    Scaler,
    apply_scaler,
    fit_scaler,
    select_columns,
    selection_matrix,
)
from tddn.training import build_window_bank
from _synth import make_bundle


def rmse_oracle(diffs) -> float:
    return math.sqrt(math.fsum(d * d for d in diffs) / len(diffs))


def score_oracle(diffs) -> float:
    terms = []
    for d in diffs:
        if d < 0:
            terms.append(math.exp(-d / 13.0) - 1.0)
        else:
            terms.append(math.exp(d / 10.0) - 1.0)
    return math.fsum(terms)


class TestRmse:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            pred = rng.normal(scale=60.0, size=n)
            true = rng.normal(scale=60.0, size=n)
            expected = rmse_oracle(pred - true)
            assert abs(rmse(pred, true) - expected) <= 1e-12 * max(1.0, expected)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=30)
        true = rng.normal(size=30)
        perm = rng.permutation(30)
        assert rmse(pred, true) == pytest.approx(rmse(pred[perm], true[perm]), abs=1e-12)

    def test_scales_linearly(self):
        rng = np.random.default_rng(2)
        d = rng.normal(size=20)
        base = rmse(d, np.zeros(20))
        assert rmse(3.0 * d, np.zeros(20)) == pytest.approx(3.0 * base, rel=1e-12)

    def test_zero_errors_give_zero(self):
        assert rmse(np.arange(5.0), np.arange(5.0)) == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="zero predictions"):
            rmse(np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError, match="shape"):
            rmse(np.zeros(3), np.zeros(2))


class TestNasaScore:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            pred = rng.normal(scale=50.0, size=n)
            true = rng.normal(scale=50.0, size=n)
            expected = score_oracle(pred - true)
            assert abs(nasa_score(pred, true) - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_exact_errors_score_zero(self):
        assert nasa_score(np.arange(4.0), np.arange(4.0)) == 0.0

    def test_late_predictions_cost_more(self):
        for x in range(1, 51):
            late = nasa_score(np.array([float(x)]), np.zeros(1))
            early = nasa_score(np.array([-float(x)]), np.zeros(1))
            assert late > early

    def test_single_term_values(self):
        assert nasa_score(np.array([10.0]), np.zeros(1)) == pytest.approx(
            math.e - 1.0, rel=1e-15
        )
        assert nasa_score(np.array([-13.0]), np.zeros(1)) == pytest.approx(
            math.e - 1.0, rel=1e-15
        )


@pytest.fixture(scope="module")
def setup():
    bundle = make_bundle(n_train=4, n_test=3, seed=40)
    selection = select_columns("FD001")
    scaler = fit_scaler(bundle.train, selection)
    config = ModelConfig(window=8, n_features=15, conv_channels=(4, 8))
    model = DegradationNetwork(config, np.random.default_rng(0))
    return bundle, selection, scaler, model


class TestEvaluateTest:
    def test_one_prediction_per_engine(self, setup):
        bundle, selection, scaler, model = setup
        result = evaluate_test(model, bundle, scaler, selection, LabelPolicy())
        assert result.pred.shape == (3,)
        assert result.true.shape == (3,)
        np.testing.assert_array_equal(
            result.unit_ids, [t.unit_id for t in bundle.test]
        )

    def test_untrained_model_still_yields_finite_metrics(self, setup):
        bundle, selection, scaler, model = setup
        result = evaluate_test(model, bundle, scaler, selection, LabelPolicy())
        assert np.isfinite(result.rmse)
        assert np.isfinite(result.nasa_score)

    def test_metrics_consistent_with_vectors(self, setup):
        bundle, selection, scaler, model = setup
        result = evaluate_test(model, bundle, scaler, selection, LabelPolicy())
        assert result.rmse == rmse(result.pred, result.true)
        assert result.nasa_score == nasa_score(result.pred, result.true)

    def test_predictions_clamped(self, setup):
        bundle, selection, scaler, model = setup
        policy = LabelPolicy(r_max=120)
        result = evaluate_test(model, bundle, scaler, selection, policy)
        assert (result.pred >= 0.0).all()
        assert (result.pred <= 120.0).all()

    def test_true_rul_cap_toggle(self, setup):
        bundle, selection, scaler, model = setup
        policy = LabelPolicy(r_max=7)
        capped = evaluate_test(model, bundle, scaler, selection, policy)
        raw = evaluate_test(model, bundle, scaler, selection, policy, cap_true_rul=False)
        np.testing.assert_array_equal(
            capped.true, np.minimum(bundle.test_rul.astype(float), 7.0)
        )
        np.testing.assert_array_equal(raw.true, bundle.test_rul.astype(float))

    def test_last_windows_match_padded_tail(self, setup):
        bundle, selection, scaler, model = setup
        window = model.config.window
        stacked = last_windows(bundle, scaler, selection, window)
        assert stacked.shape == (3, window, 15)
        for k, traj in enumerate(bundle.test):
            scaled = apply_scaler(traj, scaler, selection)
            padded = np.concatenate([np.repeat(scaled[:1], window - 1, axis=0), scaled])
            np.testing.assert_array_equal(stacked[k], padded[-window:])

    @pytest.mark.parametrize("lengths", [(3, 8, 20), (8,), (20, 9, 1)],
                             ids=["short-equal-long", "equal", "long-long-short"])
    def test_last_windows_are_those_of_the_full_bank(self, setup, lengths):
        bundle, selection, scaler, model = setup
        window = model.config.window
        source = make_bundle(n_test=len(lengths), min_len=20, max_len=30, seed=41).test
        test = tuple(replace(t, values=t.values[:n]) for t, n in zip(source, lengths))
        bank = build_window_bank(test, scaler, selection, LabelPolicy(), window)
        want = bank.gather(np.cumsum([t.n_cycles for t in test]) - 1)[0]
        got = last_windows(replace(bundle, test=test), scaler, selection, window)
        assert got.shape == want.shape == (len(lengths), window, 15)
        assert got.tobytes() == want.tobytes()

    def test_nan_before_the_last_window_is_named(self, setup):
        bundle, selection, scaler, model = setup
        engine = bundle.test[1]
        assert engine.n_cycles > model.config.window + 2
        values = engine.values.copy()
        values[2, selection.indices[3]] = np.nan
        test = (bundle.test[0], replace(engine, values=values)) + bundle.test[2:]
        message = f"engine {engine.unit_id}, cycle 3: column {selection.columns[3]} is nan"
        with pytest.raises(ValueError, match=message):
            evaluate_test(model, replace(bundle, test=test), scaler, selection, LabelPolicy())

    def test_predict_engine_full_curve(self, setup):
        bundle, selection, scaler, model = setup
        traj = bundle.test[0]
        policy = LabelPolicy()
        curve = predict_engine(model, traj, scaler, selection, policy)
        assert curve.shape == (traj.n_cycles,)
        assert (curve >= 0.0).all() and (curve <= 120.0).all()
        # last point agrees with the batched test-set path (after clamping)
        stacked = last_windows(bundle, scaler, selection, model.config.window)
        direct = float(np.clip(model.forward(stacked[:1])[0], 0.0, 120.0))
        assert curve[-1] == pytest.approx(direct, abs=1e-12)


def _first_selection_error(test, selection) -> str | None:
    """``selection_matrix``'s message for the first engine, in order, that it refuses."""
    for traj in test:
        try:
            selection_matrix(traj, selection)
        except ValueError as exc:
            return str(exc)
    return None


class TestLastWindowsDefinition:
    """``last_windows`` against its definition: the last window of each engine's full bank."""

    @given(data=st.data())
    def test_bytes_of_the_full_bank_or_the_first_bad_value_named(self, data):
        window = data.draw(st.integers(4, 12), label="window")
        near = st.sampled_from([window - 1, window, window + 1])
        lengths = data.draw(
            st.lists(near | st.integers(1, 3 * window), min_size=1, max_size=5), label="lengths"
        )
        selection = select_columns(data.draw(st.sampled_from(["FD001", "FD004"])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        scale = data.draw(st.sampled_from([1.0, 1e3, 1e-3]), label="scale")
        test = [
            EngineTrajectory(unit_id=i + 1, values=scale * rng.normal(size=(n, len(COLUMN_NAMES))))
            for i, n in enumerate(lengths)
        ]
        m = selection.n_columns
        col_min = scale * rng.normal(size=m)
        span = scale * rng.uniform(0.5, 2.0, size=m)
        degenerate = data.draw(st.lists(st.integers(0, m - 1), max_size=3), label="degenerate")
        span[degenerate] = 0.0
        scaler = Scaler(columns=selection.columns, col_min=col_min, col_max=col_min + span)
        for _ in range(data.draw(st.integers(0, 3), label="n_bad")):
            k = data.draw(st.integers(0, len(test) - 1), label="engine")
            row = data.draw(st.integers(0, test[k].n_cycles - 1), label="cycle")
            col = data.draw(st.integers(0, len(COLUMN_NAMES) - 1), label="column")
            test[k].values[row, col] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        bundle = DatasetBundle(
            subset_id=selection.subset_id, train=(), test=tuple(test),
            test_rul=np.zeros(len(test), dtype=np.int64),
        )
        message = _first_selection_error(test, selection)
        if message is not None:
            with pytest.raises(ValueError) as info:
                last_windows(bundle, scaler, selection, window)
            assert str(info.value) == message
            return
        bank = build_window_bank(test, scaler, selection, LabelPolicy(), window)
        want = bank.gather(np.cumsum(lengths) - 1)[0]
        got = last_windows(bundle, scaler, selection, window)
        assert got.shape == want.shape == (len(test), window, m)
        assert got.tobytes() == want.tobytes()
