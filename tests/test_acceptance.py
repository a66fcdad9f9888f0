"""Acceptance suite: one test per shipping criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria that need the
official C-MAPSS text files skip (with a printed SKIP line) unless the data
directory is present; the two long-budget criteria additionally require
TDDN_RUN_FULL=1 because they train for real (minutes to hours).
"""

import math
import os
import shutil
import time

import numpy as np
import pytest

from tddn.cli import main
from tddn.cmapss import load_subset
from tddn.layers import Conv1d, Linear, MaxPool1d, ReLU, mse_loss
from tddn.metrics import evaluate_test, nasa_score, rmse
from tddn.model import DegradationNetwork, FeatureAttention, ModelConfig
from tddn.preprocess import LabelPolicy, apply_scaler, fit_scaler, select_columns
from tddn.training import Adam, TrainConfig, build_window_bank, train

from _synth import make_bundle, write_bundle
from conftest import find_cmapss_dir
from gradcheck import TOL, check_module_gradients

TINY = ModelConfig(window=8, n_features=3, conv_channels=(4, 8, 16))

SUBSET_ENGINE_COUNTS = {
    "FD001": (100, 100),
    "FD002": (260, 259),
    "FD003": (100, 100),
    "FD004": (259, 248),
}


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num} ({name}): {verdict} [{detail}]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _skip(num, name, reason):
    print(f"acceptance criterion {num} ({name}): SKIP [{reason}]")
    pytest.skip(reason)


def _data_dir_or_skip(num, name):
    found = find_cmapss_dir()
    if found is None:
        _skip(num, name, "official C-MAPSS text files not found; set CMAPSS_DATA")
    return found


def _full_budget_or_skip(num, name):
    if os.environ.get("TDDN_RUN_FULL") != "1":
        _skip(num, name, "long training budget; set TDDN_RUN_FULL=1 to run")


class TestCriterion1Gradients:
    def test_every_layer_and_full_model(self):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        draws = 0
        for _ in range(18):
            cases = (
                (Linear(4, 3, rng), rng.normal(size=(3, 4))),
                (ReLU(), rng.normal(size=(3, 5)) + 0.05),
                (Conv1d(2, 3, 2, rng), rng.normal(size=(2, 6, 2))),
                (MaxPool1d(), rng.normal(size=(2, 6, 3))),
                (FeatureAttention(3, 5, rng), rng.normal(size=(2, 4, 3))),
            )
            for module, x in cases:
                worst = max(worst, check_module_gradients(module, x, rng))
                draws += 1
        for _ in range(10):
            net = DegradationNetwork(TINY, np.random.default_rng(rng.integers(1 << 31)))
            x = rng.normal(size=(2, TINY.window, TINY.n_features))
            worst = max(worst, check_module_gradients(net, x, rng))
            draws += 1
        elapsed = time.perf_counter() - started
        ok = draws >= 100 and worst < TOL and elapsed < 60.0
        _report(
            1,
            "gradient checks",
            ok,
            f"{draws} draws, worst rel err {worst:.2e}, {elapsed:.1f}s",
        )


def _rmse_oracle(pred, true):
    total = math.fsum((p - t) ** 2 for p, t in zip(pred, true))
    return math.sqrt(total / len(pred))


def _score_oracle(pred, true):
    total = 0.0
    for p, t in zip(pred, true):
        d = p - t
        total += math.exp(-d / 13.0) - 1.0 if d < 0 else math.exp(d / 10.0) - 1.0
    return total


class TestCriterion2MetricOracles:
    def test_formulas_and_asymmetry(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 120))
            scale = float(rng.choice((5.0, 40.0, 125.0)))
            pred = rng.uniform(0.0, scale, n)
            true = rng.uniform(0.0, scale, n)
            for got, want in (
                (rmse(pred, true), _rmse_oracle(pred, true)),
                (nasa_score(pred, true), _score_oracle(pred, true)),
            ):
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        asymmetric = all(
            nasa_score([100.0 + x], [100.0]) > nasa_score([100.0 - x], [100.0])
            for x in range(1, 51)
        )
        ok = worst <= 1e-12 and asymmetric
        _report(
            2,
            "metric oracles",
            ok,
            f"1000 vectors, worst rel err {worst:.2e}, late>early for x=1..50: {asymmetric}",
        )


class TestCriterion3OfficialData:
    def test_pipeline_invariants_all_subsets(self):
        data_dir = _data_dir_or_skip(3, "official data pipeline")
        policy = LabelPolicy()
        checks = []
        for subset_id, (n_train, n_test) in SUBSET_ENGINE_COUNTS.items():
            bundle = load_subset(data_dir, subset_id)
            assert len(bundle.train) == n_train, subset_id
            assert len(bundle.test) == n_test, subset_id
            selection = select_columns(subset_id)
            scaler = fit_scaler(bundle.train, selection)
            config = ModelConfig(n_features=selection.n_columns)
            bank = build_window_bank(
                bundle.train, scaler, selection, policy, config.window
            )
            n_rows = sum(traj.n_cycles for traj in bundle.train)
            assert len(bank.labels) == n_rows, subset_id
            for traj in bundle.train:
                scaled = apply_scaler(traj, scaler, selection)
                assert scaled.min() >= -1.0 and scaled.max() <= 1.0, subset_id
            model = DegradationNetwork(config, np.random.default_rng(0))
            windows, _ = bank.gather(np.arange(64))
            trace = model.trace(windows)
            row_sums = trace.attention.sum(axis=1)
            np.testing.assert_allclose(row_sums, 1.0, atol=1e-9)
            checks.append(f"{subset_id}:{n_train}/{n_test} engines, {n_rows} windows")
        _report(3, "official data pipeline", True, "; ".join(checks))


class TestCriterion4Overfit:
    def test_ten_windows_drive_mse_below_one(self):
        bundle = make_bundle(n_train=3, n_test=1, seed=4)
        selection = select_columns("FD001")
        scaler = fit_scaler(bundle.train, selection)
        config = ModelConfig(window=16, n_features=15, conv_channels=(8, 16))
        bank = build_window_bank(
            bundle.train, scaler, selection, LabelPolicy(), config.window
        )
        picks = np.random.default_rng(0).choice(len(bank.labels), 10, replace=False)
        x, y = bank.gather(picks)
        model = DegradationNetwork(config, np.random.default_rng(0))
        optimizer = Adam(model.params())
        reached = None
        loss = math.inf
        for step in range(1, 501):
            pred = model.forward(x)
            loss, grad = mse_loss(pred, y)
            model.zero_grad()
            model.backward(grad)
            optimizer.step(1e-2)
            if loss < 1.0:
                reached = step
                break
        ok = reached is not None
        _report(
            4,
            "ten-window overfit",
            ok,
            f"mse {loss:.4f} after {reached or 500} steps (budget 500)",
        )


def _baseline_rmse(bundle, r_max):
    total = math.fsum((r_max - min(r_max, float(r))) ** 2 for r in bundle.test_rul)
    return math.sqrt(total / len(bundle.test_rul))


class TestCriterion5AbbreviatedTraining:
    @pytest.mark.slow
    def test_fd001_twenty_epochs_beats_baseline(self):
        data_dir = _data_dir_or_skip(5, "abbreviated FD001 training")
        bundle = load_subset(data_dir, "FD001")
        selection = select_columns("FD001")
        model_config = ModelConfig(n_features=selection.n_columns)
        result = train(bundle, model_config, TrainConfig(max_epochs=20), selection)
        evaluation = evaluate_test(
            result.model, bundle, result.scaler, selection, LabelPolicy()
        )
        baseline = _baseline_rmse(bundle, 120.0)
        ok = evaluation.rmse <= 25.0 and evaluation.rmse <= 0.6 * baseline
        _report(
            5,
            "abbreviated FD001 training",
            ok,
            f"rmse {evaluation.rmse:.3f} (cap 25.0), "
            f"constant-120 baseline {baseline:.3f} (need <= {0.6 * baseline:.3f})",
        )


class TestCriterion6FullBudget:
    @pytest.mark.fullbudget
    def test_fd001_five_seed_mean(self):
        data_dir = _data_dir_or_skip(6, "full-budget FD001")
        _full_budget_or_skip(6, "full-budget FD001")
        bundle = load_subset(data_dir, "FD001")
        selection = select_columns("FD001")
        model_config = ModelConfig(n_features=selection.n_columns)
        scores = []
        for seed in range(5):
            result = train(bundle, model_config, TrainConfig(seed=seed), selection)
            evaluation = evaluate_test(
                result.model, bundle, result.scaler, selection, LabelPolicy()
            )
            scores.append(evaluation.rmse)
        mean_rmse = float(np.mean(scores))
        ok = mean_rmse <= 13.0
        _report(
            6,
            "full-budget FD001",
            ok,
            f"mean rmse {mean_rmse:.3f} over seeds 0..4 "
            f"(per-seed {', '.join(f'{s:.2f}' for s in scores)})",
        )


class TestCriterion7Determinism:
    def test_rerun_reproduces_artifacts_byte_for_byte(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        write_bundle(make_bundle(seed=11), data_dir)
        out = tmp_path / "run"
        flags = [
            "train",
            "--subset", "FD001",
            "--data", str(data_dir),
            "--out", str(out),
            "--seed", "3",
            "--window", "8",
            "--depth", "2",
            "--epochs", "3",
            "--batch", "16",
        ]
        train_files = ("manifest.json", "model.ckpt", "training_log.csv")
        assert main(flags) == 0
        stash = tmp_path / "first"
        stash.mkdir()
        for name in train_files:
            shutil.copy(out / name, stash / name)
        assert main(flags) == 0

        eval_out = tmp_path / "eval"
        eval_flags = [
            "evaluate",
            "--checkpoint", str(out / "model.ckpt"),
            "--data", str(data_dir),
            "--out", str(eval_out),
        ]
        eval_files = ("manifest.json", "metrics.csv", "predictions.csv")
        assert main(eval_flags) == 0
        for name in eval_files:
            shutil.copy(eval_out / name, stash / f"eval_{name}")
        assert main(eval_flags) == 0

        mismatched = [
            name
            for name in train_files
            if (out / name).read_bytes() != (stash / name).read_bytes()
        ]
        mismatched += [
            f"eval {name}"
            for name in eval_files
            if (eval_out / name).read_bytes() != (stash / f"eval_{name}").read_bytes()
        ]
        ok = not mismatched
        _report(
            7,
            "bit-identical reruns",
            ok,
            "train + evaluate artifacts identical"
            if ok
            else f"differs: {', '.join(mismatched)}",
        )


class TestCriterion8WindowSweep:
    @pytest.mark.fullbudget
    def test_longer_windows_do_not_hurt(self):
        data_dir = _data_dir_or_skip(8, "window-size sweep")
        _full_budget_or_skip(8, "window-size sweep")
        bundle = load_subset(data_dir, "FD001")
        selection = select_columns("FD001")
        means = {}
        for window in (16, 32, 48, 64):
            model_config = ModelConfig(window=window, n_features=selection.n_columns)
            scores = []
            for seed in range(3):
                result = train(
                    bundle,
                    model_config,
                    TrainConfig(max_epochs=20, seed=seed),
                    selection,
                )
                evaluation = evaluate_test(
                    result.model, bundle, result.scaler, selection, LabelPolicy()
                )
                scores.append(evaluation.rmse)
            means[window] = float(np.mean(scores))
        ok = means[64] <= means[16]
        _report(
            8,
            "window-size sweep",
            ok,
            "mean rmse " + ", ".join(f"w={w}: {m:.3f}" for w, m in means.items()),
        )
