"""Self-tests of the benchmark: run with ``python -m pytest bench``.

A tiny run of every workload must print every metric of BENCHMARK.json
with its unit and direction, and a perturbed program output must make
the output checks, and the command, fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import synth
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    argv = [
        sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc, json.loads(proc.stdout.splitlines()[-1])


def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == workloads.LAYER_UNITS
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    proc, result = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    report = proc.stdout.splitlines()
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) and np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, metric["name"]
        line = next(l for l in report if l.split()[:1] == [metric["name"]])
        assert f" {metric['unit']} " in line and f"({metric['better']} is better)" in line


def test_synth_writes_the_stated_counts(tmp_path):
    shape = synth.scaled(synth.SHAPES["FD004"], 0.1)
    synth.write_subset(tmp_path, shape, seed=5)
    from tddn.cmapss import load_subset

    bundle = load_subset(tmp_path, "FD004")
    assert checks.count_problems(
        bundle, shape.n_train, shape.n_test, shape.train_rows, shape.test_rows
    ) == []
    again = tmp_path / "again"
    synth.write_subset(again, shape, seed=5)
    assert (again / "train_FD004.txt").read_bytes() == (tmp_path / "train_FD004.txt").read_bytes()


@pytest.fixture
def evaluated(tmp_path):
    """A tiny ``tddn evaluate`` output directory and its RUL file."""
    from tddn import cli
    from tddn.checkpoint import save_checkpoint
    from tddn.cmapss import load_subset
    from tddn.model import DegradationNetwork, ModelConfig
    from tddn.preprocess import LabelPolicy, fit_scaler, select_columns

    data = tmp_path / "data"
    synth.write_subset(data, synth.scaled(synth.SHAPES["FD004"], 0.05), seed=2)
    bundle = load_subset(data, "FD004")
    selection = select_columns("FD004")
    model = DegradationNetwork(ModelConfig(n_features=24), np.random.default_rng(0))
    model.regressor.children[-1].bias.value[...] = 60.0
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(
        ckpt, model, fit_scaler(bundle.train, selection), selection, LabelPolicy(), "FD004"
    )
    out = tmp_path / "out"
    argv = ["evaluate", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]
    assert cli.main(argv) == 0
    return out, data / "RUL_FD004.txt"


def test_unchanged_outputs_pass(evaluated):
    out, rul = evaluated
    problems, preds = checks.evaluate_problems(out, rul, 120)
    assert problems == []
    assert checks.last_prediction_problems(preds, dict(preds)) == ([], 0)


def test_perturbed_metrics_csv_fails(evaluated):
    out, rul = evaluated
    lines = (out / "metrics.csv").read_text().splitlines()
    rmse, score = lines[1].split(",")
    bumped = float(rmse) * (1 + 1e-9)
    (out / "metrics.csv").write_text(f"{lines[0]}\n{bumped!r},{score}\n")
    problems, _ = checks.evaluate_problems(out, rul, 120)
    assert any("rmse" in p for p in problems)


def test_perturbed_prediction_fails(evaluated):
    out, rul = evaluated
    text = (out / "predictions.csv").read_text().splitlines()
    fields = text[1].split(",")
    fields[2] = repr(float(fields[2]) + 0.5)
    (out / "predictions.csv").write_text("\n".join([text[0], ",".join(fields)] + text[2:]) + "\n")
    problems, preds = checks.evaluate_problems(out, rul, 120)
    assert problems
    curve_last = dict(preds)
    first = next(iter(curve_last))
    curve_last[first] = float(np.nextafter(curve_last[first], np.inf))
    assert checks.last_prediction_problems(curve_last, preds) == ([], 1)
    curve_last[first] += 1e-3
    assert checks.last_prediction_problems(curve_last, preds)[0]


def test_wrong_metrics_make_the_command_fail(monkeypatch, capsys):
    from tddn import cli

    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    real = cli._write_metrics
    monkeypatch.setattr(cli, "_write_metrics", lambda path, r, s: real(path, r + 1.0, s))
    argv = ["--workload", "evaluate-fd004", "--seed", "4", "--seconds", "1", "--trace", "0", "--tiny"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
