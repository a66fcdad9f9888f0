from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tddn import __version__, cli
from tddn.cli import main
from tddn.cmapss import COLUMN_NAMES, SUBSET_IDS
from tddn.model import ModelConfig
from tddn.training import TrainConfig, TrainingError
from _synth import make_bundle, write_bundle

TINY_FLAGS = ["--window", "8", "--depth", "2", "--epochs", "2", "--batch", "16"]


def run(*argv: str) -> int:
    return main(list(argv))


def copy_with_value(
    data_dir: Path, to: Path, name: str, unit: int, cycle: int, column: str, token: str
) -> Path:
    """A copy of ``data_dir`` whose file ``name`` has ``token`` in one field."""
    shutil.copytree(data_dir, to)
    lines = (to / name).read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.split()[:2] == [str(unit), str(cycle)])
    fields = lines[i].split()
    fields[2 + COLUMN_NAMES.index(column)] = token
    lines[i] = " ".join(fields)
    (to / name).write_text("\n".join(lines) + "\n")
    return to


def copy_with_empty(data_dir: Path, to: Path, name: str) -> Path:
    """A copy of ``data_dir`` whose file ``name`` holds no data rows."""
    shutil.copytree(data_dir, to)
    (to / name).write_text("\n")
    return to


@pytest.fixture(scope="module")
def trained(synth_data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained_run")
    code = run(
        "train", "--data", str(synth_data_dir), "--out", str(out),
        "--subset", "FD001", "--seed", "1", *TINY_FLAGS,
    )
    assert code == 0
    return out


class TestTrainCommand:
    def test_writes_manifest_checkpoint_and_log(self, trained):
        assert (trained / "manifest.json").is_file()
        assert (trained / "model.ckpt").is_file()
        log_lines = (trained / "training_log.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,lr,train_loss,val_rmse"
        assert len(log_lines) == 3
        assert log_lines[1].startswith("1,0.0001,")

    def test_manifest_echoes_settings(self, trained, synth_data_dir):
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["window"] == 8
        assert manifest["depth"] == 2
        assert manifest["conv_channels"] == [32, 64]
        assert manifest["seed"] == 1
        assert manifest["subset"] == "FD001"
        assert manifest["data"] == str(synth_data_dir)
        assert len(manifest["columns"]) == 15

    def test_flagless_manifest_matches_dataclass_defaults(
        self, synth_data_dir, tmp_path, monkeypatch
    ):
        # the manifest is written before training; stop there instead of
        # running the full default budget
        def stop(*args):
            raise TrainingError("stopped after the manifest")

        monkeypatch.setattr(cli, "train", stop)
        out = tmp_path / "defaults"
        assert run("train", "--data", str(synth_data_dir), "--out", str(out)) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        model, config = ModelConfig(), TrainConfig()
        assert manifest["seed"] == config.seed
        assert manifest["window"] == model.window
        assert manifest["depth"] == model.depth
        assert manifest["conv_channels"] == list(model.conv_channels)
        assert manifest["epochs"] == config.max_epochs
        assert manifest["batch"] == config.batch_size
        assert manifest["lr_initial"] == config.lr_initial
        assert manifest["lr_reduced"] == config.lr_reduced
        assert manifest["patience"] == config.patience
        assert manifest["rmax"] == config.r_max

    def test_memory_error_exits_1_without_traceback(
        self, synth_data_dir, tmp_path, monkeypatch, capsys
    ):
        # faked: a real allocation that fails can commit gigabytes before it does
        def fail(*args):
            raise MemoryError("Unable to allocate 17.5 TiB for an array")

        monkeypatch.setattr(cli, "train", fail)
        assert run("train", "--data", str(synth_data_dir), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert "error: Unable to allocate 17.5 TiB for an array" in err
        assert "Traceback" not in err

    def test_missing_data_dir_exits_2_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        code = run("train", "--data", str(missing), "--out", str(tmp_path / "o"))
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_out_required(self, synth_data_dir, capsys):
        code = run("train", "--data", str(synth_data_dir))
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, synth_data_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", "--data", str(synth_data_dir), "--nonsense")
        assert exc.value.code == 2

    def test_window_override_recorded(self, synth_data_dir, tmp_path):
        out = tmp_path / "w16"
        code = run(
            "train", "--data", str(synth_data_dir), "--out", str(out),
            "--window", "16", "--depth", "2", "--epochs", "1", "--batch", "16",
        )
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["window"] == 16

    def test_infeasible_window_depth_exits_2(self, synth_data_dir, tmp_path, capsys):
        code = run(
            "train", "--data", str(synth_data_dir), "--out", str(tmp_path / "o"),
            "--window", "4", "--depth", "3",
        )
        assert code == 2
        assert "pool stage" in capsys.readouterr().err


    def test_nan_in_a_selected_column_exits_1(self, synth_data_dir, tmp_path, capsys):
        data = copy_with_value(
            synth_data_dir, tmp_path / "data", "train_FD001.txt", 3, 7, "sensor_2", "nan"
        )
        code = run("train", "--data", str(data), "--out", str(tmp_path / "o"), *TINY_FLAGS)
        assert code == 1
        err = capsys.readouterr().err
        assert "engine 3, cycle 7: column sensor_2 is nan" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "model.ckpt").exists()

    def test_non_ascii_byte_exits_1_naming_file_and_line(self, synth_data_dir, tmp_path, capsys):
        data = copy_with_value(
            synth_data_dir, tmp_path / "data", "train_FD001.txt", 3, 7, "sensor_2", "5x"
        )
        path = data / "train_FD001.txt"
        text = path.read_bytes()
        line_no = text[: text.index(b"5x")].count(b"\n") + 1
        path.write_bytes(text.replace(b"5x", "5\u00e9".encode("utf-8")))
        code = run("train", "--data", str(data), "--out", str(tmp_path / "o"), *TINY_FLAGS)
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: train_FD001.txt: line {line_no}: non-ASCII byte 0xc3" in err
        assert "Traceback" not in err

    def test_empty_train_file_exits_1_naming_it(self, synth_data_dir, tmp_path, capsys):
        data = copy_with_empty(synth_data_dir, tmp_path / "data", "train_FD001.txt")
        out = tmp_path / "o"
        assert run("train", "--data", str(data), "--out", str(out), *TINY_FLAGS) == 1
        err = capsys.readouterr().err
        assert "error: train_FD001.txt: no engines" in err
        assert "Traceback" not in err
        assert not (out / "model.ckpt").exists()

    def test_reads_only_the_train_file(self, trained, synth_data_dir, tmp_path):
        data, out = tmp_path / "data", tmp_path / "o"
        data.mkdir()
        shutil.copy(synth_data_dir / "train_FD001.txt", data)
        code = run(
            "train", "--data", str(data), "--out", str(out),
            "--subset", "FD001", "--seed", "1", *TINY_FLAGS,
        )
        assert code == 0
        for file_name in ("model.ckpt", "training_log.csv"):
            assert (out / file_name).read_bytes() == (trained / file_name).read_bytes()

    def test_nan_in_an_unselected_column_still_trains(self, trained, synth_data_dir, tmp_path):
        data = copy_with_value(
            synth_data_dir, tmp_path / "data", "train_FD001.txt", 3, 7, "sensor_1", "nan"
        )
        out = tmp_path / "o"
        code = run(
            "train", "--data", str(data), "--out", str(out),
            "--subset", "FD001", "--seed", "1", *TINY_FLAGS,
        )
        assert code == 0
        assert (out / "model.ckpt").read_bytes() == (trained / "model.ckpt").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, synth_data_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# tiny run\n"
            f"data = {synth_data_dir}\n"
            "window = 8\n"
            "depth = 2\n"
            "epochs = 1\n"
            "batch = 16\n"
        )
        out = tmp_path / "out"
        code = run("train", "--config", str(cfg), "--out", str(out), "--window", "16")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["window"] == 16  # flag beats config
        assert manifest["depth"] == 2  # config beats default

    def test_lowercase_subset_trains_and_evaluates(self, trained, synth_data_dir, tmp_path):
        # one config file for both commands; the run matches `--subset FD001`
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"data = {synth_data_dir}\n"
            "subset = fd001\n"
            "seed = 1\n"
            "window = 8\n"
            "depth = 2\n"
            "epochs = 2\n"
            "batch = 16\n"
        )
        out = tmp_path / "out"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        assert json.loads((out / "manifest.json").read_text())["subset"] == "FD001"
        assert (out / "model.ckpt").read_bytes() == (trained / "model.ckpt").read_bytes()
        code = run(
            "evaluate", "--config", str(cfg), "--checkpoint", str(out / "model.ckpt"),
            "--out", str(tmp_path / "eval"),
        )
        assert code == 0

    def test_unknown_config_subset(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("subset = FD009\n")
        code = run("train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "config key subset: unknown subset 'FD009'" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("windou = 8\n")
        code = run("train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "windou" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("window 8\n")
        code = run("train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = run("train", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path))
        assert code == 2


class TestEvaluateCommand:
    def test_writes_predictions_and_metrics(self, trained, synth_data_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run(
            "evaluate", "--checkpoint", str(trained / "model.ckpt"),
            "--data", str(synth_data_dir), "--out", str(out),
        )
        assert code == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines[0] == "engine_id,true_rul,pred_rul,d"
        assert len(lines) == 5  # four synthetic test engines
        # summary matches a direct recomputation from the per-engine rows
        diffs = [float(line.split(",")[3]) for line in lines[1:]]
        expected_rmse = math.sqrt(math.fsum(d * d for d in diffs) / len(diffs))
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "rmse,nasa_score"
        reported_rmse = float(metrics[1].split(",")[0])
        assert reported_rmse == pytest.approx(expected_rmse, abs=1e-12)
        assert "rmse" in capsys.readouterr().out

    def test_empty_test_file_exits_1_naming_it(self, trained, synth_data_dir, tmp_path, capsys):
        data = copy_with_empty(synth_data_dir, tmp_path / "data", "test_FD001.txt")
        out = tmp_path / "o"
        code = run(
            "evaluate", "--checkpoint", str(trained / "model.ckpt"),
            "--data", str(data), "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: test_FD001.txt: no engines" in err
        assert "Traceback" not in err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("command, edit, message", [
        ("evaluate", lambda data: (data / "test_FD001.txt").write_text("1 1 0.5\n"),
         "error: test_FD001.txt: line 1: expected 26 columns, got 3"),
        ("evaluate", lambda data: (data / "RUL_FD001.txt").unlink(), "RUL_FD001.txt"),
        ("train", lambda data: (data / "train_FD001.txt").write_text("1 2 3\n"),
         "error: train_FD001.txt: line 1: expected 26 columns, got 3"),
        ("sweep", lambda data: (data / "test_FD001.txt").write_text("1 1 0.5\n"),
         "error: test_FD001.txt: line 1: expected 26 columns, got 3"),
        ("sweep", lambda data: (data / "RUL_FD001.txt").unlink(), "RUL_FD001.txt"),
    ], ids=[
        "malformed-test", "missing-rul", "train-malformed-train", "sweep-malformed-test",
        "sweep-missing-rul",
    ])
    def test_unreadable_input_writes_no_manifest(
        self, command, edit, message, trained, synth_data_dir, tmp_path, capsys
    ):
        # every command reads its inputs before it writes anything
        data, out = tmp_path / "data", tmp_path / "o"
        shutil.copytree(synth_data_dir, data)
        edit(data)
        flags = {
            "evaluate": ["--checkpoint", str(trained / "model.ckpt")],
            "train": TINY_FLAGS,
            "sweep": ["--dim", "window", "--values", "8", "--repeats", "1", "--epochs", "1"],
        }[command]
        code = run(command, "--data", str(data), "--out", str(out), *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda path: path.unlink(),
        lambda path: path.write_text("1 1 not-a-number\n"),
    ], ids=["deleted", "malformed"])
    def test_reads_no_train_file(self, edit, trained, synth_data_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_data_dir, data)
        edit(data / "train_FD001.txt")
        outs = {}
        for name, data_dir in (("full", synth_data_dir), ("no-train", data)):
            outs[name] = tmp_path / name
            code = run(
                "evaluate", "--checkpoint", str(trained / "model.ckpt"),
                "--data", str(data_dir), "--out", str(outs[name]),
            )
            assert code == 0
        for file_name in ("predictions.csv", "metrics.csv"):
            assert (outs["no-train"] / file_name).read_bytes() == (
                outs["full"] / file_name
            ).read_bytes()

    def test_subset_mismatch_exits_2(self, trained, synth_data_dir, tmp_path, capsys):
        code = run(
            "evaluate", "--checkpoint", str(trained / "model.ckpt"),
            "--data", str(synth_data_dir), "--out", str(tmp_path / "o"),
            "--subset", "FD002",
        )
        assert code == 2
        assert "FD001" in capsys.readouterr().err

    def test_corrupted_checkpoint_exits_1(self, trained, synth_data_dir, tmp_path, capsys):
        blob = bytearray((trained / "model.ckpt").read_bytes())
        blob[-3] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        code = run(
            "evaluate", "--checkpoint", str(bad),
            "--data", str(synth_data_dir), "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert "checksum" in capsys.readouterr().err

    def test_header_not_an_object_exits_1(self, trained, synth_data_dir, tmp_path, capsys):
        blob = (trained / "model.ckpt").read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = b"[" + blob[12 : 12 + header_len] + b"]"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + header_len :])
        code = run(
            "evaluate", "--checkpoint", str(bad),
            "--data", str(synth_data_dir), "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert "bad.ckpt: header is not a JSON object" in capsys.readouterr().err

    def test_non_string_subset_id_exits_1(self, trained, synth_data_dir, tmp_path, capsys):
        blob = (trained / "model.ckpt").read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        header["subset_id"] = 5
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + header_len :])
        code = run(
            "evaluate", "--checkpoint", str(bad),
            "--data", str(synth_data_dir), "--out", str(tmp_path / "o"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "bad.ckpt: subset_id must be a string, got 5" in err
        assert "Traceback" not in err

    def test_unit_id_beyond_float64_exits_1(self, trained, synth_data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(synth_data_dir, data)
        # the last test engine becomes unit 1e19, so the file is otherwise well formed
        lines = (data / "test_FD001.txt").read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("4 "))
        lines[first:] = ["1e19" + line[1:] for line in lines[first:]]
        (data / "test_FD001.txt").write_text("\n".join(lines) + "\n")
        code = run(
            "evaluate", "--checkpoint", str(trained / "model.ckpt"),
            "--data", str(data), "--out", str(tmp_path / "o"),
        )
        assert code == 1
        expected = f"test_FD001.txt: line {first + 1}: unit id must be below 2**53, got '1e19'"
        assert expected in capsys.readouterr().err

    def test_inf_in_a_selected_column_exits_1(self, trained, synth_data_dir, tmp_path, capsys):
        data = copy_with_value(
            synth_data_dir, tmp_path / "data", "test_FD001.txt", 2, 3, "setting_1", "inf"
        )
        code = run(
            "evaluate", "--checkpoint", str(trained / "model.ckpt"),
            "--data", str(data), "--out", str(tmp_path / "o"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "engine 2, cycle 3: column setting_1 is inf" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    def test_missing_checkpoint_exits_2(self, synth_data_dir, tmp_path):
        code = run(
            "evaluate", "--checkpoint", str(tmp_path / "none.ckpt"),
            "--data", str(synth_data_dir), "--out", str(tmp_path / "o"),
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["evaluate", "export-features"])
    def test_checkpoint_directory_exits_2(self, command, synth_data_dir, tmp_path, capsys):
        engine = ["--engine", "1"] if command == "export-features" else []
        code = run(
            command, "--checkpoint", str(tmp_path), "--data", str(synth_data_dir),
            "--out", str(tmp_path / "o"), *engine,
        )
        assert code == 2
        assert f"error: checkpoint is not a file: {tmp_path}" in capsys.readouterr().err


class TestSweepCommand:
    def test_window_sweep_summary(self, synth_data_dir, tmp_path):
        out = tmp_path / "sweep"
        code = run(
            "sweep", "--data", str(synth_data_dir), "--out", str(out),
            "--dim", "window", "--values", "8,16", "--repeats", "1",
            "--depth", "2", "--epochs", "1", "--batch", "16",
        )
        assert code == 0
        runs = (out / "runs.csv").read_text().splitlines()
        assert runs[0] == "value,seed,rmse,nasa_score,seconds,best_epoch,n_epochs"
        assert len(runs) == 3
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "value,repeats,mean_rmse,mean_score,mean_seconds"
        assert len(summary) == 3
        # repeats=1: the per-run value equals the mean
        for run_line, summary_line in zip(runs[1:], summary[1:]):
            assert run_line.split(",")[2] == summary_line.split(",")[2]
        for value in (8, 16):
            run_dir = out / f"window_{value}_seed_0"
            assert (run_dir / "training_log.csv").is_file()
            assert (run_dir / "metrics.csv").is_file()
            assert not (run_dir / "model.ckpt").exists()

    def test_empty_test_file_exits_1_before_any_run(self, synth_data_dir, tmp_path, capsys):
        data = copy_with_empty(synth_data_dir, tmp_path / "data", "test_FD001.txt")
        out = tmp_path / "o"
        code = run(
            "sweep", "--data", str(data), "--out", str(out),
            "--dim", "window", "--values", "8", "--repeats", "1", "--epochs", "1",
        )
        assert code == 1
        assert "error: test_FD001.txt: no engines" in capsys.readouterr().err
        assert not (out / "window_8_seed_0").exists()

    def test_invalid_window_value_exits_2(self, synth_data_dir, tmp_path):
        code = run(
            "sweep", "--data", str(synth_data_dir), "--out", str(tmp_path / "o"),
            "--dim", "window", "--values", "3,16",
        )
        assert code == 2

    def test_invalid_depth_value_exits_2(self, synth_data_dir, tmp_path):
        code = run(
            "sweep", "--data", str(synth_data_dir), "--out", str(tmp_path / "o"),
            "--dim", "depth", "--values", "0",
        )
        assert code == 2

    def test_bad_values_list_is_usage_error(self, synth_data_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(
                "sweep", "--data", str(synth_data_dir), "--out", str(tmp_path / "o"),
                "--dim", "window", "--values", "8,abc",
            )
        assert exc.value.code == 2


class TestExportFeaturesCommand:
    def test_exports_three_csvs(self, trained, synth_data_dir, tmp_path):
        out = tmp_path / "features"
        code = run(
            "export-features", "--checkpoint", str(trained / "model.ckpt"),
            "--data", str(synth_data_dir), "--out", str(out),
            "--engine", "2", "--split", "test",
        )
        assert code == 0
        bundle = make_bundle()
        n = next(t.n_cycles for t in bundle.test if t.unit_id == 2)

        attention = (out / "attention.csv").read_text().splitlines()
        assert attention[0] == "cycle," + ",".join(f"weight_{i}" for i in range(1, 9))
        assert len(attention) == n + 1
        for line in attention[1:]:
            weights = [float(v) for v in line.split(",")[1:]]
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-9)

        abstract = (out / "abstract_features.csv").read_text().splitlines()
        assert abstract[0].startswith("cycle,row,feat_1")
        assert len(abstract) == n * 8 + 1

        temporal = (out / "temporal_features.csv").read_text().splitlines()
        assert temporal[0].startswith("cycle,step,ch_1")
        assert len(temporal) == n * 2 + 1  # window 8 pooled twice

    def test_absent_engine_exits_2(self, trained, synth_data_dir, tmp_path, capsys):
        code = run(
            "export-features", "--checkpoint", str(trained / "model.ckpt"),
            "--data", str(synth_data_dir), "--out", str(tmp_path / "o"),
            "--engine", "999",
        )
        assert code == 2
        assert "999" in capsys.readouterr().err

    def test_absent_engine_writes_no_manifest(self, trained, synth_data_dir, tmp_path):
        out = tmp_path / "o"
        code = run(
            "export-features", "--checkpoint", str(trained / "model.ckpt"),
            "--data", str(synth_data_dir), "--out", str(out), "--engine", "999",
        )
        assert code == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("split, unused", [
        ("train", ("test_FD001.txt", "RUL_FD001.txt")),
        ("test", ("train_FD001.txt",)),
    ], ids=["train", "test"])
    def test_reads_only_its_split(self, split, unused, trained, synth_data_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_data_dir, data)
        for name in unused:
            (data / name).unlink()
        outs = {}
        for name, data_dir in (("full", synth_data_dir), ("one-file", data)):
            outs[name] = tmp_path / name
            code = run(
                "export-features", "--checkpoint", str(trained / "model.ckpt"),
                "--data", str(data_dir), "--out", str(outs[name]),
                "--engine", "2", "--split", split,
            )
            assert code == 0
        for file_name in ("attention.csv", "temporal_features.csv", "abstract_features.csv"):
            assert (outs["one-file"] / file_name).read_bytes() == (
                outs["full"] / file_name
            ).read_bytes()

    def test_deterministic_bytes(self, trained, synth_data_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run(
                "export-features", "--checkpoint", str(trained / "model.ckpt"),
                "--data", str(synth_data_dir), "--out", str(out),
                "--engine", "1", "--split", "train",
            )
            assert code == 0
            outs.append(out)
        for file_name in ("attention.csv", "temporal_features.csv", "abstract_features.csv"):
            assert (outs[0] / file_name).read_bytes() == (outs[1] / file_name).read_bytes()


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "tddn" in capsys.readouterr().out


class TestOutPath:
    COMMANDS = ["train", "evaluate", "sweep", "export-features"]

    @staticmethod
    def refused(command, below, trained, tmp_path, capsys) -> None:
        """``--out`` names the file ``taken``, or a path ``below`` it: exit 2, file kept."""
        # the data directory holds no files, so reading any input would exit 1
        data, taken = tmp_path / "data", tmp_path / "taken"
        data.mkdir()
        taken.write_text("kept\n")
        flags = {
            "train": [],
            "evaluate": ["--checkpoint", str(trained / "model.ckpt")],
            "sweep": ["--dim", "window", "--values", "8"],
            "export-features": ["--checkpoint", str(trained / "model.ckpt"), "--engine", "1"],
        }[command]
        code = run(command, "--data", str(data), "--out", str(taken / below), *flags)
        assert code == 2
        assert f"error: output path is not a directory: {taken}\n" in capsys.readouterr().err
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_naming_a_file_exits_2_before_reading_input(
        self, command, trained, tmp_path, capsys
    ):
        self.refused(command, "", trained, tmp_path, capsys)

    @pytest.mark.parametrize("below", ["sub", "sub/deeper"], ids=["one", "two"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_below_a_file_exits_2_before_reading_input(
        self, command, below, trained, tmp_path, capsys
    ):
        self.refused(command, below, trained, tmp_path, capsys)

    def test_out_below_missing_directories_is_made(self, trained, synth_data_dir, tmp_path):
        out = tmp_path / "a" / "b" / "eval"
        code = run(
            "evaluate", "--checkpoint", str(trained / "model.ckpt"),
            "--data", str(synth_data_dir), "--out", str(out),
        )
        assert code == 0
        assert (out / "metrics.csv").is_file()


class TestDataPath:
    @pytest.mark.parametrize(
        "make, message",
        [(None, "data directory does not exist"), ("file", "data path is not a directory")],
        ids=["missing", "file"],
    )
    def test_data_not_a_directory_exits_2(self, make, message, tmp_path, capsys):
        data = tmp_path / "train_FD001.txt"
        if make == "file":
            data.write_text("")
        assert run("train", "--data", str(data), "--out", str(tmp_path / "o")) == 2
        assert f"error: {message}: {data}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def run_module(*argv: str) -> subprocess.CompletedProcess:
    """``python -m tddn.cli`` in a fresh interpreter that imports this package."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "tddn.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )


class TestModuleRun:
    def test_version(self):
        done = run_module("--version")
        assert done.returncode == 0
        assert done.stdout == f"tddn {__version__}\n"

    def test_usage_error_exits_2(self, tmp_path):
        missing = tmp_path / "nowhere"
        done = run_module("train", "--data", str(missing), "--out", str(tmp_path / "o"))
        assert done.returncode == 2
        assert f"error: data directory does not exist: {missing}" in done.stderr


PINNED = json.loads((Path(__file__).with_name("pinned_cli_outputs.json")).read_text())


def stop_before_training(monkeypatch) -> None:
    """Every command writes its manifest once its inputs have loaded and
    before any training; end the run right after it."""

    def stop(*args):
        raise TrainingError("stopped after the manifest")

    monkeypatch.setattr(cli, "train", stop)


def read_manifest(out, **paths) -> dict:
    """manifest.json, with the run's paths and the version as placeholders."""
    names = {str(out): "<out>", __version__: "<version>"}
    names.update((str(path), f"<{name}>") for name, path in paths.items())
    manifest = json.loads((out / "manifest.json").read_text())
    return {k: names.get(v, v) if isinstance(v, str) else v for k, v in manifest.items()}


class TestPinnedOutputs:
    """Whole manifests and the checkpoint's model config, pinned in
    ``pinned_cli_outputs.json`` so that changes to the settings code cannot
    alter them unnoticed."""

    def test_train_defaults(self, synth_data_dir, tmp_path, monkeypatch):
        stop_before_training(monkeypatch)
        out = tmp_path / "o"
        assert run("train", "--data", str(synth_data_dir), "--out", str(out)) == 1
        assert read_manifest(out, data=synth_data_dir) == PINNED["manifests"]["train-defaults"]

    def test_train(self, trained, synth_data_dir):
        manifest = read_manifest(trained, data=synth_data_dir)
        assert manifest == PINNED["manifests"]["train-tiny"]

    def test_checkpoint_config(self, trained):
        blob = (trained / "model.ckpt").read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        assert header["config"] == PINNED["checkpoint_config"]

    def test_evaluate(self, trained, synth_data_dir, tmp_path):
        out, checkpoint = tmp_path / "o", trained / "model.ckpt"
        code = run(
            "evaluate", "--checkpoint", str(checkpoint),
            "--data", str(synth_data_dir), "--out", str(out),
        )
        assert code == 0
        manifest = read_manifest(out, data=synth_data_dir, checkpoint=checkpoint)
        assert manifest == PINNED["manifests"]["evaluate"]

    def test_sweep(self, synth_data_dir, tmp_path, monkeypatch):
        stop_before_training(monkeypatch)
        out = tmp_path / "o"
        code = run(
            "sweep", "--data", str(synth_data_dir), "--out", str(out),
            "--dim", "window", "--values", "8,16", "--repeats", "1",
            "--depth", "2", "--epochs", "1", "--batch", "16",
        )
        assert code == 1
        assert read_manifest(out, data=synth_data_dir) == PINNED["manifests"]["sweep"]

    def test_export_features(self, trained, synth_data_dir, tmp_path):
        out, checkpoint = tmp_path / "o", trained / "model.ckpt"
        code = run(
            "export-features", "--checkpoint", str(checkpoint),
            "--data", str(synth_data_dir), "--out", str(out),
            "--engine", "2", "--split", "test",
        )
        assert code == 0
        manifest = read_manifest(out, data=synth_data_dir, checkpoint=checkpoint)
        assert manifest == PINNED["manifests"]["export-features"]


class TestRefusedSettings:
    """Settings TrainConfig refuses end the run with exit 2 before any artifact."""

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--lr=nan", "learning rates must be positive and finite"),
            ("--lr=inf", "learning rates must be positive and finite"),
            ("--lr=-inf", "learning rates must be positive and finite"),
            ("--lr=5e-324", "got 5e-324 and its tenth 0.0"),
            ("--seed=-1", "seed must be >= 0, got -1"),
            ("--rmax=0", "r_max must be positive, got 0"),
            ("--rmax=9223372036854775808", "r_max must be below 2**53, got 9223372036854775808"),
        ],
        ids=[
            "lr-nan", "lr-inf", "lr-minus-inf", "lr-tenth-zero", "seed-minus-1", "rmax-0",
            "rmax-2**63",
        ],
    )
    def test_exits_2_without_manifest(
        self, command, flag, message, synth_data_dir, tmp_path, capsys
    ):
        out = tmp_path / "o"
        sweep = ["--dim", "window", "--values", "8"] if command == "sweep" else []
        code = run(command, "--data", str(synth_data_dir), "--out", str(out), *sweep, flag)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_config_file_nan_lr(self, synth_data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {synth_data_dir}\nlr = nan\n")
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 2
        assert "learning rates must be positive and finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestConfigFileErrors:
    def test_not_utf8_exits_2_naming_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfewindow = 8\n")
        code = run("train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}: not UTF-8" in err
        assert "Traceback" not in err

    def test_byte_order_mark_is_accepted(self, synth_data_dir, tmp_path):
        text = f"data = {synth_data_dir}\nwindow = 8\ndepth = 2\nepochs = 1\nbatch = 16\n"
        checkpoints = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(prefix + text.encode("utf-8"))
            out = tmp_path / name
            assert run("train", "--config", str(cfg), "--out", str(out)) == 0
            checkpoints.append((out / "model.ckpt").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_duplicate_key_names_both_lines(self, synth_data_dir, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(f"data = {synth_data_dir}\nwindow = 8\n# again\nwindow = 16\n")
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 2
        assert f"{cfg}:4: config key 'window' already set on line 2" in capsys.readouterr().err
        assert not out.exists()


class TestSubsetFlag:
    def test_any_case_trains_like_upper_case(self, trained, synth_data_dir, tmp_path):
        out = tmp_path / "lower"
        code = run(
            "train", "--data", str(synth_data_dir), "--out", str(out),
            "--subset", "fd001", "--seed", "1", *TINY_FLAGS,
        )
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["subset"] == "FD001"
        assert (out / "model.ckpt").read_bytes() == (trained / "model.ckpt").read_bytes()

    def test_evaluate_accepts_any_case(self, trained, synth_data_dir, tmp_path):
        code = run(
            "evaluate", "--checkpoint", str(trained / "model.ckpt"),
            "--data", str(synth_data_dir), "--out", str(tmp_path / "o"), "--subset", "Fd001",
        )
        assert code == 0

    def test_evaluate_defaults_to_checkpoint_subset(self, tmp_path):
        data, run_dir, out = tmp_path / "data", tmp_path / "run", tmp_path / "eval"
        write_bundle(make_bundle("FD003"), data)
        code = run(
            "train", "--data", str(data), "--out", str(run_dir), "--subset", "FD003",
            "--window", "8", "--depth", "1", "--epochs", "1",
        )
        assert code == 0
        code = run(
            "evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
            "--data", str(data), "--out", str(out),
        )
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["subset"] == "FD003"

    def test_unknown_subset_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("train", "--out", str(tmp_path / "o"), "--subset", "FD009")
        assert exc.value.code == 2
        assert "unknown subset 'FD009'" in capsys.readouterr().err


class TestSweepManifest:
    @pytest.mark.parametrize("flags, absent, shared", [
        (["--dim", "window", "--values", "8,16", "--depth", "2"], {"window", "attention_hidden"},
         {"values": [8, 16], "depth": 2, "conv_channels": [32, 64]}),
        (["--dim", "depth", "--values", "1,2", "--window", "8"], {"depth", "conv_channels"},
         {"values": [1, 2], "window": 8, "attention_hidden": 8}),
        # the default depth 3 does not fit window 4, but no run uses it
        (["--dim", "depth", "--values", "1", "--window", "4"], {"depth"},
         {"values": [1], "window": 4, "attention_hidden": 4, "conv_channels": [32]}),
    ], ids=["window", "depth", "depth-1-window-4"])
    def test_records_what_every_run_shares(
        self, flags, absent, shared, synth_data_dir, tmp_path, monkeypatch, capsys
    ):
        stop_before_training(monkeypatch)
        out = tmp_path / "o"
        code = run("sweep", "--data", str(synth_data_dir), "--out", str(out), *flags)
        assert code == 1
        assert "error: stopped after the manifest" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert absent.isdisjoint(manifest)
        assert {key: manifest[key] for key in shared} == shared

    @pytest.mark.parametrize("flags, expected", [([], True), (["--no-cap-true-rul"], False)])
    def test_records_cap_true_rul(self, flags, expected, synth_data_dir, tmp_path, monkeypatch):
        stop_before_training(monkeypatch)
        out = tmp_path / "o"
        code = run(
            "sweep", "--data", str(synth_data_dir), "--out", str(out),
            "--dim", "depth", "--values", "1", *flags,
        )
        assert code == 1
        assert json.loads((out / "manifest.json").read_text())["cap_true_rul"] is expected


# each command's flags and config keys; adding or dropping one changes the CLI
COMMAND_FLAGS = {
    "train": {
        "--config", "--data", "--out", "--subset", "--seed", "--window", "--depth",
        "--epochs", "--batch", "--lr", "--patience", "--rmax", "--include-sensor-14",
    },
    "evaluate": {
        "--config", "--data", "--out", "--checkpoint", "--subset", "--no-cap-true-rul",
    },
    "export-features": {
        "--config", "--data", "--out", "--checkpoint", "--engine", "--split",
    },
}
COMMAND_FLAGS["sweep"] = COMMAND_FLAGS["train"] | {
    "--dim", "--values", "--repeats", "--no-cap-true-rul",
}
COMMAND_KEYS = {
    "train": {
        "subset", "data", "out", "seed", "window", "depth", "epochs", "batch", "lr",
        "patience", "rmax", "include_sensor_14",
    },
    "evaluate": {"data", "out", "subset", "no_cap_true_rul"},
    "export-features": {"data", "out"},
}
COMMAND_KEYS["sweep"] = COMMAND_KEYS["train"] | {"repeats", "no_cap_true_rul"}


class TestSettingsTable:
    def test_each_setting_has_one_row(self):
        names = [s.name for s in cli.SETTINGS]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_flags_and_config_keys_per_command(self, command):
        (subparsers,) = [
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        flags = {f for a in subparsers.choices[command]._actions for f in a.option_strings}
        assert flags - {"-h", "--help"} == COMMAND_FLAGS[command]
        keys = {s.name for s in cli._settings_of(command) if s.in_file}
        assert keys == COMMAND_KEYS[command]

    def test_config_file_takes_every_key(self):
        # one file serves train and evaluate; keys other commands take are ignored
        assert cli._FILE_KEYS == set.union(*COMMAND_KEYS.values())

    def test_train_selects_columns_once(self, synth_data_dir, tmp_path, monkeypatch):
        calls = []
        real = cli.select_columns
        monkeypatch.setattr(cli, "select_columns", lambda *a: calls.append(a) or real(*a))
        code = run(
            "train", "--data", str(synth_data_dir), "--out", str(tmp_path / "o"),
            "--epochs", "1", "--window", "8", "--depth", "1",
        )
        assert code == 0
        assert calls == [("FD001", False)]

    def test_evaluate_reads_config_once(self, trained, synth_data_dir, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data = {synth_data_dir}\nsubset = fd001\n")
        calls = []
        real = cli._read_config
        monkeypatch.setattr(cli, "_read_config", lambda path: calls.append(path) or real(path))
        code = run(
            "evaluate", "--config", str(cfg), "--checkpoint", str(trained / "model.ckpt"),
            "--out", str(tmp_path / "o"),
        )
        assert code == 0
        assert calls == [str(cfg)]


FUZZ_VALUES = [
    "8", " 16 ", "0", "-1", "3.5", "1e3", "nan", "inf", "1e-3", "", "x", "true", "No",
    "maybe", "fd001", "FD004", "FD009", "a=b", "9" * 5000,
]
_fuzz_keys = st.sampled_from(sorted(cli._FILE_KEYS))
_fuzz_pair = st.tuples(_fuzz_keys, st.sampled_from(FUZZ_VALUES))
_fuzz_junk = st.one_of(
    st.text(max_size=20), st.sampled_from(["# comment", "", "window", "windou = 8", "= 8"])
)
_fuzz_text = st.one_of(
    # known keys, each once: only a value can be wrong
    st.lists(_fuzz_pair, max_size=8, unique_by=lambda kv: kv[0]).map(
        lambda pairs: [f"{k} = {v}" for k, v in pairs]
    ),
    # known keys, some given twice
    st.lists(_fuzz_pair.map(" = ".join), min_size=2, max_size=8),
    # unknown keys, lines without '=', comments and blanks
    st.lists(
        st.one_of(_fuzz_pair, st.tuples(_fuzz_keys, st.text(max_size=12))).map("=".join)
        | _fuzz_junk,
        max_size=8,
    ),
).map(lambda lines: "\n".join(lines).encode())
FUZZ_FILES = st.one_of(
    _fuzz_text,
    st.binary(max_size=64),
    # a valid-looking file with stray bytes spliced in (mostly not UTF-8)
    st.tuples(_fuzz_text, st.binary(min_size=1, max_size=4), st.integers(0, 200)).map(
        lambda t: t[0][: t[2]] + t[1] + t[0][t[2]:]
    ),
)
FUZZ_REQUIRED = {
    "train": [],
    "sweep": ["--dim", "window", "--values", "8"],
    "evaluate": ["--checkpoint", "x.ckpt"],
    "export-features": ["--checkpoint", "x.ckpt", "--engine", "1"],
}


class TestConfigFuzz:
    @pytest.fixture(scope="class")
    def cfg(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"

    @given(blob=FUZZ_FILES, command=st.sampled_from(sorted(FUZZ_REQUIRED)))
    def test_typed_settings_or_usage_error(self, cfg, blob, command):
        cfg.write_bytes(blob)
        args = cli.build_parser().parse_args(
            [command, "--config", str(cfg), *FUZZ_REQUIRED[command]]
        )
        try:
            settings = cli._resolve(args, command)
        except cli.UsageError:
            return
        for s in cli._settings_of(command):
            if not s.in_file:
                continue
            value = settings[s.name]
            if s.default is None:
                assert value is None or type(value) is str
            else:
                assert type(value) is type(s.default), (s.name, value)
        if "subset" in settings:
            assert settings["subset"] in SUBSET_IDS
