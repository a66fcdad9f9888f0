"""Command-line front end: train, evaluate, sweep, export-features.

Every setting is one row of ``SETTINGS``, which gives its flag, its
config-file key, its parser, its default, the commands that take it and
whether the manifest records it. Every command runs in one order: it
resolves its settings as flags > config file > defaults and checks that
``--data`` is a directory and that ``--out``, or else its nearest existing
ancestor, is one; it reads exactly the inputs it uses (its checkpoint, and
the data files of its split); it writes ``manifest.json`` into the output
directory; and only then does it train or infer. So input a command cannot
read leaves no file behind. A sweep's manifest leaves out the swept setting
and what its runs do not share. CSV artifacts have header rows and '.'
decimals. Exit status is 0 on success, 1 on a runtime failure, 2 on a usage
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, LoadedCheckpoint, load_checkpoint, save_checkpoint
from .cmapss import CmapssError, _check_subset_id, format_value, load_split, load_subset, load_test
from .metrics import evaluate_test
from .model import ModelConfig, conv_channels_for_depth
from .preprocess import SensorSelection, select_columns
from .training import (
    TrainConfig, TrainingError, TrainResult, build_window_bank, lr_at, map_windows, train
)

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad invocation: wrong flags, missing paths, contradictory settings."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _csv_ints(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of integers")
    return tuple(int(p) for p in parts)


@dataclass(frozen=True)
class Setting:
    """One setting: flag ``--name`` (dashes for underscores), config key ``name``.

    ``parse`` reads the flag and the config value alike; with
    ``_parse_bool`` the flag is a switch that takes no value. Settings
    that are not ``in_file`` exist only as flags; ``required`` and
    ``choices`` are argparse's. A ``recorded`` setting goes into
    ``manifest.json`` under its name.
    """

    name: str
    commands: tuple[str, ...]
    help: str
    parse: Callable[[str], object] = str
    default: object = None
    in_file: bool = True
    recorded: bool = True
    required: bool = False
    choices: tuple[str, ...] | None = None


_ALL = ("train", "evaluate", "sweep", "export-features")
_FIT = ("train", "sweep")
_LOADS = ("evaluate", "export-features")
# training settings default to the dataclass fields they end up in
_MODEL, _TRAIN = ModelConfig(), TrainConfig()

SETTINGS = (
    Setting("config", _ALL, "flat key=value settings file", in_file=False, recorded=False),
    Setting("data", _ALL, "directory with the C-MAPSS text files"),
    Setting("out", _ALL, "output directory for artifacts"),
    Setting("checkpoint", _LOADS, "model.ckpt written by train", in_file=False, required=True),
    Setting(
        "subset", ("train", "evaluate", "sweep"),
        "C-MAPSS subset FD001 to FD004, any case; evaluate defaults to the checkpoint's",
        _check_subset_id, "FD001",
    ),
    Setting("seed", _FIT, "random seed; sweep runs seed, seed+1, ...", int, _TRAIN.seed),
    Setting("window", _FIT, "moving-window length in cycles", int, _MODEL.window),
    Setting("depth", _FIT, "number of conv/pool stages (1-4)", int, _MODEL.depth),
    Setting("epochs", _FIT, "epoch cap", int, _TRAIN.max_epochs),
    Setting("batch", _FIT, "windows per optimizer step", int, _TRAIN.batch_size),
    Setting(
        "lr", _FIT, "initial learning rate; drops to a tenth", float, _TRAIN.lr_initial,
        recorded=False,
    ),
    Setting(
        "patience", _FIT, "epochs without a better validation RMSE before stopping",
        int, _TRAIN.patience,
    ),
    Setting("rmax", _FIT, "RUL label cap in cycles", int, _TRAIN.r_max),
    Setting(
        "include_sensor_14", _FIT, "keep sensor 14 in the FD001/FD003 column selection",
        _parse_bool, False,
    ),
    Setting(
        "no_cap_true_rul", ("evaluate", "sweep"),
        "score against raw dataset RUL values instead of capped ones",
        _parse_bool, False, recorded=False,
    ),
    Setting(
        "dim", ("sweep",), "setting to sweep",
        in_file=False, required=True, choices=("window", "depth"),
    ),
    Setting(
        "values", ("sweep",), "comma-separated values of --dim", _csv_ints,
        in_file=False, required=True,
    ),
    Setting("repeats", ("sweep",), "runs per value", int, 5),
    Setting(
        "engine", ("export-features",), "unit id of the engine", int,
        in_file=False, required=True,
    ),
    Setting(
        "split", ("export-features",), "file the engine is read from", default="test",
        in_file=False, choices=("train", "test"),
    ),
)
_FILE_KEYS = frozenset(s.name for s in SETTINGS if s.in_file)


def _settings_of(command: str) -> list[Setting]:
    return [s for s in SETTINGS if command in s.commands]


def _read_config(path: str) -> dict[str, str]:
    """Flat key=value text; blank lines and #-comments are skipped."""
    file_path = Path(path)
    if not file_path.is_file():
        raise UsageError(f"config file does not exist: {file_path}")
    try:
        # utf-8-sig drops the byte-order mark some editors write first
        text = file_path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{file_path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{file_path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FILE_KEYS:
            raise UsageError(f"{file_path}:{line_no}: unknown config key {key!r}")
        if key in lines:
            raise UsageError(
                f"{file_path}:{line_no}: config key {key!r} already set on line {lines[key]}"
            )
        values[key], lines[key] = value.strip(), line_no
    return values


def _resolve(args: argparse.Namespace, command: str, **defaults: object) -> dict:
    """The command's settings: flag, else config file, else default.

    ``defaults`` replace table defaults for this call.
    """
    file_values = _read_config(args.config) if args.config else {}
    settings: dict = {}
    for s in _settings_of(command):
        flag = getattr(args, s.name)
        if flag is not None:
            settings[s.name] = flag
        elif s.name in file_values:
            try:
                settings[s.name] = s.parse(file_values[s.name])
            except ValueError as exc:
                raise UsageError(f"config key {s.name}: {exc}") from exc
        else:
            settings[s.name] = defaults.get(s.name, s.default)
    return settings


def _manifest(command: str, settings: dict, **derived: object) -> dict:
    """The command's recorded settings plus what the run derived from them."""
    recorded = {s.name: settings[s.name] for s in _settings_of(command) if s.recorded}
    return {"command": command, "tool_version": __version__, **recorded, **derived}


def _start(args: argparse.Namespace, command: str, **defaults: object) -> tuple[dict, Path, Path]:
    """Every command's prologue: its settings, data directory and output directory."""
    settings = _resolve(args, command, **defaults)
    for key in ("data", "out"):
        if settings[key] is None:
            raise UsageError(f"--{key} is required")
    data_dir, out_dir = Path(settings["data"]), Path(settings["out"])
    if not data_dir.is_dir():
        problem = "path is not a directory" if data_dir.exists() else "directory does not exist"
        raise UsageError(f"data {problem}: {data_dir}")
    # --out itself, or else the nearest of its ancestors that exists
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"output path is not a directory: {existing}")
    return settings, data_dir, out_dir


def _write_manifest(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    (out_dir / "manifest.json").write_text(text)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _build_configs(settings: dict) -> tuple[SensorSelection, ModelConfig, TrainConfig]:
    try:
        selection = select_columns(settings["subset"], settings["include_sensor_14"])
        model_config = ModelConfig(
            window=settings["window"],
            n_features=selection.n_columns,
            conv_channels=conv_channels_for_depth(settings["depth"]),
        )
        train_config = TrainConfig(
            batch_size=settings["batch"],
            max_epochs=settings["epochs"],
            lr_initial=settings["lr"],
            seed=settings["seed"],
            patience=settings["patience"],
            r_max=settings["rmax"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return selection, model_config, train_config


def _derived(selection: SensorSelection, model: ModelConfig, fit: TrainConfig) -> dict:
    """Manifest entries that train and sweep derive from their settings."""
    return {
        "columns": list(selection.columns),
        "conv_channels": list(model.conv_channels),
        "kernel": model.kernel,
        "attention_hidden": model.attention_hidden,
        "regressor_hidden": model.regressor_hidden,
        "lr_initial": fit.lr_initial,
        "lr_reduced": fit.lr_reduced,
        "lr_drop_after": fit.lr_drop_after,
        "beta1": fit.beta1,
        "beta2": fit.beta2,
        "eps": fit.eps,
        "val_fraction": fit.val_fraction,
    }


def _write_training_log(path: Path, result: TrainResult, config: TrainConfig) -> None:
    report = result.report
    _write_csv(
        path,
        ["epoch", "lr", "train_loss", "val_rmse"],
        (
            [epoch, format_value(lr_at(epoch, config)), format_value(loss), format_value(val)]
            for epoch, (loss, val) in enumerate(zip(report.train_loss, report.val_rmse), 1)
        ),
    )


def cmd_train(args: argparse.Namespace) -> int:
    settings, data_dir, out_dir = _start(args, "train")
    selection, model_config, train_config = _build_configs(settings)
    subset = selection.subset_id
    engines = load_split(data_dir, subset, "train")
    derived = _derived(selection, model_config, train_config)
    _write_manifest(out_dir, _manifest("train", settings, **derived))
    result = train(engines, model_config, train_config, selection)
    save_checkpoint(
        out_dir / "model.ckpt", result.model, result.scaler, selection,
        train_config.label_policy, subset,
    )
    _write_training_log(out_dir / "training_log.csv", result, train_config)
    report = result.report
    print(
        f"best epoch {report.best_epoch}/{report.n_epochs} ({report.stop_reason}): "
        f"val rmse {report.val_rmse[report.best_epoch - 1]:.4f}"
    )
    return 0


def _write_predictions(path: Path, unit_ids, pred, true) -> None:
    _write_csv(
        path,
        ["engine_id", "true_rul", "pred_rul", "d"],
        (
            [int(uid), format_value(t), format_value(p), format_value(p - t)]
            for uid, p, t in zip(unit_ids, pred, true)
        ),
    )


def _write_metrics(path: Path, rmse_value: float, score_value: float) -> None:
    _write_csv(path, ["rmse", "nasa_score"], [[format_value(v) for v in (rmse_value, score_value)]])


def _load_checkpoint_arg(path_text: str) -> LoadedCheckpoint:
    path = Path(path_text)
    if not path.is_file():
        problem = "is not a file" if path.exists() else "does not exist"
        raise UsageError(f"checkpoint {problem}: {path}")
    return load_checkpoint(path)


def cmd_evaluate(args: argparse.Namespace) -> int:
    # an unstated subset is the checkpoint's
    settings, data_dir, out_dir = _start(args, "evaluate", subset=None)
    loaded = _load_checkpoint_arg(settings["checkpoint"])
    subset = loaded.selection.subset_id
    if settings["subset"] not in (None, subset):
        raise UsageError(f"checkpoint was trained on {subset}, not {settings['subset']}")
    settings["subset"] = subset
    cap_true_rul = not settings["no_cap_true_rul"]
    # scoring needs no train engines: the checkpoint carries the scaler
    bundle = load_test(data_dir, subset)
    _write_manifest(out_dir, _manifest("evaluate", settings, cap_true_rul=cap_true_rul))
    result = evaluate_test(
        loaded.model,
        bundle,
        loaded.scaler,
        loaded.selection,
        loaded.policy,
        cap_true_rul=cap_true_rul,
    )
    _write_predictions(out_dir / "predictions.csv", result.unit_ids, result.pred, result.true)
    _write_metrics(out_dir / "metrics.csv", result.rmse, result.nasa_score)
    print(f"rmse {result.rmse:.6f}  score {result.nasa_score:.6f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    settings, data_dir, out_dir = _start(args, "sweep")
    if settings["repeats"] < 1:
        raise UsageError(f"--repeats must be >= 1, got {settings['repeats']}")
    dim, values = settings["dim"], settings["values"]
    if len(set(values)) != len(values):
        raise UsageError(f"duplicate sweep values: {values}")
    seeds = range(settings["seed"], settings["seed"] + settings["repeats"])
    # every run's configs are built, and so checked, before any training starts
    runs = [
        (value, seed, _build_configs({**settings, dim: value, "seed": seed}))
        for value in values
        for seed in seeds
    ]
    cap_true_rul = not settings["no_cap_true_rul"]
    # the manifest records what every run shares; values holds the swept setting
    derived = [_derived(*configs) for *_, configs in runs]
    shared = {k: v for k, v in derived[0].items() if all(d[k] == v for d in derived)}
    bundle = load_subset(data_dir, settings["subset"])
    manifest = _manifest("sweep", settings, cap_true_rul=cap_true_rul, **shared)
    _write_manifest(out_dir, {k: v for k, v in manifest.items() if k != dim})

    rows: list[tuple] = []
    for value, seed, (selection, model_config, train_config) in runs:
        run_dir = out_dir / f"{dim}_{value}_seed_{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        result = train(bundle.train, model_config, train_config, selection)
        _write_training_log(run_dir / "training_log.csv", result, train_config)
        seconds = time.perf_counter() - started
        eval_result = evaluate_test(
            result.model,
            bundle,
            result.scaler,
            selection,
            train_config.label_policy,
            cap_true_rul=cap_true_rul,
        )
        _write_metrics(run_dir / "metrics.csv", eval_result.rmse, eval_result.nasa_score)
        rows.append(
            (value, seed, eval_result.rmse, eval_result.nasa_score,
             seconds, result.report.best_epoch, result.report.n_epochs)
        )
        logger.info(
            "%s=%s seed=%d: rmse %.3f, score %.1f, %.1fs",
            dim, value, seed, eval_result.rmse, eval_result.nasa_score, seconds,
        )

    _write_csv(
        out_dir / "runs.csv",
        ["value", "seed", "rmse", "nasa_score", "seconds", "best_epoch", "n_epochs"],
        (
            [value, seed, format_value(r), format_value(s), format_value(sec), best, n]
            for value, seed, r, s, sec, best, n in rows
        ),
    )

    summary = []
    for value in values:
        ours = [row for row in rows if row[0] == value]
        means = [format_value(float(np.mean([r[k] for r in ours]))) for k in (2, 3, 4)]
        summary.append([value, len(ours), *means])
    _write_csv(
        out_dir / "summary.csv",
        ["value", "repeats", "mean_rmse", "mean_score", "mean_seconds"],
        summary,
    )
    return 0


def _write_per_cycle_rows(path: Path, row_key: str, prefix: str, values: np.ndarray) -> None:
    """One CSV line per (cycle, row) of a (cycles, rows, columns) array, both 1-based."""
    n_cols = values.shape[2]
    _write_csv(
        path,
        ["cycle", row_key] + [f"{prefix}{i}" for i in range(1, n_cols + 1)],
        (
            [j, row] + [format_value(v) for v in line]
            for j, block in enumerate(values, 1)
            for row, line in enumerate(block, 1)
        ),
    )


def cmd_export_features(args: argparse.Namespace) -> int:
    settings, data_dir, out_dir = _start(args, "export-features")
    loaded = _load_checkpoint_arg(settings["checkpoint"])
    subset = loaded.selection.subset_id
    engine, split = settings["engine"], settings["split"]
    trajectories = load_split(data_dir, subset, split)
    trajectory = next((t for t in trajectories if t.unit_id == engine), None)
    if trajectory is None:
        raise UsageError(f"engine {engine} not in the {split} split of {subset}")
    _write_manifest(out_dir, _manifest("export-features", settings, subset=subset))

    model = loaded.model
    w = model.config.window
    n = trajectory.n_cycles
    bank = build_window_bank([trajectory], loaded.scaler, loaded.selection, loaded.policy, w)
    traces = map_windows(lambda c: model.trace_rows(bank.rows, bank.starts[c]), bank.n_windows)
    attention = np.concatenate([t.attention for t in traces])

    _write_csv(
        out_dir / "attention.csv",
        ["cycle"] + [f"weight_{i}" for i in range(1, w + 1)],
        ([j + 1] + [format_value(v) for v in attention[j]] for j in range(n)),
    )

    temporal = np.concatenate([t.temporal for t in traces])
    _write_per_cycle_rows(out_dir / "temporal_features.csv", "step", "ch_", temporal)
    abstract = np.concatenate([t.abstract for t in traces])
    _write_per_cycle_rows(out_dir / "abstract_features.csv", "row", "feat_", abstract)

    print(f"exported {n} windows for engine {engine} ({subset})")
    return 0


def _flag_type(parse: Callable[[str], object]) -> Callable[[str], object]:
    """``parse`` for argparse, which then reports its ValueError message."""

    def convert(text: str) -> object:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


_COMMANDS = {
    "train": (cmd_train, "fit a model on a subset"),
    "evaluate": (cmd_evaluate, "score a checkpoint on the test split"),
    "sweep": (cmd_sweep, "train across window sizes or depths"),
    "export-features": (cmd_export_features, "dump per-window activations of one engine to CSV"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tddn",
        description="RUL prediction on C-MAPSS with a conv + attention network",
    )
    parser.add_argument("--version", action="version", version=f"tddn {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in _COMMANDS.items():
        sub = commands.add_parser(command, help=help_text)
        for s in _settings_of(command):
            flag = "--" + s.name.replace("_", "-")
            if s.parse is _parse_bool:
                sub.add_argument(flag, action="store_const", const=True, help=s.help)
            else:
                sub.add_argument(
                    flag, type=_flag_type(s.parse), choices=s.choices,
                    required=s.required, help=s.help,
                )
        sub.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, CmapssError, TrainingError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
