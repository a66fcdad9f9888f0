"""Command-line front end: train, evaluate, sweep, export-features.

Every command resolves its settings as flags > config file > defaults,
writes a manifest into the output directory before any compute, and
emits CSV artifacts with header rows and '.' decimals. Exit status is
0 on success, 1 on a runtime failure, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, LoadedCheckpoint, load_checkpoint, save_checkpoint
from .cmapss import CmapssError, DatasetBundle, _check_subset_id, load_subset
from .metrics import evaluate_test
from .model import ModelConfig, conv_channels_for_depth
from .preprocess import LabelPolicy, select_columns
from .training import (
    INFER_BATCH, TrainConfig, TrainingError, TrainResult, build_window_bank, lr_at, train
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


# config-file keys mirror the long flags; parsed with the same types
_CONFIG_PARSERS: dict[str, Callable[[str], object]] = {
    "subset": _check_subset_id,
    "data": str,
    "out": str,
    "seed": int,
    "window": int,
    "depth": int,
    "epochs": int,
    "batch": int,
    "lr": float,
    "patience": int,
    "rmax": int,
    "repeats": int,
    "include_sensor_14": _parse_bool,
    "no_cap_true_rul": _parse_bool,
}

# training settings default to the dataclass fields they end up in
_MODEL_DEFAULTS, _TRAIN_DEFAULTS = ModelConfig(), TrainConfig()
_DEFAULTS: dict[str, object] = {
    "subset": "FD001",
    "data": None,
    "out": None,
    "seed": _TRAIN_DEFAULTS.seed,
    "window": _MODEL_DEFAULTS.window,
    "depth": _MODEL_DEFAULTS.depth,
    "epochs": _TRAIN_DEFAULTS.max_epochs,
    "batch": _TRAIN_DEFAULTS.batch_size,
    "lr": _TRAIN_DEFAULTS.lr_initial,
    "patience": _TRAIN_DEFAULTS.patience,
    "rmax": _TRAIN_DEFAULTS.r_max,
    "repeats": 5,
    "include_sensor_14": False,
    "no_cap_true_rul": False,
}

_TRAIN_KEYS = (
    "subset", "data", "out", "seed", "window", "depth", "epochs",
    "batch", "lr", "patience", "rmax", "include_sensor_14",
)


def _load_config_file(path: str) -> dict[str, str]:
    """Flat key=value text; blank lines and #-comments are skipped."""
    file_path = Path(path)
    if not file_path.is_file():
        raise UsageError(f"config file does not exist: {file_path}")
    values: dict[str, str] = {}
    for line_no, raw in enumerate(file_path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{file_path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise UsageError(f"{file_path}:{line_no}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(args: argparse.Namespace, keys: Sequence[str]) -> dict:
    """Merge flag values, config-file values, and defaults, in that order."""
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    settings: dict = {}
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
        elif key in file_values:
            try:
                settings[key] = _CONFIG_PARSERS[key](file_values[key])
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from exc
        else:
            settings[key] = _DEFAULTS[key]
    return settings


def _require(settings: dict, key: str) -> None:
    if settings.get(key) is None:
        raise UsageError(f"--{key.replace('_', '-')} is required")


def _data_dir(settings: dict) -> Path:
    _require(settings, "data")
    data_dir = Path(settings["data"])
    if not data_dir.is_dir():
        raise UsageError(f"data directory does not exist: {data_dir}")
    return data_dir


def _write_manifest(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    (out_dir / "manifest.json").write_text(text)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def _build_configs(settings: dict) -> tuple[ModelConfig, TrainConfig]:
    selection = select_columns(settings["subset"], settings["include_sensor_14"])
    try:
        model_config = ModelConfig(
            window=settings["window"],
            n_features=selection.n_columns,
            conv_channels=conv_channels_for_depth(settings["depth"]),
        )
        train_config = TrainConfig(
            batch_size=settings["batch"],
            max_epochs=settings["epochs"],
            lr_initial=settings["lr"],
            lr_reduced=settings["lr"] / 10.0,
            seed=settings["seed"],
            patience=settings["patience"],
            r_max=settings["rmax"],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return model_config, train_config


def _train_manifest(
    settings: dict, model_config: ModelConfig, train_config: TrainConfig
) -> dict:
    selection = select_columns(settings["subset"], settings["include_sensor_14"])
    return {
        "command": "train",
        "tool_version": __version__,
        "subset": settings["subset"],
        "data": str(settings["data"]),
        "out": str(settings["out"]),
        "seed": train_config.seed,
        "window": model_config.window,
        "depth": model_config.depth,
        "conv_channels": list(model_config.conv_channels),
        "kernel": model_config.kernel,
        "attention_hidden": model_config.attention_hidden,
        "regressor_hidden": model_config.regressor_hidden,
        "include_sensor_14": settings["include_sensor_14"],
        "columns": list(selection.columns),
        "batch": train_config.batch_size,
        "epochs": train_config.max_epochs,
        "lr_initial": train_config.lr_initial,
        "lr_reduced": train_config.lr_reduced,
        "lr_drop_after": train_config.lr_drop_after,
        "beta1": train_config.beta1,
        "beta2": train_config.beta2,
        "eps": train_config.eps,
        "patience": train_config.patience,
        "val_fraction": train_config.val_fraction,
        "rmax": train_config.r_max,
    }


def _write_training_log(path: Path, result: TrainResult, config: TrainConfig) -> None:
    report = result.report
    _write_csv(
        path,
        ["epoch", "lr", "train_loss", "val_rmse"],
        (
            [epoch, _fmt(lr_at(epoch, config)), _fmt(loss), _fmt(val)]
            for epoch, (loss, val) in enumerate(zip(report.train_loss, report.val_rmse), 1)
        ),
    )


def _run_training(
    bundle: DatasetBundle, settings: dict, out_dir: Path, save_model: bool = True
) -> TrainResult:
    model_config, train_config = _build_configs(settings)
    selection = select_columns(settings["subset"], settings["include_sensor_14"])
    result = train(bundle, model_config, train_config, selection)
    if save_model:
        save_checkpoint(
            out_dir / "model.ckpt",
            result.model,
            result.scaler,
            result.selection,
            train_config.label_policy,
            result.selection.subset_id,
        )
    _write_training_log(out_dir / "training_log.csv", result, train_config)
    return result


def cmd_train(args: argparse.Namespace) -> int:
    settings = _resolve(args, _TRAIN_KEYS)
    data_dir = _data_dir(settings)
    _require(settings, "out")
    model_config, train_config = _build_configs(settings)
    out_dir = Path(settings["out"])
    _write_manifest(out_dir, _train_manifest(settings, model_config, train_config))
    bundle = load_subset(data_dir, settings["subset"])
    result = _run_training(bundle, settings, out_dir)
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
        ([int(uid), _fmt(t), _fmt(p), _fmt(p - t)] for uid, p, t in zip(unit_ids, pred, true)),
    )


def _write_metrics(path: Path, rmse_value: float, score_value: float) -> None:
    _write_csv(path, ["rmse", "nasa_score"], [[_fmt(rmse_value), _fmt(score_value)]])


def _load_checkpoint_arg(path_text: str) -> LoadedCheckpoint:
    path = Path(path_text)
    if not path.is_file():
        raise UsageError(f"checkpoint does not exist: {path}")
    return load_checkpoint(path)


def cmd_evaluate(args: argparse.Namespace) -> int:
    settings = _resolve(args, ("data", "out", "no_cap_true_rul"))
    loaded = _load_checkpoint_arg(args.checkpoint)
    file_values = _load_config_file(args.config) if args.config else {}
    stated_subset = args.subset
    if stated_subset is None and "subset" in file_values:
        try:
            stated_subset = _check_subset_id(file_values["subset"])
        except ValueError as exc:
            raise UsageError(f"config key subset: {exc}") from exc
    if stated_subset is not None and stated_subset != loaded.subset_id:
        raise UsageError(
            f"checkpoint was trained on {loaded.subset_id}, not {stated_subset}"
        )
    data_dir = _data_dir(settings)
    _require(settings, "out")
    out_dir = Path(settings["out"])
    _write_manifest(
        out_dir,
        {
            "command": "evaluate",
            "tool_version": __version__,
            "checkpoint": args.checkpoint,
            "data": str(settings["data"]),
            "out": str(settings["out"]),
            "subset": loaded.subset_id,
            "cap_true_rul": not settings["no_cap_true_rul"],
        },
    )
    bundle = load_subset(data_dir, loaded.subset_id)
    result = evaluate_test(
        loaded.model,
        bundle,
        loaded.scaler,
        loaded.selection,
        loaded.policy,
        cap_true_rul=not settings["no_cap_true_rul"],
    )
    _write_predictions(out_dir / "predictions.csv", result.unit_ids, result.pred, result.true)
    _write_metrics(out_dir / "metrics.csv", result.rmse, result.nasa_score)
    print(f"rmse {result.rmse:.6f}  score {result.nasa_score:.6f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = _resolve(args, _TRAIN_KEYS + ("repeats", "no_cap_true_rul"))
    data_dir = _data_dir(settings)
    _require(settings, "out")
    if settings["repeats"] < 1:
        raise UsageError(f"--repeats must be >= 1, got {settings['repeats']}")
    values = args.values
    if len(set(values)) != len(values):
        raise UsageError(f"duplicate sweep values: {values}")
    # validate every value before any training starts
    for value in values:
        probe = dict(settings)
        probe[args.dim] = value
        _build_configs(probe)

    out_dir = Path(settings["out"])
    manifest = _train_manifest(settings, *_build_configs(settings))
    manifest.update(
        {
            "command": "sweep",
            "out": str(settings["out"]),
            "dim": args.dim,
            "values": list(values),
            "repeats": settings["repeats"],
        }
    )
    _write_manifest(out_dir, manifest)
    bundle = load_subset(data_dir, settings["subset"])

    rows: list[tuple] = []
    for value in values:
        for repeat in range(settings["repeats"]):
            run_settings = dict(settings)
            run_settings[args.dim] = value
            run_settings["seed"] = settings["seed"] + repeat
            run_dir = out_dir / f"{args.dim}_{value}_seed_{run_settings['seed']}"
            run_dir.mkdir(parents=True, exist_ok=True)
            started = time.perf_counter()
            result = _run_training(bundle, run_settings, run_dir, save_model=False)
            seconds = time.perf_counter() - started
            eval_result = evaluate_test(
                result.model,
                bundle,
                result.scaler,
                result.selection,
                LabelPolicy(r_max=run_settings["rmax"]),
                cap_true_rul=not settings["no_cap_true_rul"],
            )
            _write_metrics(run_dir / "metrics.csv", eval_result.rmse, eval_result.nasa_score)
            rows.append(
                (value, run_settings["seed"], eval_result.rmse, eval_result.nasa_score,
                 seconds, result.report.best_epoch, result.report.n_epochs)
            )
            logger.info(
                "%s=%s seed=%d: rmse %.3f, score %.1f, %.1fs",
                args.dim, value, run_settings["seed"],
                eval_result.rmse, eval_result.nasa_score, seconds,
            )

    _write_csv(
        out_dir / "runs.csv",
        ["value", "seed", "rmse", "nasa_score", "seconds", "best_epoch", "n_epochs"],
        (
            [value, seed, _fmt(r), _fmt(s), _fmt(sec), best, n]
            for value, seed, r, s, sec, best, n in rows
        ),
    )

    summary = []
    for value in values:
        ours = [row for row in rows if row[0] == value]
        means = [_fmt(float(np.mean([r[k] for r in ours]))) for k in (2, 3, 4)]
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
            [j, row] + [_fmt(v) for v in line]
            for j, block in enumerate(values, 1)
            for row, line in enumerate(block, 1)
        ),
    )


def cmd_export_features(args: argparse.Namespace) -> int:
    settings = _resolve(args, ("data", "out"))
    loaded = _load_checkpoint_arg(args.checkpoint)
    data_dir = _data_dir(settings)
    _require(settings, "out")
    out_dir = Path(settings["out"])
    _write_manifest(
        out_dir,
        {
            "command": "export-features",
            "tool_version": __version__,
            "checkpoint": args.checkpoint,
            "data": str(settings["data"]),
            "out": str(settings["out"]),
            "subset": loaded.subset_id,
            "engine": args.engine,
            "split": args.split,
        },
    )
    bundle = load_subset(data_dir, loaded.subset_id)
    trajectories = bundle.train if args.split == "train" else bundle.test
    trajectory = next((t for t in trajectories if t.unit_id == args.engine), None)
    if trajectory is None:
        raise UsageError(
            f"engine {args.engine} not in the {args.split} split of {loaded.subset_id}"
        )

    model = loaded.model
    w = model.config.window
    n = trajectory.n_cycles
    bank = build_window_bank([trajectory], loaded.scaler, loaded.selection, loaded.policy, w)
    traces = [model.trace(x) for x in bank.batches(INFER_BATCH)]
    attention = np.concatenate([t.attention for t in traces])

    _write_csv(
        out_dir / "attention.csv",
        ["cycle"] + [f"weight_{i}" for i in range(1, w + 1)],
        ([j + 1] + [_fmt(v) for v in attention[j]] for j in range(n)),
    )

    temporal = np.concatenate([t.temporal for t in traces])
    _write_per_cycle_rows(out_dir / "temporal_features.csv", "step", "ch_", temporal)
    abstract = np.concatenate([t.abstract for t in traces])
    _write_per_cycle_rows(out_dir / "abstract_features.csv", "row", "feat_", abstract)

    print(f"exported {n} windows for engine {args.engine} ({loaded.subset_id})")
    return 0


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value settings file")
    sub.add_argument("--data", help="directory with the C-MAPSS text files")
    sub.add_argument("--out", help="output directory for artifacts")


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--subset", choices=("FD001", "FD002", "FD003", "FD004"))
    sub.add_argument("--seed", type=int)
    sub.add_argument("--window", type=int, help="moving-window length in cycles")
    sub.add_argument("--depth", type=int, help="number of conv/pool stages (1-4)")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch", type=int)
    sub.add_argument("--lr", type=float, help="initial learning rate; drops to a tenth")
    sub.add_argument("--patience", type=int)
    sub.add_argument("--rmax", type=int, help="RUL label cap in cycles")
    sub.add_argument(
        "--include-sensor-14",
        dest="include_sensor_14",
        action="store_const",
        const=True,
        help="keep sensor 14 in the FD001/FD003 column selection",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tddn",
        description="RUL prediction on C-MAPSS with a conv + attention network",
    )
    parser.add_argument("--version", action="version", version=f"tddn {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("train", help="fit a model on a subset")
    _add_common_flags(sub)
    _add_train_flags(sub)
    sub.set_defaults(func=cmd_train)

    sub = commands.add_parser("evaluate", help="score a checkpoint on the test split")
    _add_common_flags(sub)
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--subset", choices=("FD001", "FD002", "FD003", "FD004"))
    sub.add_argument(
        "--no-cap-true-rul",
        dest="no_cap_true_rul",
        action="store_const",
        const=True,
        help="score against raw dataset RUL values instead of capped ones",
    )
    sub.set_defaults(func=cmd_evaluate)

    sub = commands.add_parser("sweep", help="train across window sizes or depths")
    _add_common_flags(sub)
    _add_train_flags(sub)
    sub.add_argument("--dim", choices=("window", "depth"), required=True)
    sub.add_argument("--values", type=_csv_ints, required=True)
    sub.add_argument("--repeats", type=int)
    sub.add_argument(
        "--no-cap-true-rul",
        dest="no_cap_true_rul",
        action="store_const",
        const=True,
    )
    sub.set_defaults(func=cmd_sweep)

    sub = commands.add_parser(
        "export-features", help="dump per-window activations of one engine to CSV"
    )
    _add_common_flags(sub)
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--engine", type=int, required=True)
    sub.add_argument("--split", choices=("train", "test"), default="test")
    sub.set_defaults(func=cmd_export_features)
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
    except (CheckpointError, CmapssError, TrainingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
