"""The benchmark's workloads: set-up, measured phases and output checks.

train-fd001      default model (window 64, depth 3, 1.01M parameters) on
                 FD001-shaped data; Adam and the big ``expand`` layer dominate.
train-fd001-w16  window 16, depth 1 on the same data; small arrays, so fixed
                 per-call cost (dispatch, window gathering, Adam's loop) dominates.
evaluate-fd004   ``tddn evaluate`` in-process plus full-curve inference on
                 FD004-shaped data; forward only, parsing-heavy.

Every workload generates its files first (untimed), then sets up
``SETUP_REPEATS`` times (timed, median reported), then measures for the
given number of seconds. Calls into the package go through the tracer,
which only forwards them when tracing is off.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import synth
from calibrate import Speed
from checks import Checks, count_problems, evaluate_problems, last_prediction_problems
from spans import NullTracer, Tracer

SETUP_REPEATS = 5
# share of --seconds given to training steps; the rest goes to validation passes
STEP_SHARE = 0.7
MIN_EVALUATE_CALLS = 3
MIN_VAL_PASSES = 3
# size of the smaller data used by --tiny self-test runs
TINY_FACTOR = 0.05
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_DEPTH = 3
# Adam touches 7 float64 values per parameter: reads value, grad, m, v; writes value, m, v
ADAM_ACCESSES = 7


@dataclass
class Context:
    seed: int
    seconds: float
    work: Path
    tracer: NullTracer | Tracer
    tiny: bool = False


@dataclass
class Result:
    """What one workload run measured and checked."""

    checks: Checks
    e2e: dict[str, float]
    layer: dict[str, float]
    # issue-level names shown in the report: name -> (value, unit, better, note)
    named: dict[str, tuple[float, str, str, str]] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)


def layer_names(depth: int = MAX_DEPTH) -> list[str]:
    """Layer names by position, as the per-layer metrics use them."""
    names: list[str] = []
    for i in range(1, depth + 1):
        names += [f"conv{i}", f"relu{i}", f"pool{i}"]
    return names + ["expand", "expand_relu", "attention", "regress1", "regress_relu", "regress2"]


FLOP_LAYERS = [f"conv{i}" for i in range(1, MAX_DEPTH + 1)] + [
    "expand", "attention", "regress1", "regress2",
]

# unit of every per-layer metric, in report order
LAYER_UNITS: dict[str, str] = {
    "cmapss.load_subset_s": "s",
    "cmapss.rows_per_s": "1/s",
    "preprocess.fit_scaler_s": "s",
    "preprocess.apply_scaler_s": "s",
    "training.build_window_bank_s": "s",
    "training.gather_ms": "ms",
    "training.zero_grad_ms": "ms",
    "training.adam_step_ms": "ms",
    "training.adam_bytes_per_step": "bytes",
    "training.adam_gbps": "GB/s",
    "training.predict_windows_s": "s",
    "model.forward_ms": "ms",
    "model.backward_ms": "ms",
    "model.batch_windows": "count",
    **{f"layers.{n}.{d}_ms": "ms" for n in layer_names() for d in ("fwd", "bwd")},
    **{f"layers.{n}.flops_per_window": "flop" for n in FLOP_LAYERS},
    "metrics.predict_engine_s": "s",
    "metrics.evaluate_test_s": "s",
    "metrics.last_pred_bit_mismatches": "count",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.bytes": "bytes",
    "cli.self_s": "s",
    "trace.op_ms": "ms",
    "trace.op_unaccounted_ms": "ms",
    "trace.overhead_pct": "%",
}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile in
    TAIL_PERCENTILES with at least ten samples beyond it; the maximum when
    fewer than eleven samples exist."""
    values = np.asarray(samples, dtype=np.float64)
    for pct in TAIL_PERCENTILES:
        value = float(np.percentile(values, pct))
        beyond = int(np.count_nonzero(values > value))
        if beyond >= 10:
            return pct, value, beyond
    return 100.0, float(values.max()), 0


def _import_package() -> tuple[dict[str, object], float]:
    """The package's modules and the seconds their import took."""
    started = time.perf_counter()
    names = ("cli", "cmapss", "checkpoint", "layers", "metrics", "model", "preprocess", "training")
    mods = {n: importlib.import_module(f"tddn.{n}") for n in names}
    return mods, time.perf_counter() - started


def _shape(subset_id: str, ctx: Context) -> synth.Shape:
    shape = synth.SHAPES[subset_id]
    return synth.scaled(shape, TINY_FACTOR) if ctx.tiny else shape


def _check_counts(checks: Checks, bundle, shape: synth.Shape) -> None:
    problems = count_problems(
        bundle, shape.n_train, shape.n_test, shape.train_rows, shape.test_rows
    )
    checks.expect(not problems, "parsed counts differ: " + "; ".join(problems))


def _named_layers(model) -> list[tuple[str, object]]:
    stages = model.conv_stack.children
    out = [(f"{('conv', 'relu', 'pool')[i % 3]}{i // 3 + 1}", m) for i, m in enumerate(stages)]
    out += [("expand", model.expand), ("expand_relu", model.expand_act), ("attention", model.attention)]
    out += list(zip(("regress1", "regress_relu", "regress2"), model.regressor.children))
    return out


def _instrument_model(tracer: Tracer, model) -> None:
    for name, layer in _named_layers(model):
        tracer.patch(layer, "forward", f"layers.{name}.fwd")
        tracer.patch(layer, "backward", f"layers.{name}.bwd")
    tracer.patch(model, "forward", "model.forward")
    tracer.patch(model, "backward", "model.backward")
    tracer.patch(model, "zero_grad", "training.zero_grad")


def _flops_per_window(config, pooled_length) -> dict[str, float]:
    """Multiply-adds times two of each matmul-bearing layer, for one window."""
    w, m = config.window, config.n_features
    flops: dict[str, float] = {}
    length, c_in = w, m
    for i, c_out in enumerate(config.conv_channels, start=1):
        flops[f"conv{i}"] = 2.0 * length * config.kernel * c_in * c_out
        length, c_in = length // 2, c_out
    n_flat = pooled_length(w, config.depth) * config.conv_channels[-1]
    flops["expand"] = 2.0 * n_flat * w * m
    h = config.attention_hidden
    flops["attention"] = 2.0 * w * (4 * m * h + h + m)
    flops["regress1"] = 2.0 * m * config.regressor_hidden
    flops["regress2"] = 2.0 * config.regressor_hidden
    return flops


def _mean_ms(row: dict | None) -> float:
    return row["total_ns"] / row["count"] / 1e6 if row else 0.0


def _mean_s(row: dict | None) -> float:
    return _mean_ms(row) / 1e3


def _layer_metrics(tracer: Tracer, root: str, mods, model, windows: int) -> dict[str, float]:
    """Per-layer values shared by every workload; zero where a span never ran."""
    layer = {name: 0.0 for name in LAYER_UNITS}
    everywhere = tracer.summary()
    inside = tracer.summary(tracer.under(root))
    for name in layer_names():
        for d in ("fwd", "bwd"):
            layer[f"layers.{name}.{d}_ms"] = _mean_ms(inside.get(f"layers.{name}.{d}"))
    for name, value in _flops_per_window(model.config, mods["model"].pooled_length).items():
        layer[f"layers.{name}.flops_per_window"] = value
    forward = inside.get("model.forward")
    layer["model.forward_ms"] = _mean_ms(forward)
    layer["model.backward_ms"] = _mean_ms(inside.get("model.backward"))
    layer["model.batch_windows"] = windows / forward["count"] if forward else 0.0
    load = everywhere.get("cmapss.load_subset")
    layer["cmapss.load_subset_s"] = _mean_s(load)
    layer["preprocess.fit_scaler_s"] = _mean_s(everywhere.get("preprocess.fit_scaler"))
    layer["preprocess.apply_scaler_s"] = _mean_s(everywhere.get("preprocess.apply_scaler"))
    layer["checkpoint.save_s"] = _mean_s(everywhere.get("checkpoint.save"))
    layer["checkpoint.load_s"] = _mean_s(everywhere.get("checkpoint.load"))
    op = inside.get(root)
    layer["trace.op_ms"] = _mean_ms(op)
    layer["trace.op_unaccounted_ms"] = op["self_ns"] / op["count"] / 1e6 if op else 0.0
    return layer


def _overhead_pct(untraced: list[float], traced: list[float]) -> float:
    """Median traced over median untraced time, as a percentage increase."""
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


def _raw_ms(intervals: list[tuple[float, float]]) -> list[float]:
    return [(t1 - t0) * 1e3 for t0, t1 in intervals]


def _setup_wall(setup_iv) -> tuple[float, str, str, str]:
    return (statistics.median(_raw_ms(setup_iv)) / 1e3, "s", "lower", f"median of {len(setup_iv)}")


def _e2e(speed: Speed, setup_iv, op_iv, windows: int, eval_iv, rmse: float) -> dict[str, float]:
    """End-to-end values, every timing at the probe's reference speed."""
    op_ms = speed.normalize(op_iv)
    return {
        "setup_s": statistics.median(speed.normalize(setup_iv)) / 1e3,
        "op_ms_p50": statistics.median(op_ms),
        "windows_per_s": windows / (sum(op_ms) / 1e3),
        "eval_s": statistics.median(speed.normalize(eval_iv)) / 1e3,
        "rmse": rmse,
    }


def run_train(ctx: Context, window: int, depth: int, budget: int) -> Result:
    """Training steps of one model shape on FD001-shaped data."""
    tr = ctx.tracer
    shape = _shape("FD001", ctx)
    data = ctx.work / "data"
    synth.write_subset(data, shape, ctx.seed)
    budget = 4 if ctx.tiny else budget

    mods, import_s = _import_package()
    cmapss, training, preprocess = mods["cmapss"], mods["training"], mods["preprocess"]
    model_mod, checkpoint = mods["model"], mods["checkpoint"]
    mse_loss = mods["layers"].mse_loss
    if tr.enabled:
        tr.patch(training, "apply_scaler", "preprocess.apply_scaler")
    checks = Checks()
    # the model seed stays at the default; --seed only changes the data
    cfg = training.TrainConfig()
    policy = cfg.label_policy

    speed = Speed()
    setup_iv = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        started = time.perf_counter()
        bundle = tr.call("cmapss.load_subset", cmapss.load_subset, data, "FD001")
        selection = preprocess.select_columns("FD001")
        model_cfg = model_mod.ModelConfig(
            window=window,
            n_features=selection.n_columns,
            conv_channels=model_mod.conv_channels_for_depth(depth),
        )
        train_ids, val_ids = training.split_engines(
            [t.unit_id for t in bundle.train], cfg.val_fraction, cfg.seed
        )
        by_id = {t.unit_id: t for t in bundle.train}
        scaler = tr.call("preprocess.fit_scaler", preprocess.fit_scaler, bundle.train, selection)
        train_bank, val_bank = (
            tr.call(
                "training.build_window_bank", training.build_window_bank,
                [by_id[u] for u in ids], scaler, selection, policy, window,
            )
            for ids in (train_ids, val_ids)
        )
        model = model_mod.DegradationNetwork(model_cfg, np.random.default_rng(cfg.seed))
        optimizer = training.Adam(model.params(), cfg.beta1, cfg.beta2, cfg.eps)
        # the one-off import counts in every set-up
        setup_iv.append((started - import_s, time.perf_counter()))
    speed.probe()
    _check_counts(checks, bundle, shape)

    def step(idx: np.ndarray, lr: float) -> float:
        x, y = train_bank.gather(idx)
        pred = model.forward(x)
        loss, gpred = mse_loss(pred, y)
        model.zero_grad()
        model.backward(gpred)
        optimizer.step(lr)
        return loss

    val_iv: list[tuple[float, float]] = []

    def val_pass() -> float:
        speed.maybe_probe()
        started = time.perf_counter()
        pred = tr.call("training.predict_windows", training.predict_windows, model, val_bank)
        val_iv.append((started, time.perf_counter()))
        diff = pred - val_bank.labels
        val_rmse = float(np.sqrt(np.mean(diff * diff)))
        checks.expect(math.isfinite(val_rmse), f"validation RMSE {val_rmse}")
        return val_rmse

    started = time.perf_counter()
    step_end = started + STEP_SHARE * ctx.seconds
    end = started + ctx.seconds
    # a traced run first times half the budget untraced, to measure the overhead
    untraced_steps = budget // 2 if tr.enabled else None
    run_step = step
    step_iv: list[tuple[float, float]] = []
    losses: list[float] = []
    windows = traced_windows = 0
    epoch, pos, order = 0, train_bank.n_windows, None
    while True:
        if pos >= train_bank.n_windows:
            epoch += 1
            order = np.random.default_rng([cfg.seed, epoch]).permutation(train_bank.n_windows)
            pos = 0
        if len(step_iv) == untraced_steps:
            _instrument_model(tr, model)
            tr.patch(optimizer, "step", "training.adam_step")
            tr.patch(train_bank, "gather", "training.gather")
            run_step = tr.wrap("training.step", step)
        idx = order[pos : pos + cfg.batch_size]
        pos += idx.size
        lr = training.lr_at(epoch, cfg)
        speed.maybe_probe()
        t0 = time.perf_counter()
        loss = run_step(idx, lr)
        step_iv.append((t0, time.perf_counter()))
        windows += idx.size
        if run_step is not step:
            traced_windows += idx.size
        checks.expect(math.isfinite(loss), f"step {len(step_iv)}: loss {loss}")
        if len(step_iv) <= budget:
            losses.append(loss)
        if len(step_iv) == budget:
            params_sha256 = _sha256(p.value for p in model.params())
            val_rmse = val_pass()
        if len(step_iv) >= budget and time.perf_counter() >= step_end:
            break
    while len(val_iv) < MIN_VAL_PASSES or time.perf_counter() < end:
        val_pass()
    speed.probe()

    ckpt = ctx.work / "model.ckpt"
    tr.call(
        "checkpoint.save", checkpoint.save_checkpoint,
        ckpt, model, scaler, selection, policy, "FD001",
    )
    loaded = tr.call("checkpoint.load", checkpoint.load_checkpoint, ckpt)
    x, _ = val_bank.gather(np.arange(min(256, val_bank.n_windows)))
    checks.expect(
        np.array_equal(model.forward(x), loaded.model.forward(x)),
        "checkpoint save/load changed predictions",
    )

    step_ms = _raw_ms(step_iv)
    val_s = [ms / 1e3 for ms in _raw_ms(val_iv)]
    step_p50 = statistics.median(step_ms)
    pct, step_tail, beyond = tail(step_ms)
    train_wps = windows / (sum(step_ms) / 1e3)
    val_median = statistics.median(val_s)
    result = Result(
        checks=checks,
        e2e=_e2e(speed, setup_iv, step_iv, windows, val_iv, val_rmse),
        layer={},
    )
    result.named = {
        "train_step_ms_p50": (step_p50, "ms", "lower", f"n={len(step_ms)} steps of batch {cfg.batch_size}"),
        "train_step_ms_tail": (step_tail, "ms", "lower", f"p{pct:g}, {beyond} of {len(step_ms)} samples beyond"),
        "train_windows_per_s": (train_wps, "1/s", "higher", f"{windows} windows"),
        "val_windows_per_s": (val_bank.n_windows / val_median, "1/s", "higher", f"median of {len(val_s)} passes over {val_bank.n_windows} windows"),
        "val_rmse": (val_rmse, "cycles", "lower", f"after {budget} steps"),
        "setup_wall_s": _setup_wall(setup_iv),
    }
    result.info = {
        "probe_ms_median": speed.medians(),
        "step_budget": budget,
        "params_sha256": params_sha256,
        "losses_sha256": _sha256([losses]),
        "n_parameters": model.n_parameters(),
        "train_windows": train_bank.n_windows,
        "val_windows": val_bank.n_windows,
    }

    if tr.enabled:
        layer = _layer_metrics(tr, "training.step", mods, model, traced_windows)
        inside = tr.summary(tr.under("training.step"))
        everywhere = tr.summary()
        rows = sum(t.n_cycles for t in bundle.train) + sum(t.n_cycles for t in bundle.test)
        layer["cmapss.rows_per_s"] = rows / layer["cmapss.load_subset_s"]
        layer["training.build_window_bank_s"] = _mean_s(everywhere.get("training.build_window_bank"))
        layer["training.gather_ms"] = _mean_ms(inside.get("training.gather"))
        layer["training.zero_grad_ms"] = _mean_ms(inside.get("training.zero_grad"))
        adam_ms = _mean_ms(inside.get("training.adam_step"))
        adam_bytes = float(ADAM_ACCESSES * 8 * model.n_parameters())
        layer["training.adam_step_ms"] = adam_ms
        layer["training.adam_bytes_per_step"] = adam_bytes
        layer["training.adam_gbps"] = adam_bytes / (adam_ms / 1e3) / 1e9
        layer["training.predict_windows_s"] = _mean_s(everywhere.get("training.predict_windows"))
        layer["checkpoint.bytes"] = float(ckpt.stat().st_size)
        # normalized, and without the first step, which pays one-off costs
        step_norm = speed.normalize(step_iv)
        layer["trace.overhead_pct"] = _overhead_pct(
            step_norm[1:untraced_steps], step_norm[untraced_steps:]
        )
        result.layer = layer
    return result


def run_evaluate(ctx: Context) -> Result:
    """``tddn evaluate`` in-process and full-curve inference on FD004-shaped data."""
    tr = ctx.tracer
    shape = _shape("FD004", ctx)
    data = ctx.work / "data"
    synth.write_subset(data, shape, ctx.seed)

    mods, import_s = _import_package()
    cli, cmapss, metrics, preprocess = mods["cli"], mods["cmapss"], mods["metrics"], mods["preprocess"]
    model_mod, checkpoint = mods["model"], mods["checkpoint"]
    if tr.enabled:
        tr.patch(cli, "load_subset", "cmapss.load_subset")
        tr.patch(cli, "load_checkpoint", "checkpoint.load")
        tr.patch(cli, "evaluate_test", "metrics.evaluate_test")
        tr.patch(metrics, "apply_scaler", "preprocess.apply_scaler")
    checks = Checks()
    policy = preprocess.LabelPolicy()
    ckpt = ctx.work / "model.ckpt"

    speed = Speed()
    setup_iv = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        started = time.perf_counter()
        bundle = tr.call("cmapss.load_subset", cmapss.load_subset, data, "FD004")
        selection = preprocess.select_columns("FD004")
        scaler = tr.call("preprocess.fit_scaler", preprocess.fit_scaler, bundle.train, selection)
        model_cfg = model_mod.ModelConfig(n_features=selection.n_columns)
        model = model_mod.DegradationNetwork(model_cfg, np.random.default_rng(0))
        # centre the untrained output in [0, r_max], so the clamp does not
        # turn every prediction into 0 and hide differences between paths
        model.regressor.children[-1].bias.value[...] = policy.r_max / 2
        tr.call(
            "checkpoint.save", checkpoint.save_checkpoint,
            ckpt, model, scaler, selection, policy, "FD004",
        )
        # the one-off import counts in every set-up
        setup_iv.append((started - import_s, time.perf_counter()))
    speed.probe()
    _check_counts(checks, bundle, shape)

    loaded = tr.call("checkpoint.load", checkpoint.load_checkpoint, ckpt)
    x = metrics.last_windows(bundle, scaler, selection, model_cfg.window)
    checks.expect(
        np.array_equal(model.forward(x), loaded.model.forward(x)),
        "checkpoint save/load changed predictions",
    )

    def curve(traj) -> np.ndarray:
        return metrics.predict_engine(
            loaded.model, traj, loaded.scaler, loaded.selection, loaded.policy
        )

    started = time.perf_counter()
    end = started + ctx.seconds
    # a traced run first times some engines untraced, to measure the
    # overhead; one more engine ahead of them pays the one-off costs
    calibration = bundle.test[: 1 + len(bundle.test) // 8] if tr.enabled else ()
    untraced_iv = []
    for traj in calibration:
        speed.maybe_probe()
        t0 = time.perf_counter()
        curve(traj)
        untraced_iv.append((t0, time.perf_counter()))
    if tr.enabled:
        _instrument_model(tr, loaded.model)
    engine_iv: list[tuple[float, float]] = []
    last: dict[int, float] = {}
    for traj in bundle.test:
        speed.maybe_probe()
        t0 = time.perf_counter()
        pred = tr.call("metrics.predict_engine", curve, traj)
        engine_iv.append((t0, time.perf_counter()))
        checks.expect(
            pred.shape == (traj.n_cycles,)
            and bool(np.all(np.isfinite(pred)))
            and bool(np.all((pred >= 0.0) & (pred <= policy.r_max))),
            f"engine {traj.unit_id}: bad full-curve predictions",
        )
        last[traj.unit_id] = float(pred[-1])
    n_windows = sum(t.n_cycles for t in bundle.test)

    evaluate_iv: list[tuple[float, float]] = []
    test_rmse = math.nan
    bit_mismatches = 0
    while len(evaluate_iv) < MIN_EVALUATE_CALLS or time.perf_counter() < end:
        out = ctx.work / f"evaluate-{len(evaluate_iv)}"
        argv = ["evaluate", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]
        # a call takes over a second, so probe a few times between calls
        for _ in range(3):
            speed.probe()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = tr.call("cli.main", cli.main, argv)
            evaluate_iv.append((t0, time.perf_counter()))
        if not checks.expect(code == 0, f"tddn evaluate exited with {code}"):
            continue
        problems, preds = evaluate_problems(out, data / "RUL_FD004.txt", policy.r_max)
        checks.expect(not problems, "evaluate outputs: " + "; ".join(problems[:5]))
        problems, bit_mismatches = last_prediction_problems(last, preds)
        checks.expect(not problems, "full curve vs evaluate: " + "; ".join(problems[:5]))
        with open(out / "metrics.csv", encoding="ascii") as fh:
            test_rmse = float(fh.read().splitlines()[1].split(",")[0])
    speed.probe()

    engine_ms = _raw_ms(engine_iv)
    evaluate_s = [ms / 1e3 for ms in _raw_ms(evaluate_iv)]
    op_p50 = statistics.median(engine_ms)
    pct, op_tail, beyond = tail(engine_ms)
    infer_wps = n_windows / (sum(engine_ms) / 1e3)
    evaluate_median = statistics.median(evaluate_s)
    result = Result(
        checks=checks,
        e2e=_e2e(speed, setup_iv, engine_iv, n_windows, evaluate_iv, test_rmse),
        layer={},
    )
    result.named = {
        "evaluate_s": (evaluate_median, "s", "lower", f"median of {len(evaluate_s)} in-process calls"),
        "infer_windows_per_s": (infer_wps, "1/s", "higher", f"{n_windows} windows over {len(engine_ms)} engines"),
        "predict_engine_ms_p50": (op_p50, "ms", "lower", f"n={len(engine_ms)} engines"),
        "predict_engine_ms_tail": (op_tail, "ms", "lower", f"p{pct:g}, {beyond} of {len(engine_ms)} samples beyond"),
        "test_rmse": (test_rmse, "cycles", "lower", "seeded untrained model, from metrics.csv"),
        "last_pred_bit_mismatches": (float(bit_mismatches), "count", "lower", "engines whose last full-curve value differs in any bit from evaluate's"),
        "setup_wall_s": _setup_wall(setup_iv),
    }
    result.info = {
        "probe_ms_median": speed.medians(),
        "test_windows": n_windows,
        "n_parameters": model.n_parameters(),
    }

    if tr.enabled:
        layer = _layer_metrics(tr, "metrics.predict_engine", mods, loaded.model, n_windows)
        everywhere = tr.summary()
        rows = sum(t.n_cycles for t in bundle.train) + n_windows
        layer["cmapss.rows_per_s"] = rows / layer["cmapss.load_subset_s"]
        layer["metrics.predict_engine_s"] = _mean_s(everywhere.get("metrics.predict_engine"))
        layer["metrics.evaluate_test_s"] = _mean_s(everywhere.get("metrics.evaluate_test"))
        layer["metrics.last_pred_bit_mismatches"] = float(bit_mismatches)
        layer["checkpoint.bytes"] = float(ckpt.stat().st_size)
        cli_main = everywhere.get("cli.main")
        layer["cli.self_s"] = cli_main["self_ns"] / cli_main["count"] / 1e9
        n_cal = len(calibration)
        untraced = speed.normalize(untraced_iv[1:])
        traced = speed.normalize(engine_iv[1:n_cal])
        # the same engines on both sides, so per-engine ratios compare like with like
        layer["trace.overhead_pct"] = _overhead_pct(
            [1.0] * len(untraced), [t / u for t, u in zip(traced, untraced)]
        )
        result.layer = layer
    return result


WORKLOADS = {
    "train-fd001": lambda ctx: run_train(ctx, window=64, depth=3, budget=100),
    "train-fd001-w16": lambda ctx: run_train(ctx, window=16, depth=1, budget=400),
    "evaluate-fd004": run_evaluate,
}
