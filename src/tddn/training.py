"""Engine-level validation split, Adam optimization, early stopping.

Training is deterministic for a fixed config: the split, the parameter
init and every epoch's shuffle derive from the seed through independent
generator streams, and all reductions run in a fixed order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cmapss import EngineTrajectory
from .lanes import map_chunks
from .model import DegradationNetwork, ModelConfig
from .layers import mse_loss
from .preprocess import (
    LabelPolicy,
    Scaler,
    SensorSelection,
    apply_scaler,
    assign_rul_labels,
    fit_scaler,
    front_pad,
)

logger = logging.getLogger(__name__)

T = TypeVar("T")


class TrainingError(RuntimeError):
    """Raised when optimization cannot continue (non-finite loss or validation RMSE)."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters.

    The fields are the values a run sets. The protocol fixes the rest, as
    class constants: Adam's moments, a learning rate that drops to a tenth
    of ``lr_initial`` (``lr_reduced``) after epoch ``lr_drop_after``, and
    the share of training engines held out for validation.
    """

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8
    lr_drop_after: ClassVar[int] = 100
    val_fraction: ClassVar[float] = 0.2

    batch_size: int = 32
    max_epochs: int = 200
    lr_initial: float = 1e-4
    patience: int = 10
    seed: int = 0
    r_max: int = LabelPolicy.r_max

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        # a NaN fails every comparison, and the tenth of a subnormal rate rounds to 0
        if not (self.lr_initial < math.inf and self.lr_reduced > 0.0):
            raise ValueError(
                f"learning rates must be positive and finite, got {self.lr_initial} "
                f"and its tenth {self.lr_reduced}"
            )
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        LabelPolicy(self.r_max)  # refuses a cap below 1

    @property
    def lr_reduced(self) -> float:
        return self.lr_initial / 10.0

    @property
    def label_policy(self) -> LabelPolicy:
        return LabelPolicy(r_max=self.r_max)


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch curves and how the run ended."""

    train_loss: tuple[float, ...]
    val_rmse: tuple[float, ...]
    best_epoch: int
    stop_reason: str

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)


@dataclass(frozen=True, eq=False)
class TrainResult:
    model: DegradationNetwork
    scaler: Scaler
    report: TrainReport
    train_unit_ids: tuple[int, ...]
    val_unit_ids: tuple[int, ...]


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Learning rate for a 1-based epoch; drops after ``lr_drop_after``."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    return config.lr_initial if epoch <= config.lr_drop_after else config.lr_reduced


def split_engines(
    unit_ids: Sequence[int], fraction: float, seed: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Random engine-level split into (training ids, validation ids).

    The validation side gets round(fraction * count) engines, halves
    rounding up. Both sides are returned sorted; the draw depends only
    on the seed.
    """
    ids = list(unit_ids)
    if len(ids) < 2:
        raise ValueError(f"need at least 2 engines to split, got {len(ids)}")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate engine ids")
    n_val = int(np.floor(fraction * len(ids) + 0.5))
    if n_val < 1 or n_val >= len(ids):
        raise ValueError(
            f"fraction {fraction} leaves an empty side for {len(ids)} engines"
        )
    rng = np.random.default_rng([seed, 0])
    perm = rng.permutation(len(ids))
    val = sorted(ids[i] for i in perm[:n_val])
    train = sorted(ids[i] for i in perm[n_val:])
    return tuple(train), tuple(val)


# elements per pass of Adam.step: a block's six float64 operands (value,
# grad, m, v, two scratch) take 1.5 MiB and stay in L2 between its ufuncs
ADAM_BLOCK = 1 << 15
# parameter count from which Adam.step hands map_chunks one chunk per lane; in
# a train-step loop two lanes won 10/10 rounds from 191k params up and gained
# nothing at 141k and below
ADAM_TWO_LANE_MIN = 5 * ADAM_BLOCK


# most windows per forward pass at inference (``map_windows``). Where a batch
# is split can change the last bits: the dense layers' matmuls may round a row
# by its place in the batch (with N(0, 1) rows, the 8-to-1 regress2 rounds the
# rows past the batch's last multiple of 4 differently, and a one-row matmul
# differs from a batched one). ``map_windows``' own chunks have matched one
# ``predict`` in every check: ``TestTwoLaneInference`` checks every inference
# path so from 1 to 513 windows, and the golden pins end to end.
INFER_BATCH = 256


class Adam:
    """Bias-corrected Adam over a fixed parameter list.

    The params must be exactly those ``layers.pack`` laid out, in packing
    order, as ``DegradationNetwork.params()`` are. The optimizer reads the
    flat buffers from their ``layout`` records and adopts them as ``value``
    and ``grad`` without copying, and keeps ``m`` and ``v`` as flat arrays
    in the same order; any other list is a ``ValueError`` naming a param.
    A packed param refuses a rebind of its arrays, so ``step`` need not
    check that they still view the buffers.

    ``step`` updates the buffers in ``ADAM_BLOCK``-long blocks through
    ``map_chunks``: from ``ADAM_TWO_LANE_MIN`` parameters up as two chunks
    of whole blocks, which it may run on the caller and the calling
    thread's lane worker, and below that size as one chunk on the caller.
    The update is element-wise, so the bits are those of the serial path
    either way. The optimizer holds no thread of its own.
    """

    def __init__(
        self,
        params: Sequence,
        beta1: float = TrainConfig.beta1,
        beta2: float = TrainConfig.beta2,
        eps: float = TrainConfig.eps,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("empty param list: there are no buffers to step")
        self.value, self.grad, _ = self.params[0].layout or (None, None, 0)
        offset = 0
        for p in self.params:
            value, grad, start = p.layout or (None, None, 0)
            in_place = value is self.value and grad is self.grad and start == offset
            if value is None or not in_place:
                raise ValueError(f"param {p.name!r} is not at offset {offset} of packed buffers")
            offset += p.value.size
        if offset != self.value.size:
            last = self.params[-1].name
            raise ValueError(f"param {last!r} is not the last param packed with it")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros(self.value.size)
        self.v = np.zeros(self.value.size)

    def step(self, lr: float) -> None:
        """Apply one update from the gradients currently in the params."""
        self.step_count += 1
        b1, b2, eps = self.beta1, self.beta2, self.eps
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        size = self.value.size
        # from ADAM_TWO_LANE_MIN up, one chunk of whole blocks per lane (the
        # caller's rounded up), so each lane allocates one scratch pair a step
        lane = -(-size // (2 * ADAM_BLOCK)) * ADAM_BLOCK if size >= ADAM_TWO_LANE_MIN else size

        def update(chunk: slice) -> None:
            stop = min(chunk.stop, size)
            s1 = np.empty(min(ADAM_BLOCK, stop - chunk.start))
            s2 = np.empty_like(s1)
            # the element-wise order of the per-array formula
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
            #   value -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
            # is kept exactly, so the bits match an unblocked update
            for start in range(chunk.start, stop, ADAM_BLOCK):
                block = slice(start, min(start + ADAM_BLOCK, stop))
                g = self.grad[block]
                m = self.m[block]
                v = self.v[block]
                t1 = s1[: g.size]
                t2 = s2[: g.size]
                m *= b1
                np.multiply(1.0 - b1, g, out=t1)
                m += t1
                v *= b2
                np.multiply(g, g, out=t1)
                np.multiply(1.0 - b2, t1, out=t1)
                v += t1
                if bc1 == 1.0:
                    # bc1 rounds to 1 from step 356 at beta1 0.9: m / bc1 is m
                    np.multiply(lr, m, out=t1)
                else:
                    np.divide(m, bc1, out=t1)
                    np.multiply(lr, t1, out=t1)
                np.divide(v, bc2, out=t2)
                np.sqrt(t2, out=t2)
                t2 += eps
                t1 /= t2
                self.value[block] -= t1

        map_chunks(update, size, lane)


class WindowBank:
    """All windows of a set of engines, served from one strided view.

    ``rows`` stacks the engines' padded scaled rows end to end, each engine's
    ``lengths[k]`` rows after ``window - 1`` copies of its first, and
    ``labels`` holds one label per window in flat order (engine by engine,
    cycle by cycle). A ``sliding_window_view`` over ``rows`` exposes every
    w-row window without copying; flat window j of engine k starts on row
    ``j + k * (window - 1)``, so a batch is one fancy index into the view.
    """

    def __init__(self, rows: np.ndarray, lengths: Sequence[int], labels: np.ndarray, window: int):
        self.labels = labels
        engine = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        self.starts = np.arange(labels.shape[0], dtype=np.int64) + engine * (window - 1)
        # flat index of each engine's last window
        self.ends = np.cumsum(lengths) - 1
        self._windows = sliding_window_view(rows, (window, rows.shape[1]))[:, 0]

    @property
    def n_windows(self) -> int:
        return self.labels.shape[0]

    def gather(self, indices: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray]:
        """The windows at flat indices (an array or a slice) as a (B, w, m) batch, with labels."""
        return self._windows[self.starts[indices]], self.labels[indices]


def build_window_bank(
    trajectories: Sequence[EngineTrajectory],
    scaler: Scaler,
    selection: SensorSelection,
    policy: LabelPolicy,
    window: int,
) -> WindowBank:
    """Scale, label and pad a set of trajectories into a WindowBank, in one pass.

    Each engine's ``apply_scaler`` rows go through ``front_pad`` straight
    into the bank's one row matrix. Each trajectory is labelled as a run to
    failure: its last cycle has RUL 0. No engines, or a window below 1, is a
    ``ValueError``.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not trajectories:
        raise ValueError("a window bank needs at least one engine")
    lengths = [traj.n_cycles for traj in trajectories]
    rows = np.empty((sum(lengths) + len(lengths) * (window - 1), selection.n_columns))
    labels = []
    stop = 0
    for traj in trajectories:
        start, stop = stop, stop + traj.n_cycles + window - 1
        scaled = apply_scaler(traj, scaler, selection)
        labels.append(assign_rul_labels(traj.n_cycles, policy))
        front_pad(rows[start:stop], scaled)
    return WindowBank(rows, lengths, np.concatenate(labels), window)


def map_windows(fn: Callable[[slice], T], n: int) -> list[T]:
    """``fn`` of each chunk of ``range(n)`` windows, in order: inference's one chunking rule.

    Chunks are ``min(INFER_BATCH, ceil(n / 2))`` windows long, so any call
    of two or more windows gives ``map_chunks`` two chunks or more and both
    lanes work, while a call of ``2 * INFER_BATCH`` windows or more is cut
    into ``INFER_BATCH``-long chunks. The length depends on ``n`` only, so
    one lane and two see the same chunks.
    """
    return map_chunks(fn, n, max(1, min(INFER_BATCH, (n + 1) // 2)))


def predict_windows(model: DegradationNetwork, bank: WindowBank) -> np.ndarray:
    """Unclamped model outputs for every window in the bank, in order."""
    return np.concatenate(map_windows(lambda c: model.predict(bank.gather(c)[0]), bank.n_windows))


def train(
    engines: Sequence[EngineTrajectory],
    model_config: ModelConfig,
    train_config: TrainConfig,
    selection: SensorSelection,
) -> TrainResult:
    """Fit a network on a subset's training engines, in the columns of ``selection``.

    Epochs iterate over all windows of the training-side engines in
    shuffled batches; after each epoch the RMSE over every window of the
    held-out validation engines decides early stopping. The returned
    model carries the best-validation-epoch parameters.
    """
    if selection.n_columns != model_config.n_features:
        raise ValueError(
            f"selection has {selection.n_columns} columns but the model expects "
            f"{model_config.n_features} features"
        )
    policy = train_config.label_policy

    train_ids, val_ids = split_engines(
        [t.unit_id for t in engines], train_config.val_fraction, train_config.seed
    )
    by_id = {t.unit_id: t for t in engines}
    # scaler statistics come from the full training file, both split sides
    scaler = fit_scaler(engines, selection)
    train_bank = build_window_bank(
        [by_id[u] for u in train_ids], scaler, selection, policy, model_config.window
    )
    val_bank = build_window_bank(
        [by_id[u] for u in val_ids], scaler, selection, policy, model_config.window
    )
    logger.info(
        "training on %d engines (%d windows), validating on %d engines (%d windows)",
        len(train_ids), train_bank.n_windows, len(val_ids), val_bank.n_windows,
    )

    model = DegradationNetwork(model_config, np.random.default_rng(train_config.seed))
    optimizer = Adam(model.params())

    train_losses: list[float] = []
    val_curve: list[float] = []
    best_rmse = np.inf
    best_epoch = 0
    best_state = model.value.copy()
    epochs_without_improvement = 0
    stop_reason = "max_epochs"

    for epoch in range(1, train_config.max_epochs + 1):
        lr = lr_at(epoch, train_config)
        order = np.random.default_rng([train_config.seed, epoch]).permutation(
            train_bank.n_windows
        )
        total_se = 0.0
        for batch_no, start in enumerate(range(0, order.size, train_config.batch_size), 1):
            idx = order[start : start + train_config.batch_size]
            x, y = train_bank.gather(idx)
            pred = model.forward(x)
            loss, gpred = mse_loss(pred, y)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss {loss} in epoch {epoch}, batch {batch_no}"
                )
            model.backward(gpred)
            optimizer.step(lr)
            total_se += loss * idx.size
        epoch_loss = total_se / train_bank.n_windows
        val_pred = predict_windows(model, val_bank)
        diff = val_pred - val_bank.labels
        val_rmse = float(np.sqrt(np.mean(diff * diff)))
        if not np.isfinite(val_rmse):
            # NaN compares false with the best RMSE and would pass as "no improvement"
            raise TrainingError(f"non-finite validation RMSE {val_rmse} in epoch {epoch}")
        train_losses.append(epoch_loss)
        val_curve.append(val_rmse)
        logger.info(
            "epoch %d: lr %.0e, train loss %.3f, val rmse %.3f",
            epoch, lr, epoch_loss, val_rmse,
        )

        if val_rmse < best_rmse:
            best_rmse = val_rmse
            best_epoch = epoch
            best_state = model.value.copy()
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= train_config.patience:
                stop_reason = "patience"
                break

    model.value[...] = best_state

    report = TrainReport(
        train_loss=tuple(train_losses),
        val_rmse=tuple(val_curve),
        best_epoch=best_epoch,
        stop_reason=stop_reason,
    )
    return TrainResult(
        model=model,
        scaler=scaler,
        report=report,
        train_unit_ids=train_ids,
        val_unit_ids=val_ids,
    )
