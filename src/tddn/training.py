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


# float32's smallest normal, 2^-126: the least learning rate (or tenth of one)
# a TrainConfig takes, and the base of Adam's flush thresholds
_TINY = np.finfo(np.float32).tiny


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
        # a NaN fails every comparison. Adam multiplies by the rate in float32,
        # where a rate below float32's smallest normal would train nothing
        if not (self.lr_initial < math.inf and self.lr_reduced >= float(_TINY)):
            raise ValueError(
                f"learning rates must be positive and finite, and the tenth at least "
                f"float32's smallest normal {_TINY:.8g}; got {self.lr_initial} "
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


# elements per pass of Adam.step: a block's float64 operand (value) and five
# float32 ones (grad, m, v, two scratch) take 896 KiB and stay in L2 between
# its ufuncs. With a float64 grad (1 MiB a block), 2^14, 2^16 and 2^17 beat
# it at the default shape in 2, 7 and 3 of 10 alternating rounds
ADAM_BLOCK = 1 << 15
# parameter count from which Adam.step hands map_chunks one chunk per lane; in
# a train-step loop two lanes won 10/10 rounds from 191k params up and gained
# nothing at 141k and below. With float32 moments, Adam alone on two lanes
# beat one in 0-2 of 10 rounds at every size from 98k to 1.02M, on a host
# whose two threads read 0.73-1.29 of serial time; kept until the lanes are
# measured with a two-thread probe
ADAM_TWO_LANE_MIN = 5 * ADAM_BLOCK
# steps between Adam.step's flushes of small moments to zero (see Adam). A
# flush scans a block in about 25-38 us, so at 64 it costs the default model
# about 12-18 us a step (about 0.1%). Over steps 1,000-3,000 of a window-16
# run, periods 16 and 256 read Adam faster than 64 in 4 and 6 of 10 rotating
# rounds; never flushing read it 4-5x slower there
ADAM_FLUSH_EVERY = 64


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

    ``grad`` (as ``pack`` lays it out), ``m`` and ``v`` are float32, as is
    each lane's scratch, while ``value`` stays float64, the master weights
    of mixed-precision training (Micikevicius et al., "Mixed Precision
    Training", ICLR 2018): the forward and backward run in float32 on a
    float32 cast of them. A step reads the float32 gradient as it is,
    updates the moments and computes ``(m/bc1)/(sqrt(v/bc2)+eps)*lr`` in
    float32, and subtracts that from the float64 ``value``. So the weights
    keep float64's resolution, and only a step's size carries float32
    rounding (2^-24, about 6e-8, relative per operation). ``lr`` too is
    rounded to float32: ``TrainConfig`` refuses a rate whose tenth is below
    float32 ``tiny``, and a rate above float32's largest (about 3.4e38) is
    inf there, so training stops on a non-finite loss after the first step.
    A |g| above about 1.8e19 makes ``g*g``, and so ``v``, inf in float32.
    ``beta2*inf`` stays inf, so that parameter takes no step for the rest of
    the run, and the flush below zeroes its ``m``; nothing reports it but the
    loss.
    Where ``1 - beta**t`` rounds to a float32 1, the division by it is
    skipped: it would be exact.

    Every ``ADAM_FLUSH_EVERY`` steps, after its own ``value`` update, each
    block sets to zero every ``m`` whose magnitude, or whose update term's,
    is below ``tiny/beta1**ADAM_FLUSH_EVERY`` (about 1.0e-35), and every
    ``v`` below ``tiny/beta2**ADAM_FLUSH_EVERY`` (about 1.25e-38), ``tiny``
    being ``np.finfo(np.float32).tiny`` (2^-126): a moment or update term
    that only decays can then not turn subnormal before the next flush. A
    gradient that is exactly 0 on every step, such as a dead ReLU unit's,
    takes ``m *= beta1`` below 2^-126 after about 760 steps at beta1 0.9, and
    ``v *= beta2`` after about 71,000 at beta2 0.999, both inside a
    200-epoch run. There a moment sticks, since beta times the smallest
    subnormals rounds back to them, and on x86 every ufunc on those elements
    takes a microcode assist (NumPy sets neither FTZ nor DAZ). The units
    that die in the first epoch decay together: with the flush at ``tiny``
    itself, up to 278k of the default model's first moments were subnormal
    between two flushes and Adam read 4x slower over steps 700-900; with
    ``m`` alone flushed early, the update terms of about 7k of them still
    were, and Adam read about 1.4x slower. ``lr`` multiplies last for the
    same reason: ``lr*m`` would go subnormal while ``m`` is still far above
    its threshold. At a rate r, the update-term test also zeroes a live
    ``m`` whose ratio ``(m/bc1)/(sqrt(v/bc2)+eps)`` is below about
    1.0e-35/r (1e-31 at the protocol's 1e-4): a term that small moves no
    |value| above about 1e-19, with the flush or without it.

    The flush changes a byte only in cases far below any real run. A
    flushed ``m`` would have added less than lr*1.0e-27 to an update (|m| <
    1.0e-35, bc1 above 0.998 from step 64 on, and a denominator of at least
    eps 1e-8), or, flushed for its update term, less than 1.0e-35, and its
    later terms decay from there; so it moves no |value| above about
    lr*1e-11 (1e-19 for the second kind). A flushed ``v`` moves no byte
    while sqrt(v/bc2) stays below half an ulp of float32 ``eps`` (2^-51):
    both denominators then round to eps, and a flushed ``v`` gives at most
    about 5e-19. Once a gradient returns whose term, (1-beta1)*g or
    (1-beta2)*g*g, is 2^24 times beta times the flushed moment or more, the
    old moment sits below half an ulp of the new term, and the moment takes
    the unflushed optimizer's bits again: for |m| < 1.0e-35 from
    |g| >= 1.5e-27, for a flushed ``v`` from |g| >= 1.5e-14. Value bytes can
    therefore differ only for a parameter within about lr*1e-11 of zero, or
    where a gradient near 1.5e-14 meets a flushed ``v`` and moves a
    denominator by an ulp.
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
        self.m = np.zeros(self.value.size, np.float32)
        self.v = np.zeros(self.value.size, np.float32)

    def step(self, lr: float) -> None:
        """Apply one update from the gradients currently in the params."""
        self.step_count += 1
        b1, b2, eps = self.beta1, self.beta2, self.eps
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        # a division by a float32 1 is exact, so it is skipped: from step 165
        # for bc1 at beta1 0.9, and from step 17,321 for bc2 at beta2 0.999,
        # most of a 200-epoch run. There, skipping v/bc2 read Adam alone 3.23
        # against 3.58 ms at the default shape and 0.194 against 0.220 ms at
        # window 16 (medians, one lane), faster in 10 and 9 of 10 alternating
        # rounds (the tenth a tie)
        divide_m = np.float32(bc1) != 1.0
        divide_v = np.float32(bc2) != 1.0
        size = self.value.size
        # from ADAM_TWO_LANE_MIN up, one chunk of whole blocks per lane (the
        # caller's rounded up), so each lane allocates one scratch pair a step
        lane = -(-size // (2 * ADAM_BLOCK)) * ADAM_BLOCK if size >= ADAM_TWO_LANE_MIN else size
        flush = self.step_count % ADAM_FLUSH_EVERY == 0

        def update(chunk: slice) -> None:
            stop = min(chunk.stop, size)
            s1 = np.empty(min(ADAM_BLOCK, stop - chunk.start), np.float32)
            s2 = np.empty_like(s1)
            # the element-wise order of the per-array formula
            #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
            #   value -= (m/bc1) / (sqrt(v/bc2) + eps) * lr
            # is kept exactly, so the bits match an unblocked update. All
            # but the last operation are float32 (a Python float takes the
            # float32 array's dtype); value subtracts the float32 term in
            # float64
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
                if divide_v:
                    np.divide(v, bc2, out=t2)
                    np.sqrt(t2, out=t2)
                else:
                    np.sqrt(v, out=t2)
                t2 += eps
                if divide_m:
                    np.divide(m, bc1, out=t1)
                    t1 /= t2
                else:
                    np.divide(m, t2, out=t1)
                # lr last: lr*m would turn subnormal while m is still well
                # above the flush threshold
                t1 *= lr
                self.value[block] -= t1
                if flush:
                    # after this block's value update, so this step's own
                    # bytes are the unflushed optimizer's; the mask reuses
                    # t2's bytes, since a 32 KiB bool block allocated per
                    # flush left train-fd001 1.2 MB higher and about 3% slower.
                    # A moment, or an update term, that only decays (by about
                    # its beta a step) stays normal up to the next flush from
                    # above these thresholds; t1 still holds the update term
                    mask = s2.view(bool)[: g.size]
                    small = s2.view(bool)[g.size : 2 * g.size]
                    np.abs(t1, out=t1)
                    np.less(t1, _TINY / b1**ADAM_FLUSH_EVERY, out=mask)
                    np.abs(m, out=t1)
                    mask |= np.less(t1, _TINY / b1**ADAM_FLUSH_EVERY, out=small)
                    m[mask] = 0.0
                    v[np.less(v, _TINY / b2**ADAM_FLUSH_EVERY, out=mask)] = 0.0

        map_chunks(update, size, lane)


class WindowBank:
    """All windows of a set of engines, served from one strided view.

    ``rows`` stacks the engines' padded scaled rows end to end, each engine's
    ``lengths[k]`` rows after ``window - 1`` copies of its first, and
    ``labels`` holds one label per window in flat order (engine by engine,
    cycle by cycle). Flat window j of engine k starts on row ``starts[j] =
    j + k * (window - 1)``. Training batches are stacked by ``gather``, one
    fancy index into a ``sliding_window_view`` over ``rows``, cast to
    float32, so training runs the float32 network; full-curve inference
    hands ``rows`` and ``starts`` to ``DegradationNetwork.trace_rows``, which
    shares the overlapping rows in float64.
    """

    def __init__(self, rows: np.ndarray, lengths: Sequence[int], labels: np.ndarray, window: int):
        self.rows = rows
        self.window = window
        self.labels = labels
        engine = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        self.starts = np.arange(labels.shape[0], dtype=np.int64) + engine * (window - 1)
        self._windows = sliding_window_view(rows, (window, rows.shape[1]))[:, 0]

    @property
    def n_windows(self) -> int:
        return self.labels.shape[0]

    def gather(self, indices: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray]:
        """The windows at flat indices (an array or a slice) as a (B, w, m) batch, with labels.

        The batch is float32, the dtype training runs in.
        """
        return self._windows[self.starts[indices]].astype(np.float32), self.labels[indices]


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
    one lane and two see the same chunks. A chunk of a bank's windows walks
    only its own rows (``DegradationNetwork.trace_rows``), so the
    ``window - 1`` rows that two neighbouring chunks of one engine share go
    through the conv stack once in each.
    """
    return map_chunks(fn, n, max(1, min(INFER_BATCH, (n + 1) // 2)))


def predict_windows(model: DegradationNetwork, bank: WindowBank) -> np.ndarray:
    """Unclamped model outputs for every window in the bank, in order.

    Each ``map_windows`` chunk is one ``DegradationNetwork.trace_rows`` call
    over the bank's rows, which walks only the chunk's own rows; its bytes
    are ``predict``'s of the chunk's stacked windows wherever that walk's
    conv matmuls round no row in a BLAS kernel's tail. A bank of another
    window than the model's is a ``ValueError``.
    """
    if bank.window != model.config.window:
        raise ValueError(
            f"a bank of {bank.window}-row windows for a {model.config.window}-row model"
        )
    return np.concatenate(map_windows(
        lambda c: model.trace_rows(bank.rows, bank.starts[c]).prediction, bank.n_windows
    ))


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
