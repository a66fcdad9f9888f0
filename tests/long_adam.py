"""Long Adam run: flushing subnormal moments changes no byte and saves time.

Usage: ``python tests/long_adam.py``. It takes no flags and runs the checkout
it sits in (its ``src/``). It trains the window-16, depth-1 network on the
windows of ``make_bundle(n_train=20, min_len=120, max_len=260, seed=2)`` at
batch 32 for ``STEPS`` steps, twice in one process: first as shipped, then with
``training.ADAM_FLUSH_EVERY`` out of reach, so no moment is ever flushed.

Every 1,000 steps it prints, for each run, the medians of the Adam step and of
the whole training step over those steps, and the counts of subnormal first
and second moments. It exits non-zero unless the two runs' parameter bytes
are equal at every 1,000th step and the unflushed run ends with subnormal
first moments (without them, the comparison covered no flush). Gradients
that are exactly 0 on every step (dead ReLU units) drive the float32 first
moments below 2^-126 after about 760 steps, so ``STEPS`` stays well past
that. Their second moments need about 71,000 steps, past what a CI step
can run, so here they stay normal; the tier-1 flush test covers them.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from _synth import make_bundle  # noqa: E402

from tddn import training  # noqa: E402
from tddn.layers import mse_loss  # noqa: E402
from tddn.model import DegradationNetwork, ModelConfig, conv_channels_for_depth  # noqa: E402
from tddn.preprocess import fit_scaler, select_columns  # noqa: E402

STEPS = 3_000
REPORT_EVERY = 1_000
TINY = np.finfo(np.float32).tiny


def subnormal_moments(moments: np.ndarray) -> int:
    return int(np.count_nonzero((moments != 0.0) & (np.abs(moments) < TINY)))


def run(bank: training.WindowBank, label: str) -> tuple[list[str], int]:
    """Train for STEPS steps, printing timings every REPORT_EVERY steps.

    Returns the params' SHA-256 at every REPORT_EVERY-th step and the count
    of subnormal first moments at the end.
    """
    config = training.TrainConfig()
    model_config = ModelConfig(window=16, conv_channels=conv_channels_for_depth(1))
    model = DegradationNetwork(model_config, np.random.default_rng(config.seed))
    opt = training.Adam(model.params())
    hashes, adam_ms, step_ms = [], [], []
    epoch, pos, order = 0, bank.n_windows, None
    for step in range(1, STEPS + 1):
        if pos >= bank.n_windows:
            epoch += 1
            order = np.random.default_rng([config.seed, epoch]).permutation(bank.n_windows)
            pos = 0
        idx = order[pos : pos + config.batch_size]
        pos += idx.size
        t0 = time.perf_counter()
        x, y = bank.gather(idx)
        _, gpred = mse_loss(model.forward(x), y)
        model.zero_grad()
        model.backward(gpred)
        t1 = time.perf_counter()
        opt.step(training.lr_at(epoch, config))
        t2 = time.perf_counter()
        adam_ms.append((t2 - t1) * 1e3)
        step_ms.append((t2 - t0) * 1e3)
        if step % REPORT_EVERY == 0:
            hashes.append(hashlib.sha256(model.value.tobytes()).hexdigest())
            print(
                f"{label:>9} steps {step - REPORT_EVERY + 1:>5}-{step:<5} epoch {epoch:>3}  "
                f"adam p50 {statistics.median(adam_ms):6.3f} ms  "
                f"step p50 {statistics.median(step_ms):6.3f} ms  "
                f"subnormal m {subnormal_moments(opt.m)} v {subnormal_moments(opt.v)}",
                flush=True,
            )
            adam_ms.clear()
            step_ms.clear()
    return hashes, subnormal_moments(opt.m)


def main() -> int:
    started = time.perf_counter()
    bundle = make_bundle(n_train=20, min_len=120, max_len=260, seed=2)
    selection = select_columns("FD001")
    config = training.TrainConfig()
    bank = training.build_window_bank(
        bundle.train, fit_scaler(bundle.train, selection), selection, config.label_policy, 16
    )
    flushed, _ = run(bank, "flushed")
    shipped_period = training.ADAM_FLUSH_EVERY
    training.ADAM_FLUSH_EVERY = STEPS + 1
    try:
        unflushed, stuck = run(bank, "unflushed")
    finally:
        training.ADAM_FLUSH_EVERY = shipped_period
    failures = [
        f"params differ after step {(k + 1) * REPORT_EVERY}"
        for k, (a, b) in enumerate(zip(flushed, unflushed))
        if a != b
    ]
    if not stuck:
        failures.append("the unflushed run ends with no subnormal first moment, so no flush was tested")
    print(f"{len(flushed)} checkpoints compared in {time.perf_counter() - started:.1f} s")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
