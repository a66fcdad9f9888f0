"""Accuracy gate for a change that moves bits: does the candidate train as well as its reference?

Usage: ``python tests/accuracy_gate.py [REFERENCE_SRC]``. It trains the
``SEEDS`` at each of ``SHAPES`` on ``make_bundle(n_train=20, n_test=6,
min_len=60, max_len=200, seed=3)``, at lr 3e-3 and batch 32 for a fixed
number of epochs (no early stop), in three arms:

- reference: the package under ``REFERENCE_SRC`` (by default this
  checkout's ``src/``, so that the tree is tested against itself)
- null: the reference with one initial weight nudged by 1 ulp. Training is
  chaotic (a dead or live ReLU unit can hinge on one rounding), so this
  shows how far rounding alone moves each seed
- candidate: this checkout's ``src/``

To gate a change against its parent, check the parent out and pass its
``src/``. Each arm runs in a subprocess pinned to one CPU, as many at once
as the process may use CPUs; on a 2-core host the script takes about
3.5 minutes.

The rule (``Verdict``), fixed before any candidate was measured: a seed's
score is its mean validation RMSE over the last ``TAIL`` epochs; at each
shape the candidate's shift is the median over seeds of its score minus
the reference's, and the noise is the largest absolute null minus
reference difference. The candidate passes a shape if its shift is no
larger than the noise either way, and the script exits 1 unless every
shape passes. A run that stops on a non-finite loss scores infinity.
``compare`` builds the verdicts from three arms' scores, so a script that
asks whether a variant trains better can call it with its own arms and
read ``Verdict.better``.

How the rule was sized, before any float32-moment run, on the tree before
them: against itself the gate passes, with a noise of 0.42, 1.98 and 1.21
RMSE at the three shapes (212.7 s on a 2-core host). A learning rate x10
(a change the gate must fail) shifts them by +0.81, +0.12 and -0.01 and
fails at (8, 2), as it does in every 8-seed subset of the 10 there.
Initial weights rounded to float32 (a change of rounding only, of
float32's size) shift them by -0.02, -0.98 and -0.06 and pass. A zeroed
attention-context gradient shifts them by +0.03, -0.28 and -0.51 and
passes: with the context vector frozen at its initial value the network
trains as well on this data, so no rule on the outcome can fail it; the
gradient checks do.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# (window, depth) -> epochs
SHAPES = {(8, 2): 16, (16, 1): 16, (64, 3): 6}
SEEDS = tuple(range(10))
TAIL = 4
LR = 3e-3
BATCH = 32
# the arena element the null arm nudges: conv1's first weight
NUDGED = 0


def train_arm(nudge: bool) -> dict[str, list[list[float]]]:
    """Every seed's validation RMSE curve at each shape, with the ``tddn`` on sys.path."""
    import numpy as np
    from _synth import make_bundle

    from tddn import training
    from tddn.model import ModelConfig, conv_channels_for_depth
    from tddn.preprocess import select_columns

    if nudge:
        class Nudged(training.DegradationNetwork):
            def __init__(self, config, rng):
                super().__init__(config, rng)
                self.value[NUDGED] = np.nextafter(self.value[NUDGED], np.inf)

        training.DegradationNetwork = Nudged
    bundle = make_bundle(n_train=20, n_test=6, min_len=60, max_len=200, seed=3)
    selection = select_columns("FD001")
    curves = {}
    for (window, depth), epochs in SHAPES.items():
        model_config = ModelConfig(window=window, conv_channels=conv_channels_for_depth(depth))
        runs = curves[f"{window},{depth}"] = []
        for seed in SEEDS:
            config = training.TrainConfig(
                batch_size=BATCH, max_epochs=epochs, lr_initial=LR, patience=epochs, seed=seed
            )
            try:
                report = training.train(bundle.train, model_config, config, selection).report
                runs.append(list(report.val_rmse))
            except training.TrainingError:
                runs.append([math.inf] * epochs)
    return curves


def score(curve: list[float]) -> float:
    """A seed's score: its mean validation RMSE over the last ``TAIL`` epochs."""
    return statistics.fmean(curve[-TAIL:])


@dataclass(frozen=True)
class Verdict:
    """One shape's comparison of a candidate and the null with the reference.

    ``shift`` is the median over seeds of candidate minus reference scores,
    and ``noise`` the largest absolute null minus reference score: how far
    rounding alone moved a seed. The candidate passes where its shift is no
    larger than that noise either way; a caller that asks whether a variant
    trains better reads ``better``.
    """

    shape: str
    candidate_diffs: tuple[float, ...]
    null_diffs: tuple[float, ...]

    @property
    def shift(self) -> float:
        return statistics.median(self.candidate_diffs)

    @property
    def noise(self) -> float:
        return max(abs(d) for d in self.null_diffs)

    @property
    def passed(self) -> bool:
        return abs(self.shift) <= self.noise

    @property
    def better(self) -> bool:
        return self.shift < -self.noise


Scores = dict[str, list[float]]


def compare(reference: Scores, null: Scores, candidate: Scores) -> list[Verdict]:
    """One ``Verdict`` per shape, from three arms' per-seed scores in seed order."""
    return [
        Verdict(
            shape,
            tuple(c - r for c, r in zip(candidate[shape], ref, strict=True)),
            tuple(n - r for n, r in zip(null[shape], ref, strict=True)),
        )
        for shape, ref in reference.items()
    ]


def run_arms(arms: dict[str, tuple[Path, str]]) -> dict[str, dict[str, list[list[float]]]]:
    """Each arm's curves, from one subprocess per arm, one arm per usable CPU at a time.

    Each arm pins itself to its CPU, so it trains on one lane and no two
    arms share a core. The lanes change no bit, so the curves are the same
    however the arms are placed.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [-1]
    pending, out = list(arms.items()), {}
    while pending:
        wave, pending = pending[: len(cpus)], pending[len(cpus) :]
        procs = {
            name: subprocess.Popen(
                [sys.executable, __file__, "--arm", str(src), mode, str(cpu)],
                stdout=subprocess.PIPE,
            )
            for (name, (src, mode)), cpu in zip(wave, cpus)
        }
        for name, proc in procs.items():
            stdout, _ = proc.communicate()
            if proc.returncode != 0:
                sys.exit(f"arm {name} exited {proc.returncode}")
            out[name] = json.loads(stdout)
    return out


def main(argv: list[str]) -> int:
    if argv[:1] == ["--arm"]:
        if int(argv[3]) >= 0:
            os.sched_setaffinity(0, {int(argv[3])})
        sys.path[:0] = [argv[1], str(TESTS)]
        json.dump(train_arm(argv[2] == "nudge"), sys.stdout)
        return 0
    started = time.perf_counter()
    here = TESTS.parent / "src"
    reference = Path(argv[0]).resolve() if argv else here
    curves = run_arms({
        "reference": (reference, "plain"),
        "null": (reference, "nudge"),
        "candidate": (here, "plain"),
    })
    scores = {
        arm: {shape: [score(c) for c in runs] for shape, runs in by_shape.items()}
        for arm, by_shape in curves.items()
    }
    verdicts = compare(scores["reference"], scores["null"], scores["candidate"])
    for v in verdicts:
        print(f"shape ({v.shape})")
        for name, values in (
            ("reference", scores["reference"][v.shape]),
            ("candidate - reference", v.candidate_diffs),
            ("null - reference", v.null_diffs),
        ):
            print(f"  {name:>21} " + " ".join(f"{x:7.3f}" for x in values))
        print(
            f"  shift {v.shift:.3f}, noise {v.noise:.3f}: "
            + ("pass" if v.passed else "FAIL")
        )
    print(f"{len(SEEDS)} seeds, 3 arms, {time.perf_counter() - started:.1f} s")
    return 0 if all(v.passed for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
