"""Output checks. Each check is one attempted operation; a failed one
makes the run incorrect and the command exit nonzero.

The recomputations here are written independently of the package
(plain Python sums over the CSV text), so a bug shared by the package's
metric code and its CSV writer still shows.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path


class Checks:
    """Counts attempted checks and keeps a message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def count_problems(bundle, n_train: int, n_test: int, train_rows: int, test_rows: int) -> list[str]:
    """Differences between a parsed subset and the counts the generator wrote."""
    got = {
        "train engines": (len(bundle.train), n_train),
        "test engines": (len(bundle.test), n_test),
        "train rows": (sum(t.n_cycles for t in bundle.train), train_rows),
        "test rows": (sum(t.n_cycles for t in bundle.test), test_rows),
        "RUL values": (len(bundle.test_rul), n_test),
    }
    return [f"{what}: parsed {a}, wrote {b}" for what, (a, b) in got.items() if a != b]


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def evaluate_problems(out_dir: Path, rul_file: Path, r_max: int) -> tuple[list[str], dict[int, float]]:
    """Check ``tddn evaluate`` outputs against values recomputed from its CSVs.

    predictions.csv must carry the RUL file's values capped at ``r_max``
    and d = pred - true; metrics.csv must hold the RMSE and NASA score of
    those predictions. Returns the problems and the predictions by engine.
    """
    problems: list[str] = []
    truth = [min(int(line), r_max) for line in rul_file.read_text().split()]
    rows = _rows(out_dir / "predictions.csv")
    preds: dict[int, float] = {}
    diffs: list[float] = []
    if len(rows) != len(truth):
        problems.append(f"predictions.csv has {len(rows)} rows for {len(truth)} engines")
    for row, true in zip(rows, truth):
        pred = float(row["pred_rul"])
        preds[int(row["engine_id"])] = pred
        if float(row["true_rul"]) != true:
            problems.append(f"engine {row['engine_id']}: true_rul {row['true_rul']} != {true}")
        if float(row["d"]) != pred - true:
            problems.append(f"engine {row['engine_id']}: d {row['d']} != pred - true")
        if not 0.0 <= pred <= r_max:
            problems.append(f"engine {row['engine_id']}: prediction {pred} outside [0, {r_max}]")
        diffs.append(pred - true)
    if not diffs:
        return problems + ["no predictions"], preds
    rmse = math.sqrt(math.fsum(d * d for d in diffs) / len(diffs))
    score = math.fsum(math.expm1(-d / 13.0) if d < 0 else math.expm1(d / 10.0) for d in diffs)
    (written,) = _rows(out_dir / "metrics.csv")
    for name, want in (("rmse", rmse), ("nasa_score", score)):
        got = float(written[name])
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"metrics.csv {name} {got!r}, recomputed {want!r}")
    return problems, preds


def last_prediction_problems(
    curve_last: dict[int, float], evaluated: dict[int, float]
) -> tuple[list[str], int]:
    """Compare each engine's last full-curve prediction with ``evaluate``'s.

    Returns the engines that disagree beyond rounding (rel. 1e-9), and the
    count that differ in any bit. The two paths forward the same window in
    batches of different sizes, and NumPy's matmul rounds a one-row batch
    differently from a larger one, so the bit count is reported, not gated.
    """
    problems: list[str] = []
    if curve_last.keys() != evaluated.keys():
        problems.append("full-curve and evaluate cover different engines")
    bit_mismatches = 0
    for uid in sorted(curve_last.keys() & evaluated.keys()):
        a, b = curve_last[uid], evaluated[uid]
        bit_mismatches += a != b
        if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"engine {uid}: last curve value {a!r}, evaluate {b!r}")
    return problems, bit_mismatches
