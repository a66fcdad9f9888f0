"""Same seed, same bytes: one SHA-256 per artifact of a fixed set of ``tddn`` runs.

Usage: ``python tests/same_bytes.py [MODE] > hashes.json``, then compare with
``tests/same_bytes.json``. It runs the checkout it sits in (its ``src/``),
each command in a subprocess, in a temporary directory:

- data: ``make_bundle(n_train=12, n_test=4, min_len=30, max_len=140, seed=5)``
- ``train --epochs 8 --lr 3e-3 --patience 3 --seed 4`` at (window, depth,
  batch) = (8, 2, 16), (16, 1, 16), (32, 3, 16) and (64, 3, 32); the last is
  the default shape, whose backward splits four layers on two lanes
- ``evaluate`` and ``export-features --engine 1`` on each checkpoint, and a
  load-then-save of it, which must give the checkpoint's bytes again
- one small depth ``sweep``

It prints a JSON object: ``host``, and ``sha256``, which maps each file the
runs leave (paths relative to the work directory) to its SHA-256. The sweep's
``seconds`` and ``mean_seconds`` columns are left out of the hashed bytes. The
commands' own output goes to stderr.

``MODE`` sets the lanes in every command's process, as the golden pins do:
``native`` (the default) leaves the host's lane count, ``one-lane`` holds
``map_chunks`` to one lane, and ``two-lanes`` gives it two lanes with
``training.ADAM_TWO_LANE_MIN`` and ``layers.BACKWARD_TWO_LANE_MIN`` at 0, so
that every Adam step and every layer backward splits. The lanes split work
without changing it, so every mode, natively or under ``taskset -c 0``, must
print the same output on any host.

The bytes also depend on the NumPy build and the SIMD code it dispatches to
(another build or CPU rounds some sums differently), so ``host`` names the
NumPy version, the machine and NumPy's dispatch targets. The hashes in
``tests/same_bytes.json`` pin the bytes only where ``host`` is the same.
To compare two checkouts on any host, run each checkout's own
``tests/same_bytes.py`` on the same host and ``diff`` the two outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from _synth import make_bundle, write_bundle  # noqa: E402

SHAPES = ((8, 2, 16), (16, 1, 16), (32, 3, 16), (64, 3, 32))
TRAIN = ("--epochs", "8", "--lr", "3e-3", "--patience", "3", "--seed", "4")
SWEEP = (
    "--dim", "depth", "--values", "1,2", "--window", "8", "--batch", "16",
    "--epochs", "2", "--lr", "3e-3", "--seed", "4", "--repeats", "1",
)
RESAVE = (
    "import sys; from tddn.checkpoint import load_checkpoint, save_checkpoint; "
    "c = load_checkpoint(sys.argv[1]); "
    "save_checkpoint(sys.argv[2], c.model, c.scaler, c.selection, c.policy, c.selection.subset_id)"
)
# code each command's process runs first, by mode
MODES = {
    "native": "",
    "one-lane": "from tddn import lanes; lanes.cpu_lanes = lambda: 1",
    "two-lanes": (
        "from tddn import layers, lanes, training; lanes.cpu_lanes = lambda: 2; "
        "training.ADAM_TWO_LANE_MIN = layers.BACKWARD_TWO_LANE_MIN = 0"
    ),
}


def run(work: Path, mode: str, code: str, *args: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, "-c", f"{MODES[mode]}\n{code}", *args],
        cwd=work, env=env, stdout=sys.stderr, check=True,
    )


def tddn(work: Path, mode: str, *args: str) -> None:
    run(work, mode, "from tddn.cli import entrypoint; entrypoint()", *args)


def host() -> str:
    """NumPy's version, the machine and the SIMD targets NumPy dispatches to on it."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1
        from numpy.core import _multiarray_umath as umath
    return " ".join(["numpy", np.__version__, platform.machine(), *umath.__cpu_dispatch__])


def digest(path: Path) -> str:
    """SHA-256 of a file; a CSV loses its columns named ``seconds`` or ``mean_seconds``."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        lines = [line.split(",") for line in data.decode().splitlines()]
        keep = [i for i, name in enumerate(lines[0]) if name not in ("seconds", "mean_seconds")]
        if len(keep) < len(lines[0]):
            data = "".join(",".join(line[i] for i in keep) + "\n" for line in lines).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    (mode,) = argv or ["native"]
    if mode not in MODES:
        sys.exit(f"unknown mode {mode!r}; one of {', '.join(MODES)}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        bundle = make_bundle(n_train=12, n_test=4, min_len=30, max_len=140, seed=5)
        write_bundle(bundle, work / "data")
        for window, depth, batch in SHAPES:
            shape = f"w{window}-d{depth}-b{batch}"
            ckpt = f"{shape}/run/model.ckpt"
            tddn(
                work, mode, "train", "--data", "data", "--out", f"{shape}/run", "--window",
                str(window), "--depth", str(depth), "--batch", str(batch), *TRAIN,
            )
            tddn(
                work, mode, "evaluate", "--checkpoint", ckpt, "--data", "data",
                "--out", f"{shape}/eval",
            )
            tddn(
                work, mode, "export-features", "--checkpoint", ckpt, "--data", "data",
                "--out", f"{shape}/features", "--engine", "1",
            )
            run(work, mode, RESAVE, ckpt, f"{shape}/resaved.ckpt")
            if (work / ckpt).read_bytes() != (work / shape / "resaved.ckpt").read_bytes():
                sys.exit(f"{ckpt}: a load-then-save changed its bytes")
        tddn(work, mode, "sweep", "--data", "data", "--out", "sweep", *SWEEP)
        hashes = {
            path.relative_to(work).as_posix(): digest(path)
            for path in sorted(work.rglob("*"))
            if path.is_file()
        }
    json.dump({"host": host(), "sha256": hashes}, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
