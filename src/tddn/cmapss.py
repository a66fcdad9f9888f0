"""C-MAPSS turbofan dataset ingestion.

Each subset FD001..FD004 ships as three text files following the NASA
naming convention: ``train_FDxxx.txt``, ``test_FDxxx.txt`` and
``RUL_FDxxx.txt``. Data rows carry 26 whitespace-separated numeric
columns:

    unit  cycle  setting_1..setting_3  sensor_1..sensor_21

The parser takes one input, an open text file, and reads it from where
it stands. It parses in one NumPy pass: ``np.loadtxt`` with no comment
character reads the file itself, with no list of its lines, and
vectorized checks require 26 columns and unit ids and cycles that are
integers in [1, 2**53), so a float64 holds each exactly. Only when that
pass refuses the input does the per-line loop run, over the file read
again from the same place. The loop is fail-fast: a malformed line raises
ParseError with its 1-based line number, counting blank lines. It also
accepts the forms ``float()`` reads and NumPy does not (``1_0``, non-ASCII
digits), so a file parses, or fails, as the loop alone would have it,
with the same bits. Fields may be separated by any whitespace ``str.split()``
splits on, and blank lines are skipped, since copies of the dataset in
the wild vary; ``#`` and quotes are plain non-numeric tokens. Rows may
come in any order; a data file parses into one (n, 26) float64 matrix in
file order, and grouping sorts it by (unit, cycle) and requires each
engine's cycles to be exactly 1..n, raising StructureError otherwise.

``load_split`` reads the engines of one data file, train or test;
``load_test`` adds the RUL targets to the test engines, in a bundle with
no train engines, which is all that scoring a trained model needs; and
``load_subset`` checks that all three files exist, then reads the train
split and ``load_test``'s two files. Each reads ASCII files and puts the
file name in front of every ParseError and StructureError, and of a
non-ASCII byte's line. A train or test file with no data rows is a
StructureError (``no engines``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Callable, Iterable, TypeVar

import numpy as np

SUBSET_IDS = ("FD001", "FD002", "FD003", "FD004")

N_SETTINGS = 3
N_SENSORS = 21
N_FIELDS = 2 + N_SETTINGS + N_SENSORS

SETTING_NAMES = tuple(f"setting_{i}" for i in range(1, N_SETTINGS + 1))
SENSOR_NAMES = tuple(f"sensor_{i}" for i in range(1, N_SENSORS + 1))
#: Canonical feature order used everywhere downstream (26 columns minus unit/cycle).
COLUMN_NAMES = SETTING_NAMES + SENSOR_NAMES
# integer fields (unit id, cycle, RUL) stay below this, so a float64 holds each exactly
_INT_LIMIT = 2**53

_T = TypeVar("_T")


class CmapssError(Exception):
    """Base class for dataset ingestion failures."""


class ParseError(CmapssError):
    """A line could not be parsed (wrong field count, non-numeric token)."""


class StructureError(CmapssError):
    """Parsed values violate dataset structure (cycle gaps, count mismatches)."""


@dataclass(frozen=True, eq=False)
class EngineTrajectory:
    """All cycles of one engine, ordered 1..n with no gaps.

    ``values`` is an (n, 24) float64 matrix in COLUMN_NAMES order.
    """

    unit_id: int
    values: np.ndarray

    @property
    def n_cycles(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class DatasetBundle:
    """One subset: train/test trajectories plus the test-end RUL targets."""

    subset_id: str
    train: tuple[EngineTrajectory, ...]
    test: tuple[EngineTrajectory, ...]
    test_rul: np.ndarray  # (len(test),) nonnegative ints, test-engine order


def _check_subset_id(subset_id: str) -> str:
    sid = subset_id.strip().upper()
    if sid not in SUBSET_IDS:
        raise ValueError(f"unknown subset {subset_id!r}; expected one of {SUBSET_IDS}")
    return sid


def _parse_int_field(token: str, what: str, line_no: int) -> int:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {line_no}: non-numeric {what} {token!r}") from None
    if not value.is_integer():
        raise ParseError(f"line {line_no}: {what} must be an integer, got {token!r}")
    if value >= _INT_LIMIT:
        raise ParseError(f"line {line_no}: {what} must be below 2**53, got {token!r}")
    return int(value)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def parse_data_file(fh: IO[str]) -> np.ndarray:
    """Parse an open text file into an (n, 26) float64 matrix in file order.

    The file is read from where it stands, and each further pass seeks
    back there. Raises ParseError naming the offending 1-based line
    number, counted from there, on a wrong column count, a non-numeric
    token, or a unit id or cycle that is not an integer in [1, 2**53).
    NumPy reads valid input in one pass; the per-line loop runs only when
    that pass refuses the input.
    """
    start = fh.tell()
    # stops at the first line with data; loadtxt warns on input with none
    if not any(map(str.strip, fh)):
        return np.empty((0, N_FIELDS))
    fh.seek(start)
    try:
        rows = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        rows = np.empty((0, 0))  # refused: the loop names the first bad line
    ids = rows[:, :2]
    if rows.shape[1] != N_FIELDS or not np.all(
        (ids >= 1) & (ids < _INT_LIMIT) & (ids == np.trunc(ids))
    ):
        fh.seek(start)
        # listed before the loop, so a non-ASCII byte anywhere is reported ahead of a bad line
        return _parse_lines(list(fh))
    return rows


def _parse_lines(lines: Iterable[str]) -> np.ndarray:
    """parse_data_file one line at a time: names the first bad line."""
    flat: list[float] = []
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != N_FIELDS:
            raise ParseError(
                f"line {line_no}: expected {N_FIELDS} columns, got {len(fields)}"
            )
        unit_id = _parse_int_field(fields[0], "unit id", line_no)
        cycle = _parse_int_field(fields[1], "cycle", line_no)
        if unit_id < 1:
            raise ParseError(f"line {line_no}: unit id must be >= 1, got {unit_id}")
        if cycle < 1:
            raise ParseError(f"line {line_no}: cycle must be >= 1, got {cycle}")
        try:
            flat.extend(map(float, fields))
        except ValueError:
            bad = next(tok for tok in fields if not _is_number(tok))
            raise ParseError(f"line {line_no}: non-numeric value {bad!r}") from None
    return np.array(flat, dtype=np.float64).reshape(-1, N_FIELDS)


def group_by_engine(rows: np.ndarray) -> list[EngineTrajectory]:
    """Split a parsed (n, 26) matrix into per-engine trajectories ordered by unit id.

    One stable sort on (unit, cycle) orders the rows, and each trajectory's
    ``values`` is a row slice of the sorted matrix. Cycles of each engine
    must be exactly 1..n; the first gap or duplicate in sorted order raises
    StructureError naming the unit and cycle.
    """
    if not len(rows):
        return []
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    units = rows[order, 0]
    cycles = rows[order, 1]
    values = rows[order, 2:]
    bounds = np.flatnonzero(np.diff(units)) + 1
    starts = np.concatenate(([0], bounds))
    sizes = np.diff(np.concatenate((starts, [len(units)])))
    # row i of an engine starting at row s should hold cycle i - s + 1
    expected = np.arange(1, len(units) + 1) - np.repeat(starts, sizes)
    mismatch = np.flatnonzero(cycles != expected)
    if mismatch.size:
        i = mismatch[0]
        unit, cycle, want = int(units[i]), int(cycles[i]), int(expected[i])
        if cycle < want:
            raise StructureError(f"unit {unit}: duplicate cycle {cycle}")
        raise StructureError(f"unit {unit}: missing cycle {want}")
    return [
        EngineTrajectory(unit_id=int(units[s]), values=block)
        for s, block in zip(starts, np.split(values, bounds))
    ]


def parse_rul_file(lines: Iterable[str]) -> list[int]:
    """Parse a RUL target stream: one nonnegative integer per line."""
    values: list[int] = []
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 1:
            raise ParseError(f"line {line_no}: expected one value, got {len(fields)}")
        rul = _parse_int_field(fields[0], "RUL", line_no)
        if rul < 0:
            raise ParseError(f"line {line_no}: RUL must be >= 0, got {rul}")
        values.append(rul)
    return values


def subset_file_names(subset_id: str) -> tuple[str, str, str]:
    """Conventional (train, test, RUL) file names for a subset."""
    sid = _check_subset_id(subset_id)
    return (f"train_{sid}.txt", f"test_{sid}.txt", f"RUL_{sid}.txt")


def _existing(directory: str | Path, sid: str, *kinds: str) -> list[Path]:
    """Paths of the subset's ``kinds`` files; the first one missing is a FileNotFoundError."""
    names = dict(zip(("train", "test", "RUL"), subset_file_names(sid)))
    paths = [Path(directory) / names[kind] for kind in kinds]
    for path in paths:
        if not path.is_file():
            raise FileNotFoundError(f"missing C-MAPSS file: {path}")
    return paths


def _read(path: Path, parse: Callable[[IO[str]], _T]) -> _T:
    """``parse`` of an ASCII text file; a dataset error names the file first."""
    try:
        with open(path, encoding="ascii") as fh:
            return parse(fh)
    except UnicodeDecodeError:
        raise ParseError(f"{path.name}: {_first_non_ascii(path)}") from None
    except CmapssError as exc:
        raise type(exc)(f"{path.name}: {exc}") from None


def _first_non_ascii(path: Path) -> str:
    """'line N: non-ASCII byte 0xXX' for the first such byte of ``path``."""
    # surrogateescape reads byte b >= 0x80 as chr(0xDC00 + b), counting lines as parsing does
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
                return f"line {line_no}: non-ASCII byte 0x{byte:02x}"
    return "non-ASCII byte"


def _engines(fh: IO[str]) -> list[EngineTrajectory]:
    trajectories = group_by_engine(parse_data_file(fh))
    if not trajectories:
        raise StructureError("no engines")
    return trajectories


def load_split(directory: str | Path, subset_id: str, split: str) -> tuple[EngineTrajectory, ...]:
    """The engines of one data file, ``train_FDxxx.txt`` or ``test_FDxxx.txt``."""
    if split not in ("train", "test"):
        raise ValueError(f"unknown split {split!r}; expected 'train' or 'test'")
    (path,) = _existing(directory, _check_subset_id(subset_id), split)
    return tuple(_read(path, _engines))


def load_test(directory: str | Path, subset_id: str) -> DatasetBundle:
    """The test split and its RUL targets, as a bundle with no train engines."""
    sid = _check_subset_id(subset_id)
    rul_path = _existing(directory, sid, "test", "RUL")[1]
    test = load_split(directory, sid, "test")
    test_rul = _read(rul_path, parse_rul_file)
    if len(test_rul) != len(test):
        raise StructureError(
            f"{sid}: {len(test)} test engines but {len(test_rul)} RUL lines"
        )
    return DatasetBundle(
        subset_id=sid, train=(), test=test, test_rul=np.asarray(test_rul, dtype=np.int64)
    )


def load_subset(directory: str | Path, subset_id: str) -> DatasetBundle:
    """Load one subset from a directory holding the NASA-named text files.

    All three files must exist before any is read; then the train file is
    parsed, and ``load_test`` reads the other two.
    """
    sid = _check_subset_id(subset_id)
    _existing(directory, sid, "train", "test", "RUL")
    train = load_split(directory, sid, "train")
    return replace(load_test(directory, sid), train=train)


def format_value(x: float) -> str:
    """Shortest decimal form that round-trips the exact float64 value."""
    return repr(float(x))
