from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tddn import cmapss
from tddn.cmapss import (
    COLUMN_NAMES,
    N_FIELDS,
    N_SETTINGS,
    EngineTrajectory,
    ParseError,
    StructureError,
    format_value,
    group_by_engine,
    load_split,
    load_subset,
    load_test,
    parse_data_file,
    parse_rul_file,
    subset_file_names,
)
from _synth import make_bundle, write_bundle, write_data_file, write_rul_file


# The per-line record parser and grouping loop the matrix path replaced,
# kept as the oracle: on every input it accepts, the matrix path must give
# the same engines with bit-identical values, and on every input it rejects
# the same error. It has no bound on unit ids and cycles.
@dataclass(frozen=True)
class ReferenceRecord:
    unit_id: int
    cycle: int
    settings: tuple[float, ...]
    sensors: tuple[float, ...]


def _reference_int_field(token: str, what: str, line_no: int) -> int:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"line {line_no}: non-numeric {what} {token!r}") from None
    if not value.is_integer():
        raise ParseError(f"line {line_no}: {what} must be an integer, got {token!r}")
    return int(value)


def reference_parse(lines: Iterable[str]) -> list[ReferenceRecord]:
    records: list[ReferenceRecord] = []
    for line_no, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != N_FIELDS:
            raise ParseError(
                f"line {line_no}: expected {N_FIELDS} columns, got {len(fields)}"
            )
        unit_id = _reference_int_field(fields[0], "unit id", line_no)
        cycle = _reference_int_field(fields[1], "cycle", line_no)
        if unit_id < 1:
            raise ParseError(f"line {line_no}: unit id must be >= 1, got {unit_id}")
        if cycle < 1:
            raise ParseError(f"line {line_no}: cycle must be >= 1, got {cycle}")
        numbers = []
        for tok in fields[2:]:
            try:
                numbers.append(float(tok))
            except ValueError:
                raise ParseError(f"line {line_no}: non-numeric value {tok!r}") from None
        records.append(
            ReferenceRecord(
                unit_id=unit_id,
                cycle=cycle,
                settings=tuple(numbers[:N_SETTINGS]),
                sensors=tuple(numbers[N_SETTINGS:]),
            )
        )
    return records


def reference_group(records: Iterable[ReferenceRecord]) -> list[EngineTrajectory]:
    ordered = sorted(records, key=lambda r: (r.unit_id, r.cycle))
    trajectories: list[EngineTrajectory] = []
    i = 0
    while i < len(ordered):
        unit = ordered[i].unit_id
        j = i
        while j < len(ordered) and ordered[j].unit_id == unit:
            j += 1
        chunk = ordered[i:j]
        for expected, rec in enumerate(chunk, start=1):
            if rec.cycle == expected:
                continue
            if rec.cycle < expected:
                raise StructureError(f"unit {unit}: duplicate cycle {rec.cycle}")
            raise StructureError(f"unit {unit}: missing cycle {expected}")
        values = np.array(
            [rec.settings + rec.sensors for rec in chunk], dtype=np.float64
        )
        trajectories.append(EngineTrajectory(unit_id=unit, values=values))
        i = j
    return trajectories


def _line(unit: int, cycle: int, values=None) -> str:
    if values is None:
        values = [0.1 * i for i in range(24)]
    return f"{unit} {cycle} " + " ".join(str(v) for v in values)


class TestParseDataFile:
    def test_parses_fields_in_order(self):
        rows = parse_data_file(_as_stream([_line(3, 7, list(range(24)))]))
        assert rows.shape == (1, N_FIELDS)
        assert rows.dtype == np.float64
        assert rows[0].tolist() == [3.0, 7.0] + [float(v) for v in range(24)]

    def test_blank_lines_skipped(self):
        records = parse_data_file(_as_stream(["", _line(1, 1), "   ", _line(1, 2), ""]))
        assert len(records) == 2

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match=r"line 1: expected 26 columns, got 25"):
            parse_data_file(_as_stream(["1 1 " + " ".join(["0.0"] * 23)]))

    def test_line_number_in_error_counts_all_lines(self):
        with pytest.raises(ParseError, match=r"line 3"):
            parse_data_file(_as_stream([_line(1, 1), "", "1 2 short"]))

    def test_non_numeric_value(self):
        bad = _line(1, 1).replace("0.2", "abc")
        with pytest.raises(ParseError, match=r"non-numeric value 'abc'"):
            parse_data_file(_as_stream([bad]))

    def test_rejects_bad_unit_and_cycle(self):
        with pytest.raises(ParseError, match=r"unit id must be >= 1"):
            parse_data_file(_as_stream([_line(0, 1)]))
        with pytest.raises(ParseError, match=r"cycle must be >= 1"):
            parse_data_file(_as_stream([_line(1, 0)]))
        with pytest.raises(ParseError, match=r"unit id must be an integer"):
            parse_data_file(_as_stream(["1.5 1 " + " ".join(["0.0"] * 24)]))

    def test_rejects_ids_a_float64_cannot_hold(self):
        message = r"line 2: unit id must be below 2\*\*53, got '1e19'"
        with pytest.raises(ParseError, match=message):
            parse_data_file(_as_stream(["", "1e19 1 " + " ".join(["0.0"] * 24)]))
        with pytest.raises(ParseError, match=r"line 1: cycle must be below 2\*\*53"):
            parse_data_file(_as_stream([_line(1, 2**53)]))
        rows = parse_data_file(_as_stream([_line(2**53 - 1, 1)]))
        assert int(rows[0, 0]) == 2**53 - 1

    @pytest.mark.parametrize("lines", [[], [""], ["", "   ", "\t\x0c", "\r\n"]],
                             ids=["empty", "one-blank", "blanks"])
    def test_no_data_gives_an_empty_matrix_without_a_warning(self, lines):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = parse_data_file(_as_stream(lines))
            assert rows.shape == (0, N_FIELDS)
            assert rows.dtype == np.float64
            assert group_by_engine(rows) == []

    def test_forms_only_float_accepts_parse_through_the_line_loop(self, monkeypatch):
        calls = []
        loop = cmapss._parse_lines
        monkeypatch.setattr(cmapss, "_parse_lines", lambda lines: calls.append(1) or loop(lines))
        rows = parse_data_file(_as_stream([_line(1, 1, ["1_0", "\u0661"] + [0.0] * 22)]))
        assert rows[0, 2:4].tolist() == [10.0, 1.0]
        assert calls == [1]

    def test_field_count_constant(self):
        assert N_FIELDS == 26
        assert len(COLUMN_NAMES) == 24


class TestParseOpenFile:
    """An open file is read in place; the loop reads it again from where it stood."""

    @staticmethod
    def _file(tmp_path, lines: list[str]):
        path = tmp_path / "data.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
        return open(path, encoding="ascii")

    @staticmethod
    def _count_loops(monkeypatch) -> list[int]:
        calls: list[int] = []
        loop = cmapss._parse_lines
        monkeypatch.setattr(cmapss, "_parse_lines", lambda lines: calls.append(1) or loop(lines))
        return calls

    def test_bad_third_line_is_named_by_the_loop(self, tmp_path, monkeypatch):
        calls = self._count_loops(monkeypatch)
        with self._file(tmp_path, [_line(1, 1), _line(1, 2), "1 3 short"]) as fh:
            with pytest.raises(ParseError, match=r"^line 3: expected 26 columns, got 3$"):
                parse_data_file(fh)
        assert calls == [1]

    def test_forms_only_float_accepts_get_the_loops_bits(self, tmp_path, monkeypatch):
        lines = [_line(1, 1), _line(1, 2, ["1_0"] + [0.1 * i for i in range(23)])]
        want = cmapss._parse_lines(lines)
        calls = self._count_loops(monkeypatch)
        with self._file(tmp_path, lines) as fh:
            got = parse_data_file(fh)
        assert calls == [1]
        assert got[1, 2] == 10.0
        assert got.tobytes() == want.tobytes()

    def test_blank_file_gives_an_empty_matrix_without_a_warning(self, tmp_path):
        with self._file(tmp_path, ["", "   ", "\t"]) as fh:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = parse_data_file(fh)
        assert rows.shape == (0, N_FIELDS)

    def test_stream_is_parsed_from_where_it_stands(self, tmp_path, monkeypatch):
        calls = self._count_loops(monkeypatch)
        odd = _line(1, 2, ["1_0"] + [0.1 * i for i in range(23)])
        for source in (_as_stream, lambda lines: self._file(tmp_path, lines)):
            calls.clear()
            with source(["unit cycle ...", _line(1, 1), _line(1, 2)]) as fh:
                fh.readline()  # unlike next(fh), keeps tell() working
                assert parse_data_file(fh)[:, 1].tolist() == [1.0, 2.0]
            assert calls == []
            with source(["unit cycle ...", _line(1, 1), odd]) as fh:
                fh.readline()
                rows = parse_data_file(fh)
            assert calls == [1]
            assert rows[:, 1].tolist() == [1.0, 2.0]
            assert rows[1, 2] == 10.0
            with source(["unit cycle ...", _line(1, 1), "1 2 short"]) as fh:
                fh.readline()
                with pytest.raises(ParseError, match=r"^line 2: expected 26 columns, got 3$"):
                    parse_data_file(fh)
            assert calls == [1, 1]

    def test_non_ascii_byte_deep_in_a_file_is_named(self, tmp_path):
        # past NumPy's first reads, and after a line that the loop would refuse
        bundle = make_bundle(n_train=2, n_test=40, min_len=60, max_len=60, seed=3)
        write_bundle(bundle, tmp_path)
        path = tmp_path / "test_FD001.txt"
        lines = path.read_bytes().splitlines(keepends=True)
        assert sum(map(len, lines[:-1])) > 1 << 16
        lines[1] = b"1 2 short\n"
        lines[-1] = lines[-1].replace(b" ", b" \xc3\xa9", 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(ParseError) as caught:
            load_split(tmp_path, "FD001", "test")
        assert str(caught.value) == f"test_FD001.txt: line {len(lines)}: non-ASCII byte 0xc3"


class TestGroupByEngine:
    def test_groups_and_sorts(self):
        records = parse_data_file(_as_stream([_line(2, 1), _line(1, 2), _line(1, 1), _line(2, 2)]))
        trajectories = group_by_engine(records)
        assert [t.unit_id for t in trajectories] == [1, 2]
        assert all(t.n_cycles == 2 for t in trajectories)

    def test_values_matrix_shape(self):
        trajectories = group_by_engine(parse_data_file(_as_stream([_line(1, 1), _line(1, 2)])))
        traj = trajectories[0]
        assert traj.values.shape == (2, 24)

    def test_duplicate_cycle(self):
        with pytest.raises(StructureError, match=r"unit 2: duplicate cycle 1"):
            group_by_engine(parse_data_file(_as_stream([_line(2, 1), _line(2, 1)])))

    def test_missing_cycle(self):
        with pytest.raises(StructureError, match=r"unit 2: missing cycle 2"):
            group_by_engine(parse_data_file(_as_stream([_line(2, 1), _line(2, 3)])))


class TestParseRulFile:
    def test_parses_one_int_per_line(self):
        assert parse_rul_file(["3", "", "10"]) == [3, 10]

    def test_rejects_negative(self):
        with pytest.raises(ParseError, match=r"RUL must be >= 0"):
            parse_rul_file(["-1"])

    def test_rejects_non_integer(self):
        with pytest.raises(ParseError):
            parse_rul_file(["2.5"])

    def test_rejects_values_a_float64_cannot_hold(self):
        with pytest.raises(ParseError, match=r"line 1: RUL must be below 2\*\*53"):
            parse_rul_file(["1e19"])


class TestRoundTrip:
    def test_data_file_round_trip_is_exact(self):
        bundle = make_bundle(n_train=3, n_test=2, seed=11)
        stream = io.StringIO()
        write_data_file(bundle.train, stream)
        stream.seek(0)
        reparsed = group_by_engine(parse_data_file(stream))
        assert len(reparsed) == len(bundle.train)
        for orig, back in zip(bundle.train, reparsed):
            assert back.unit_id == orig.unit_id
            np.testing.assert_array_equal(back.values, orig.values)

    def test_rul_file_round_trip(self):
        stream = io.StringIO()
        write_rul_file([5, 0, 119], stream)
        assert parse_rul_file(stream.getvalue().splitlines()) == [5, 0, 119]

    def test_format_value_round_trips_floats(self):
        rng = np.random.default_rng(42)
        for x in rng.normal(scale=1e3, size=200):
            assert float(format_value(x)) == x


class TestLoadSubset:
    def test_loads_synthetic_directory(self, synth_data_dir):
        bundle = load_subset(synth_data_dir, "FD001")
        assert bundle.subset_id == "FD001"
        assert len(bundle.train) == 6
        assert len(bundle.test) == 4
        assert bundle.test_rul.shape == (4,)
        assert bundle.test_rul.dtype == np.int64

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=r"train_FD001\.txt"):
            load_subset(tmp_path, "FD001")

    def test_rul_count_mismatch(self, tmp_path):
        bundle = make_bundle(n_train=2, n_test=2, seed=3)
        write_bundle(bundle, tmp_path)
        (tmp_path / "RUL_FD001.txt").write_text("7\n")
        with pytest.raises(StructureError, match=r"RUL"):
            load_subset(tmp_path, "FD001")

    def test_every_file_must_exist_before_any_is_parsed(self, tmp_path):
        write_bundle(make_bundle(n_train=2, n_test=2, seed=3), tmp_path)
        (tmp_path / "train_FD001.txt").write_text("1 2 3\n")
        (tmp_path / "RUL_FD001.txt").unlink()
        with pytest.raises(FileNotFoundError, match=r"RUL_FD001\.txt"):
            load_subset(tmp_path, "FD001")

    @pytest.mark.parametrize("name, edit, error, message, load", [
        ("train_FD001.txt", lambda b: b.replace(b"\n", b"\n1 2 3\n", 1),
         ParseError, "train_FD001.txt: line 2: expected 26 columns, got 3", load_subset),
        ("test_FD001.txt", lambda b: b[b.index(b"\n") + 1:],
         StructureError, "test_FD001.txt: unit 1: missing cycle 1", load_subset),
        ("RUL_FD001.txt", lambda b: b"7\n-2\n" + b,
         ParseError, "RUL_FD001.txt: line 2: RUL must be >= 0, got -2", load_subset),
        # lines are counted as parsing counts them: \r\n is one line end, a lone \r one
        ("test_FD001.txt", lambda b: b"\r\n\r\n\r1 1\xc3\xa9\n" + b,
         ParseError, "test_FD001.txt: line 4: non-ASCII byte 0xc3", load_subset),
        ("train_FD001.txt", lambda b: b"",
         StructureError, "train_FD001.txt: no engines", load_subset),
        ("test_FD001.txt", lambda b: b"\n \n",
         StructureError, "test_FD001.txt: no engines", load_subset),
        # the split loaders name the file the same way
        ("train_FD001.txt", lambda b: b.replace(b"\n", b"\n1 2 3\n", 1),
         ParseError, "train_FD001.txt: line 2: expected 26 columns, got 3",
         lambda d, sid: load_split(d, sid, "train")),
        ("test_FD001.txt", lambda b: b[b.index(b"\n") + 1:],
         StructureError, "test_FD001.txt: unit 1: missing cycle 1",
         lambda d, sid: load_split(d, sid, "test")),
        ("test_FD001.txt", lambda b: b"\r\n\r\n\r1 1\xc3\xa9\n" + b,
         ParseError, "test_FD001.txt: line 4: non-ASCII byte 0xc3",
         lambda d, sid: load_split(d, sid, "test")),
        ("train_FD001.txt", lambda b: b"",
         StructureError, "train_FD001.txt: no engines", lambda d, sid: load_split(d, sid, "train")),
        ("test_FD001.txt", lambda b: b"\n \n", StructureError, "test_FD001.txt: no engines", load_test),
        ("RUL_FD001.txt", lambda b: b"7\n-2\n" + b,
         ParseError, "RUL_FD001.txt: line 2: RUL must be >= 0, got -2", load_test),
        ("RUL_FD001.txt", lambda b: b"7\n",
         StructureError, "FD001: 2 test engines but 1 RUL lines", load_test),
    ], ids=[
        "parse", "structure", "rul", "non-ascii", "empty-train", "blank-test",
        "split-parse", "split-structure", "split-non-ascii", "split-empty-train",
        "test-blank-test", "test-rul", "test-rul-count",
    ])
    def test_errors_name_the_file(self, tmp_path, name, edit, error, message, load):
        write_bundle(make_bundle(n_train=2, n_test=2, seed=3), tmp_path)
        path = tmp_path / name
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(error) as caught:
            load(tmp_path, "FD001")
        assert str(caught.value) == message

    def test_unknown_subset(self):
        with pytest.raises(ValueError, match=r"unknown subset"):
            subset_file_names("FD009")

    def test_split_loaders_read_what_load_subset_reads(self, synth_data_dir):
        bundle = load_subset(synth_data_dir, "fd001")
        test = load_test(synth_data_dir, "fd001")
        assert (test.subset_id, test.train) == ("FD001", ())
        np.testing.assert_array_equal(test.test_rul, bundle.test_rul)
        assert test.test_rul.dtype == np.int64
        for split, engines in (("train", bundle.train), ("test", bundle.test)):
            loaded = load_split(synth_data_dir, "FD001", split)
            assert [t.unit_id for t in loaded] == [t.unit_id for t in engines]
            for ours, theirs in zip(loaded, engines):
                np.testing.assert_array_equal(ours.values, theirs.values)
        for ours, theirs in zip(test.test, bundle.test):
            np.testing.assert_array_equal(ours.values, theirs.values)

    def test_split_loaders_need_only_their_files(self, tmp_path):
        write_bundle(make_bundle(n_train=2, n_test=2, seed=3), tmp_path)
        (tmp_path / "train_FD001.txt").unlink()
        assert len(load_test(tmp_path, "FD001").test) == 2
        with pytest.raises(FileNotFoundError, match=r"train_FD001\.txt"):
            load_split(tmp_path, "FD001", "train")
        (tmp_path / "RUL_FD001.txt").unlink()
        assert len(load_split(tmp_path, "FD001", "test")) == 2
        with pytest.raises(FileNotFoundError, match=r"RUL_FD001\.txt"):
            load_test(tmp_path, "FD001")

    def test_unknown_split(self, synth_data_dir):
        with pytest.raises(ValueError, match=r"unknown split 'RUL'"):
            load_split(synth_data_dir, "FD001", "RUL")

    def test_file_names(self):
        assert subset_file_names("FD003") == (
            "train_FD003.txt",
            "test_FD003.txt",
            "RUL_FD003.txt",
        )


# Value tokens in the forms copies of the dataset use, plus the edge cases
# float() accepts: signed zero, non-finite values, underscores, exponents.
_VALUE_FORMATS = (repr, "{:.4f}".format, "{:.6e}".format, lambda x: str(int(x)))
_ODD_VALUES = ("-0.0", "nan", "inf", "-inf", "1_0", "1e-320", "+7", ".5", "5.")
# str.split() and NumPy's reader both split on \x0b, \x0c and \x1c; a trailing
# \r gives the line a \r\n end
_SEPARATORS = (" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\x1c")
_BLANKS = ("", "   ", "\t", "\r", "\x0c \x1c")
_LINE_ENDS = ("", "\r")


@st.composite
def data_lines(draw, odd_values: tuple[str, ...] = _ODD_VALUES) -> list[str]:
    """Valid data lines of a few engines in shuffled order, with blank lines.

    A few values are drawn from ``odd_values``.
    """
    unit_ids = draw(
        st.lists(
            st.one_of(st.integers(1, 50), st.integers(1, 2**53 - 1)),
            min_size=1, max_size=4, unique=True,
        )
    )
    keys = [(u, c) for u in unit_ids for c in range(1, draw(st.integers(1, 6)) + 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = []
    for unit, cycle in draw(st.permutations(keys)):
        tokens = [str(unit), str(cycle)]
        for x in rng.normal(0.0, 10.0 ** rng.integers(-3, 5), 24).tolist():
            if odd_values and rng.random() < 0.05:
                tokens.append(odd_values[rng.integers(len(odd_values))])
            else:
                tokens.append(_VALUE_FORMATS[rng.integers(len(_VALUE_FORMATS))](x))
        line = draw(st.sampled_from(_SEPARATORS)).join(tokens)
        lines.append(line + draw(st.sampled_from(_LINE_ENDS)))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BLANKS)))
    return lines


def _as_stream(lines: list[str]) -> io.StringIO:
    return io.StringIO("".join(line + "\n" for line in lines))


def assert_same_trajectories(got: list[EngineTrajectory], want: list[EngineTrajectory]):
    assert [t.unit_id for t in got] == [t.unit_id for t in want]
    for g, w in zip(got, want):
        assert g.values.dtype == w.values.dtype == np.float64
        assert g.values.shape == w.values.shape
        assert g.values.tobytes() == w.values.tobytes()


class TestMatchesReference:
    @given(data_lines())
    def test_shuffled_engines_give_identical_trajectories(self, lines):
        got = group_by_engine(parse_data_file(_as_stream(lines)))
        want = reference_group(reference_parse(_as_stream(lines)))
        assert_same_trajectories(got, want)


def _loop_must_not_run(lines):
    raise AssertionError("valid input fell back to the per-line loop")


class TestOnePass:
    """Valid input is parsed by NumPy alone; the line loop would be ~3x slower."""

    def test_bench_shaped_file(self, monkeypatch, tmp_path):
        bundle = make_bundle(n_train=5, n_test=2, seed=9)
        line = "%d %d " + " ".join(["%.4f"] * 24)
        path = tmp_path / "train_FD001.txt"
        path.write_text("".join(
            line % (t.unit_id, i + 1, *row) + "\n"
            for t in bundle.train for i, row in enumerate(t.values.tolist())
        ))
        with open(path, encoding="ascii") as fh:
            want = reference_group(reference_parse(fh))
        monkeypatch.setattr(cmapss, "_parse_lines", _loop_must_not_run)
        with open(path, encoding="ascii") as fh:
            got = group_by_engine(parse_data_file(fh))
        assert_same_trajectories(got, want)

    @given(lines=data_lines(odd_values=()))
    def test_generated_lines(self, lines):
        want = reference_group(reference_parse(_as_stream(lines)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cmapss, "_parse_lines", _loop_must_not_run)
            got = group_by_engine(parse_data_file(_as_stream(lines)))
        assert_same_trajectories(got, want)


_BAD_TOKENS = (
    "abc", "1e19", "-1e19", "9007199254740992", "1e400", "-3", "0", "-0",
    "2.5", "nan", "inf", "-inf", "0x10", "1,5", "--1", "1e",
    "\u0661",  # ARABIC-INDIC DIGIT ONE: float() reads it as 1.0
    # comments and quotes are not part of the format; NumPy's reader would
    # skip or strip them if asked to
    "#", "#1", "1#", '"2"', "'2'",
    "1\r2",  # a lone \r splits the field for str.split() and ends a line for NumPy
)


@st.composite
def mutated_lines(draw) -> list[str]:
    """Valid data lines with a few fields or lines dropped, repeated or garbled."""
    lines = draw(data_lines())
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(
            ("drop_field", "dup_field", "dup_line", "drop_line", "blank_line", "tabs",
             "comment_line", "blank_stream")
            + ("swap_token",) * 6
        ))
        i = draw(st.integers(0, len(lines)))
        if op == "blank_line":
            lines.insert(i, draw(st.sampled_from(_BLANKS)))
            continue
        if op == "blank_stream":  # nothing but blank lines, or no lines at all
            lines = draw(st.lists(st.sampled_from(_BLANKS), max_size=3))
            continue
        if op == "comment_line":  # a whole-line comment, or a data line commented out
            lines.insert(i, "# " + (lines[i] if i < len(lines) else "unit cycle"))
            continue
        if not lines:
            continue
        i = min(i, len(lines) - 1)
        if op == "dup_line":
            lines.insert(i, lines[i])
        elif op == "drop_line":
            del lines[i]
        elif op == "tabs":
            lines[i] = "\t".join(lines[i].split())
        else:
            fields = lines[i].split()
            if not fields:
                continue
            # unit id and cycle carry most of the checks, so they are hit more often
            j = draw(st.one_of(st.integers(0, 1), st.integers(0, len(fields) - 1)))
            j = min(j, len(fields) - 1)
            if op == "drop_field":
                del fields[j]
            elif op == "dup_field":
                fields.insert(j, fields[j])
            else:
                fields[j] = draw(st.sampled_from(_BAD_TOKENS))
            lines[i] = " ".join(fields)
    return lines


class TestParserFuzz:
    @given(mutated_lines())
    def test_every_input_parses_or_raises_a_dataset_error(self, lines):
        try:
            got = group_by_engine(parse_data_file(_as_stream(lines)))
        except (ParseError, StructureError) as exc:
            if "below 2**53" in str(exc):
                return  # the reference has no bound to compare against
            with pytest.raises(type(exc)) as want:
                reference_group(reference_parse(_as_stream(lines)))
            assert str(want.value) == str(exc)
        else:
            want = reference_group(reference_parse(_as_stream(lines)))
            assert_same_trajectories(got, want)
