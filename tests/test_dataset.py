import csv
import io
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errorkit import dataset
from errorkit.dataset import (
    DatasetError,
    DifferentialRows,
    EmptyInputError,
    ErrorSamples,
    LegPairs,
    MalformedRowError,
    MeasurementSeries,
)

import reference_values as ref


def _one_row(condition, observed, reference=math.nan):
    return MeasurementSeries.from_columns(
        [condition], [observed], [reference], condition_unit="m", value_unit="m")


class TestFromColumnsRowChecks:
    def test_plain_row(self):
        series = _one_row(-40.0, 4.9999)
        assert math.isnan(series.columns.reference[0])

    def test_reference_within_bound(self):
        series = _one_row(6.0232, 6.0232, 6.0237)
        assert series.columns.reference.tolist() == [6.0237]

    def test_reference_outside_bound_rejected(self):
        with pytest.raises(MalformedRowError) as excinfo:
            _one_row(1.0, 5.0, 5.2)
        assert str(excinfo.value) == (
            "row 1, column 'reference': reference 5.2 is implausibly far from observed 5.0")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_observed_rejected(self, bad):
        with pytest.raises(MalformedRowError) as excinfo:
            _one_row(0.0, bad)
        assert (excinfo.value.column, excinfo.value.detail) == (
            "observed", f"observed must be finite, got {bad!r}")

    def test_nonfinite_condition_rejected(self):
        with pytest.raises(MalformedRowError) as excinfo:
            _one_row(math.nan, 1.0)
        assert (excinfo.value.column, excinfo.value.detail) == (
            "condition", "condition must be finite, got nan")


class TestRowInvariants:
    """Each row invariant is checked once, by its columnar type."""

    def test_leg_order_enforced(self):
        with pytest.raises(MalformedRowError) as excinfo:
            DifferentialRows([18.0008, 5.0], [9.9965, 5.0])
        assert str(excinfo.value) == (
            "row 2, column 's1': require s1 > s2, got s1=5.0 s2=5.0")

    def test_nonfinite_error_rejected(self):
        with pytest.raises(ValueError, match=r"^row 1: error must be finite, got inf$"):
            ErrorSamples([0.0], [math.inf])

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_condition_rejected(self, value):
        with pytest.raises(ValueError) as excinfo:
            ErrorSamples([1.0, value, 2.0], [math.nan, 0.0, 1.0])
        assert str(excinfo.value) == "row 1: error must be finite, got nan"
        with pytest.raises(ValueError) as excinfo:
            ErrorSamples([1.0, value, 2.0], [0.0, math.inf, 1.0])
        assert str(excinfo.value) == f"row 2: condition must be finite, got {value!r}"

    @pytest.mark.parametrize("s_ab, s_ac, row, got", [
        ([18.0], [10.0], 1, "s_ac=10.0 s_ab=18.0"),
        ([10.0, 18.0], [18.0, 10.0], 2, "s_ac=10.0 s_ab=18.0"),
        ([10.0], [10.0], 1, "s_ac=10.0 s_ab=10.0"),
    ])
    def test_unordered_pair_rejected(self, s_ab, s_ac, row, got):
        with pytest.raises(MalformedRowError) as excinfo:
            LegPairs(s_ab, s_ac)
        assert (excinfo.value.row_index, excinfo.value.column) == (row, "s_ac")
        assert str(excinfo.value) == f"row {row}, column 's_ac': require s_ac > s_ab, got {got}"


class TestLoadSeries:
    def test_bundled_oscillator_table(self, table1_series):
        assert len(table1_series) == 15
        assert table1_series.condition_unit == "degC"
        assert table1_series.value_unit == "MHz"
        assert table1_series.label == "table1"
        assert np.array_equal(table1_series.columns.condition, ref.TABLE1_TEMPS)
        assert np.array_equal(table1_series.columns.observed, ref.TABLE1_FREQS)

    def test_bundled_calibration_table(self, table2_series):
        assert len(table2_series) == 21
        assert table2_series.value_unit == "m"
        condition, observed, reference = (c.tolist() for c in table2_series.columns)
        assert observed == [measured for _, measured, _ in ref.TABLE2]
        assert reference == [standard for standard, _, _ in ref.TABLE2]
        assert condition == observed

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            dataset.load_series(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(EmptyInputError):
            dataset.load_series(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "bare.csv"
        p.write_text("# units: m\ncondition,observed\n")
        with pytest.raises(EmptyInputError, match="header only"):
            dataset.load_series(p)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("lead", ["#" + "x" * 400, "\n" * 300],
                             ids=["long comment", "blank lines"])
    def test_a_long_lead_before_the_header_is_skipped(self, tmp_path, newline, lead):
        # The first 256 characters hold no header and data line, so the
        # prefix searched for them has to grow.
        text = dataset.bundled_path("table2.csv").read_text()
        lines = lead.split("\n") + text.splitlines()
        p = tmp_path / "lead.csv"
        p.write_text(newline.join(lines) + newline, newline="")
        series, plain = dataset.load_series(p), dataset.load_series(
            dataset.bundled_path("table2.csv"))
        assert (series.condition_unit, series.value_unit) == (
            plain.condition_unit, plain.value_unit)
        for got, want in zip(series.columns, plain.columns):
            assert np.array_equal(got, want)

    def test_malformed_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("condition,observed\n1,5.0\n2,abc\n")
        with pytest.raises(MalformedRowError, match="row 2") as excinfo:
            dataset.load_series(p)
        assert excinfo.value.row_index == 2
        assert excinfo.value.column == "observed"

    def test_short_row_reported_as_malformed(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("condition,observed\n1,5.0\n2\n")
        with pytest.raises(MalformedRowError, match="row 2.*only 1 cells") as excinfo:
            dataset.load_series(p)
        assert excinfo.value.row_index == 2
        assert excinfo.value.column == "observed"

    def test_short_row_without_optional_reference_still_loads(self, tmp_path):
        p = tmp_path / "optional.csv"
        p.write_text("condition,observed,reference\n1,5.0,5.0001\n2,5.0\n")
        series = dataset.load_series(p)
        assert series.columns.reference[0] == 5.0001
        assert math.isnan(series.columns.reference[1])

    def test_nan_reference_cell_reported_as_malformed(self, tmp_path):
        p = tmp_path / "nan_ref.csv"
        p.write_text("condition,observed,reference\n1,5.0,5.0001\n2,5.0,nan\n3,5.0,\n")
        with pytest.raises(MalformedRowError, match="must be finite, got nan") as excinfo:
            dataset.load_series(p)
        assert (excinfo.value.row_index, excinfo.value.column) == (2, "reference")

    def test_blank_reference_cell_means_no_reference(self, tmp_path):
        p = tmp_path / "blank_ref.csv"
        p.write_text("condition,observed,reference\n1,5.0,5.0001\n2,5.0,  \n")
        series = dataset.load_series(p)
        assert series.columns.reference[0] == 5.0001
        assert math.isnan(series.columns.reference[1])

    def test_earlier_check_failure_beats_later_parse_failure(self, tmp_path):
        p = tmp_path / "order.csv"
        p.write_text("condition,observed\n1,5.0\n2,inf\nx,5.0\n")
        with pytest.raises(MalformedRowError, match="row 2") as excinfo:
            dataset.load_series(p)
        assert excinfo.value.column == "observed"

    def test_missing_column(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(DatasetError, match="missing column"):
            dataset.load_series(p)

    def test_sanity_violation_reported_as_malformed_row(self, tmp_path):
        p = tmp_path / "swap.csv"
        p.write_text(
            "# units: m\ncondition,observed,reference\n1,5.0,5.0001\n2,5.0,9.9\n"
        )
        with pytest.raises(MalformedRowError, match="row 2"):
            dataset.load_series(p)

    @pytest.mark.parametrize("header, column", [
        ("condition,observed,observed", "observed"),
        ("condition,observed,reference,condition", "condition"),
        ("condition,observed,reference, reference ", "reference"),
    ])
    def test_column_read_twice_by_name_is_refused(self, tmp_path, header, column):
        p = tmp_path / "twice.csv"
        p.write_text(f"{header}\n1,5.0,5.0,1\n")
        with pytest.raises(DatasetError) as excinfo:
            dataset.load_series(p)
        assert type(excinfo.value) is DatasetError
        assert str(excinfo.value) == f"{p}: column {column!r} is named more than once"

    def test_column_not_read_may_be_named_twice(self, tmp_path):
        p = tmp_path / "extra.csv"
        p.write_text("note,condition,observed,note\na,1,5.0,b\n")
        assert np.array_equal(dataset.load_series(p).columns.observed, [5.0])

    def test_bare_units_token_applies_to_all_columns(self, tmp_path):
        p = tmp_path / "bare_units.csv"
        p.write_text("# units: m\ncondition,observed\n1,2\n3,4\n")
        series = dataset.load_series(p)
        assert series.condition_unit == "m"
        assert series.value_unit == "m"

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "comments.csv"
        p.write_text(
            "# a remark\n# units: m\n\ncondition,observed\n1,2\n\n# tail\n3,4\n"
        )
        assert len(dataset.load_series(p)) == 2


    def test_byte_order_mark_is_ignored(self, tmp_path, table1_series):
        src = dataset.bundled_path("table1.csv")
        p = tmp_path / "table1.csv"
        p.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        series = dataset.load_series(p)
        assert _same_series(series, table1_series)
        assert (series.condition_unit, series.value_unit) == ("degC", "MHz")


# The CSV reader as it was before clean files skipped the per-line
# Python pass, kept as the reference: every line is filtered in Python,
# the units come from the last "# units:" line anywhere in the file, and
# the data lines are joined again to look for a quote.
def _reference_read_csv(path):
    text = Path(path).read_bytes().decode("utf-8-sig")
    if not text.strip():
        raise EmptyInputError(f"{path}: file is empty")
    all_lines = text.splitlines()
    units_lines = [line for line in all_lines if line.startswith("# units:")]
    units = dataset._parse_units_line(units_lines[-1]) if units_lines else {}
    lines = [line for line in all_lines if line and line[0] != "#" and not line.isspace()]
    if not lines:
        raise EmptyInputError(f"{path}: no header row found")
    if len(lines) == 1:
        raise EmptyInputError(f"{path}: header only, no data rows")
    header = next(csv.reader(lines[:1]))
    return units, [h.strip() for h in header], lines[1:]


def _reference_read_columns(lines, specs):
    text = "\n".join(lines)
    if '"' not in text:
        try:
            block = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None,
                               ndmin=2, usecols=[pos for pos, _, _ in specs])
        except ValueError:
            pass
        else:
            if not any(optional and np.isnan(values).any()
                       for values, (_, _, optional) in zip(block.T, specs)):
                return [(values, None) for values in block.T]
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    return [dataset._read_column(rows, pos, column, optional=optional)
            for pos, column, optional in specs]


def _same_series(a, b):
    """Whether two series have the same units, label and columns, any NaN
    equal to any other."""
    return ((a.condition_unit, a.value_unit, a.label) == (b.condition_unit, b.value_unit, b.label)
            and all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a.columns, b.columns)))


def _outcome(load, path):
    """What ``load`` makes of ``path``: units, label and every column bit
    for bit (any NaN equal to any other), or the error's type, row,
    column and message."""
    try:
        result = load(path)
    except (ValueError, OSError) as exc:
        return (type(exc), getattr(exc, "row_index", None), getattr(exc, "column", None),
                str(exc))
    if isinstance(result, tuple):  # _read_csv
        return result[:2]
    labels = ((result.condition_unit, result.value_unit, result.label)
              if isinstance(result, MeasurementSeries) else ())
    return labels, [np.where(np.isnan(c), np.nan, c).tobytes() for c in result.columns]


def _reference_outcome(load, path):
    with mock.patch.multiple(dataset, _read_csv=_reference_read_csv,
                             _read_columns=_reference_read_columns):
        return _outcome(load, path)


def _scale_rows(n=10_000):
    """``n`` valid ``condition,observed,reference`` rows as cell lists."""
    return [[f"{i * 0.01:.2f}", f"{5.0 + i * 1e-6:.6f}", f"{5.0 + i * 1e-6 + 1e-5:.6f}"]
            for i in range(n)]


def _write_rows(path, header, rows):
    path.write_text("# units: m\n" + header + "\n"
                    + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    return path


class TestFastPathHandover:
    """10^4-row files that the C reader refuses or must not take as read."""

    def test_clean_file_is_not_read_cell_by_cell(self, tmp_path, monkeypatch):
        p = _write_rows(tmp_path / "clean.csv", "condition,observed,reference",
                        _scale_rows())
        reference = dataset.load_series(p)
        monkeypatch.setattr(dataset, "_read_column", None)
        assert _same_series(dataset.load_series(p), reference)

    def test_bad_cell_in_the_last_row(self, tmp_path):
        rows = _scale_rows()
        rows[-1][1] = "5.0x"
        p = _write_rows(tmp_path / "bad.csv", "condition,observed,reference", rows)
        with pytest.raises(MalformedRowError) as excinfo:
            dataset.load_series(p)
        err = excinfo.value
        assert (err.row_index, err.column, err.detail) == (
            10_000, "observed", "not a number: '5.0x'")

    def test_blank_reference_cell_near_the_end(self, tmp_path):
        rows = _scale_rows()
        rows[9998][2] = ""
        p = _write_rows(tmp_path / "blank.csv", "condition,observed,reference", rows)
        ref_column = dataset.load_series(p).columns.reference
        assert math.isnan(ref_column[9998])
        assert not np.isnan(np.delete(ref_column, 9998)).any()
        assert ref_column.tolist()[:3] == [float(r[2]) for r in rows[:3]]

    @pytest.mark.parametrize("gap", [False, True], ids=["no gap", "after a gap"])
    def test_nan_reference_cell_in_the_last_row(self, tmp_path, gap):
        rows = _scale_rows()
        rows[-1][2] = "nan"
        if gap:
            rows[5][2] = ""
        p = _write_rows(tmp_path / "nan.csv", "condition,observed,reference", rows)
        with pytest.raises(MalformedRowError) as excinfo:
            dataset.load_series(p)
        err = excinfo.value
        assert (err.row_index, err.column, err.detail) == (
            10_000, "reference", "must be finite, got nan")

    def test_files_without_gaps_make_one_loadtxt_call(self, tmp_path, monkeypatch):
        p = _write_rows(tmp_path / "clean.csv", "condition,observed,reference",
                        _scale_rows())
        table3 = dataset.bundled_path("table3.csv")
        calls, loadtxt = [], np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
        for load, path in [(dataset.load_series, p), (dataset.load_differential, table3),
                           (dataset.load_differential_pairs, table3)]:
            calls.clear()
            load(path)
            assert len(calls) == 1, load

    @pytest.mark.parametrize("row", [1, 9_998, 9_999], ids=["row 2", "row 9999", "last row"])
    def test_blank_reference_cell(self, tmp_path, row):
        rows = _scale_rows()
        rows[row][2] = ""
        p = _write_rows(tmp_path / "blank.csv", "condition,observed,reference", rows)
        want = _reference_outcome(dataset.load_series, p)
        columns = dataset.load_series(p).columns
        expected = [float(r[2]) if r[2] else math.nan for r in rows]
        assert np.array_equal(columns.reference, expected, equal_nan=True)
        assert columns.condition.tolist() == [float(r[0]) for r in rows]
        assert columns.observed.tolist() == [float(r[1]) for r in rows]
        assert _outcome(dataset.load_series, p) == want

    @pytest.mark.parametrize("row", [1, 9_998, 9_999], ids=["row 2", "row 9999", "last row"])
    def test_omitted_reference_cell(self, tmp_path, row):
        # A line short of its reference reads as its twin with a blank one.
        rows = _scale_rows()
        twin = [list(r) for r in rows]
        twin[row][2] = ""
        del rows[row][2]
        p = _write_rows(tmp_path / "omitted.csv", "condition,observed,reference", rows)
        want = dataset.load_series(
            _write_rows(tmp_path / "blank.csv", "condition,observed,reference", twin)).columns
        columns = dataset.load_series(p).columns
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(columns, want))

    @pytest.mark.parametrize("cells, column, detail", [
        (["90.00"], "observed", "row has only 1 cells"),
        (["90.00", "5.0x"], "observed", "not a number: '5.0x'"),
        (["90.00", "5.009", "nan"], "reference", "must be finite, got nan"),
        (["90.00", "5.009", "9.0"], "reference",
         "reference 9.0 is implausibly far from observed 5.009"),
    ])
    def test_refusal_after_an_omitted_reference_cell(self, tmp_path, cells, column, detail):
        # An omitted optional cell reads as a blank one; any other fault
        # is still reported.
        rows = _scale_rows()
        del rows[5][2]
        rows[9_000] = cells
        p = _write_rows(tmp_path / "bad.csv", "condition,observed,reference", rows)
        with pytest.raises(MalformedRowError) as excinfo:
            dataset.load_series(p)
        err = excinfo.value
        assert (err.row_index, err.column, err.detail) == (9_001, column, detail)
        assert _outcome(dataset.load_series, p) == _reference_outcome(dataset.load_series, p)

    @pytest.mark.parametrize("row, cell, column", [
        (1, 1, "observed"), (9_999, 1, "observed"), (1, 0, "condition"),
        (9_999, 0, "condition"),
    ])
    def test_blank_required_cell(self, tmp_path, row, cell, column):
        rows = _scale_rows()
        rows[row][cell] = ""
        p = _write_rows(tmp_path / "blank.csv", "condition,observed,reference", rows)
        with pytest.raises(MalformedRowError) as excinfo:
            dataset.load_series(p)
        err = excinfo.value
        assert (err.row_index, err.column, err.detail) == (row + 1, column, "not a number: ''")

    def test_comments_and_empty_lines_stay_on_the_c_reader(self, tmp_path, monkeypatch):
        rows = _scale_rows()
        plain = dataset.load_series(
            _write_rows(tmp_path / "s.csv", "condition,observed,reference", rows))
        lines = [",".join(r) for r in rows]
        for at in (9_000, 5_000, 5_000, 1):
            lines.insert(at, "")
        p = tmp_path / "gaps" / "s.csv"
        p.parent.mkdir()
        p.write_text("# a remark\n# units: m\n\ncondition,observed,reference\n\n"
                     + "\n".join(lines) + "\n\n", encoding="utf-8")
        calls, loadtxt, reader = [], np.loadtxt, csv.reader

        def header_reader(lines):
            assert isinstance(lines, list) and len(lines) == 1, "not the header line"
            return reader(lines)

        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
        monkeypatch.setattr(csv, "reader", header_reader)
        monkeypatch.setattr(dataset, "_content", None)
        monkeypatch.setattr(dataset, "_read_column", None)
        assert _same_series(dataset.load_series(p), plain)
        assert len(calls) == 1

    @pytest.mark.parametrize("line", [" \t", "\t", "# a remark"])
    def test_a_line_that_is_not_data_is_filtered(self, tmp_path, monkeypatch, line):
        rows = _scale_rows()
        plain = dataset.load_series(
            _write_rows(tmp_path / "s.csv", "condition,observed,reference", rows))
        lines = [",".join(r) for r in rows]
        lines.insert(5_000, line)
        p = tmp_path / "odd" / "s.csv"
        p.parent.mkdir()
        p.write_text("# units: m\ncondition,observed,reference\n" + "\n".join(lines) + "\n",
                     encoding="utf-8")
        filtered, content = [], dataset._content
        monkeypatch.setattr(dataset, "_content", lambda lines: (
            filtered.append(len(lines)) or content(lines)))
        assert _same_series(dataset.load_series(p), plain)
        assert filtered

    def test_quoted_comma_in_an_unused_column(self, tmp_path):
        # Split at every comma, the quoted note would put 7 and 8 in the
        # condition and observed slots.
        rows = [["\"a,7,8,b\""] + r[:2] for r in _scale_rows()]
        p = _write_rows(tmp_path / "note.csv", "note,condition,observed", rows)
        series = dataset.load_series(p)
        assert series.columns.condition.tolist() == [float(r[1]) for r in rows]
        assert series.columns.observed.tolist() == [float(r[2]) for r in rows]


def _branch_outcome(load, path, chars):
    """What ``load`` makes of ``path`` with the path feed's size threshold
    at ``chars``, as :func:`_outcome` gives it, and whether numpy's
    reader was handed the file's path."""
    fed, loadtxt = [], np.loadtxt

    def spy(source, *args, **kwargs):
        fed.append(not isinstance(source, list))
        return loadtxt(source, *args, **kwargs)

    with mock.patch.object(dataset, "_PATH_FEED_CHARS", chars), \
            mock.patch.object(np, "loadtxt", spy):
        return _outcome(load, path), any(fed)


def _branch_fixtures():
    """name -> (file bytes, whether numpy may read the file by path).

    Every cell is a full-precision repr, so equal columns are equal bit
    for bit; the faults sit at data row 17."""
    rng = np.random.default_rng(21)
    obs = 5.0 + rng.random(40) * 1e-3
    rows = [f"{c!r},{o!r},{o + d!r}" for c, o, d in
            zip((rng.random(40) * 90 - 40).tolist(), obs.tolist(),
                (rng.random(40) * 1e-5).tolist())]
    legs = [f"{a!r},{a + 8!r},{a + d!r},{a + 8 - d!r}" for a, d in
            zip((10 + rng.random(40) * 50).tolist(), (rng.random(40) * 1e-3).tolist())]
    head = ["# units: m", "condition,observed,reference"]

    def text(lines, br="\n"):
        return (br.join(lines) + br).encode("utf-8")

    def at17(cells, j, cell):
        edited = list(cells)
        parts = edited[16].split(",")
        parts[j:j + 1] = [cell] if cell is not None else []
        edited[16] = ",".join(parts)
        return edited

    fixtures = {
        "LF": (text(head + rows), True),
        "CRLF": (text(head + rows, "\r\n"), True),
        "lone CR": (text(head + rows, "\r"), True),
        "byte-order mark": (b"\xef\xbb\xbf" + text(head + rows), True),
        "differential": (text(["# units: m", "s_ab,s_ac,s2,s1"] + legs), True),
        "remark and blank line": (text(head + rows[:9] + ["# remark", ""] + rows[9:]), False),
        "blank line": (text(head + rows[:9] + [""] + rows[9:]), True),
        "whitespace-only line": (text(head + rows[:9] + [" \t"] + rows[9:]), True),
        "quoted cell": (text(head + at17(rows, 1, '"5.0"')), False),
        "quoted comma in s_ab": (
            text(["s_ab,s_ac,s2,s1"] + at17(legs, 0, '"10,5"')), False),
        "blank reference": (text(head + at17(rows, 2, "")), True),
        "nan reference": (text(head + at17(rows, 2, "nan")), True),
        "omitted reference": (text(head + at17(rows, 2, None)), True),
        "bad cell": (text(head + at17(rows, 1, "5.0x")), True),
        "non-UTF-8 byte": (text(head + at17(rows, 1, "5.0")).replace(
            b"5.0,", b"5.0\xff,", 1), False),
    }
    for br in ["\f", "\x85", "\u2028"]:
        fixtures[f"{br!r} in the head"] = (
            text(head + rows).replace(b"\n", br.encode(), 1), False)
        fixtures[f"{br!r} among the data"] = (
            text(head + rows[:9]) + text(rows[9:]).replace(b"\n", br.encode(), 1), False)
    return fixtures


BRANCH_FIXTURES = _branch_fixtures()


class TestPathFeed:
    """Both feeds of numpy's reader, the file's path and its list of
    lines, give the same columns or the same error."""

    @pytest.mark.parametrize("name", BRANCH_FIXTURES)
    def test_both_branches_agree(self, tmp_path, name):
        data, fed = BRANCH_FIXTURES[name]
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        for load in LOADERS[1:]:
            by_lines, on_lines = _branch_outcome(load, path, 10**12)
            by_path, on_path = _branch_outcome(load, path, 0)
            assert by_path == by_lines, load
            assert not on_lines
            # A loader refused for a missing column reads no cell.
            assert on_path == (fed and by_path[0] is not DatasetError), load

    def test_fixture_outcomes(self, tmp_path):
        # The fixtures do show what they are named for.
        outcome = {}
        for name, (data, _) in BRANCH_FIXTURES.items():
            path = tmp_path / f"{len(outcome)}.csv"
            path.write_bytes(data)
            outcome[name] = _outcome(dataset.load_series, path)
        lengths = {name: len(result[1][0]) // 8 for name, result in outcome.items()
                   if len(result) == 2}
        assert lengths == {name: 40 for name in [
            "LF", "CRLF", "lone CR", "byte-order mark", "remark and blank line",
            "blank line", "whitespace-only line", "quoted cell", "blank reference",
            "omitted reference", *(f"{br!r} {where}" for br in ["\f", "\x85", "\u2028"]
                                   for where in ["in the head", "among the data"])]}
        assert outcome["LF"][1] == outcome["CRLF"][1] == outcome["byte-order mark"][1]
        assert outcome["nan reference"][1:] == (
            17, "reference", "row 17, column 'reference': must be finite, got nan")
        assert outcome["bad cell"][1:] == (
            17, "observed", "row 17, column 'observed': not a number: '5.0x'")
        assert outcome["non-UTF-8 byte"][3].endswith("not UTF-8 text at line 19 (byte 0xff)")

    @pytest.mark.parametrize("chars", [0, 10**12], ids=["path feed", "list feed"])
    def test_omitted_reference_reads_as_a_blank_one(self, tmp_path, monkeypatch, chars):
        paths = {}
        for name in ("blank reference", "omitted reference"):
            paths[name] = tmp_path / name.split()[0] / "f.csv"
            paths[name].parent.mkdir()
            paths[name].write_bytes(BRANCH_FIXTURES[name][0])
        want = _outcome(dataset.load_series, paths["blank reference"])
        monkeypatch.setattr(dataset, "_PATH_FEED_CHARS", chars)
        assert _outcome(dataset.load_series, paths["omitted reference"]) == want

    @pytest.mark.parametrize("chars", [0, 10**12], ids=["path feed", "list feed"])
    @pytest.mark.parametrize("name", ["blank reference", "omitted reference",
                                      "nan reference"])
    def test_a_reference_gap_costs_one_c_pass(self, tmp_path, chars, name):
        # numpy's reader hands such a file to the cell reader after its
        # first pass, and no pass passes converters.
        path = tmp_path / "f.csv"
        path.write_bytes(BRANCH_FIXTURES[name][0])
        calls, loadtxt = [], np.loadtxt

        def spy(source, *args, **kwargs):
            calls.append((isinstance(source, list), "converters" in kwargs))
            return loadtxt(source, *args, **kwargs)

        with mock.patch.object(dataset, "_PATH_FEED_CHARS", chars), \
                mock.patch.object(np, "loadtxt", spy):
            outcome = _outcome(dataset.load_series, path)
        assert calls == [(chars != 0, False)]
        assert outcome == _reference_outcome(dataset.load_series, path)

    def test_large_file_takes_the_path_feed_unpatched(self, tmp_path):
        rows = _scale_rows(3_000)
        p = _write_rows(tmp_path / "s.csv", "condition,observed,reference", rows)
        assert p.stat().st_size > dataset._PATH_FEED_CHARS
        assert _branch_outcome(dataset.load_series, p, dataset._PATH_FEED_CHARS) == (
            _branch_outcome(dataset.load_series, p, 10**12)[0], True)
        columns = dataset.load_series(p).columns
        assert columns.reference.tolist() == [float(r[2]) for r in rows]

    def test_small_file_keeps_the_list_feed_unpatched(self, tmp_path):
        p = _write_rows(tmp_path / "s.csv", "condition,observed,reference",
                        _scale_rows(1_000))
        assert p.stat().st_size < dataset._PATH_FEED_CHARS
        assert not _branch_outcome(dataset.load_series, p, dataset._PATH_FEED_CHARS)[1]

    @pytest.mark.parametrize("change", ["grown", "rewritten", "removed"])
    def test_file_changed_before_numpy_reads_it(self, tmp_path, change):
        # The columns come from the text read first, parsed from its lines.
        rows = _scale_rows(3_000)
        p = _write_rows(tmp_path / "s.csv", "condition,observed,reference", rows)
        want = dataset.load_series(p)
        sources, loadtxt = [], np.loadtxt
        size, mtime = p.stat().st_size, p.stat().st_mtime_ns

        def spy(source, *args, **kwargs):
            if not isinstance(source, list) and not sources:
                if change == "removed":
                    p.unlink()
                else:
                    # The same size when rewritten: only the mtime tells.
                    edited = rows[:-1] + [[rows[-1][0], "5.900000", rows[-1][2]]]
                    _write_rows(p, "condition,observed,reference",
                                edited + rows[:1] if change == "grown" else edited)
                    os.utime(p, ns=(mtime + 10**9, mtime + 10**9))
            sources.append(type(source))
            return loadtxt(source, *args, **kwargs)

        with mock.patch.object(np, "loadtxt", spy):
            assert _same_series(dataset.load_series(p), want)
        assert sources == [str, list]
        if change == "rewritten":
            assert p.stat().st_size == size

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_once(self, tmp_path):
        # As from a shell's <(...): reading the path again finds the pipe empty.
        rows = _scale_rows(2_500)
        p = _write_rows(tmp_path / "s.csv", "condition,observed,reference", rows)
        assert dataset._PATH_FEED_CHARS < p.stat().st_size < 60_000  # fits a pipe
        r, w = os.pipe()
        try:
            os.write(w, p.read_bytes())
            os.close(w)
            columns = dataset.load_series(f"/dev/fd/{r}").columns
        finally:
            os.close(r)
        assert all(np.array_equal(a, b) for a, b in
                   zip(columns, dataset.load_series(p).columns))

    def test_compressed_suffix_is_read_as_text(self, tmp_path):
        # numpy's reader would take an .xz path for an xz stream.
        rows = _scale_rows(3_000)
        p = _write_rows(tmp_path / "s.csv.xz", "condition,observed,reference", rows)
        (outcome, fed), (plain, _) = (
            _branch_outcome(dataset.load_series, p, 0),
            _branch_outcome(dataset.load_series, p, 10**12))
        assert (outcome, fed) == (plain, False)
        assert len(outcome[1][0]) == 8 * 3_000


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["table1.csv", "table2.csv"])
    def test_series_fixture_byte_for_byte(self, name, tmp_path):
        src = dataset.bundled_path(name)
        series = dataset.load_series(src)
        out = tmp_path / name
        dataset.write_series_csv(series, out)
        assert out.read_bytes() == src.read_bytes()

    def test_differential_fixture_byte_for_byte(self, tmp_path):
        src = dataset.bundled_path("table3.csv")
        pairs = dataset.load_differential_pairs(src)
        rows = dataset.load_differential(src)
        out = tmp_path / "table3.csv"
        dataset.write_differential_csv(pairs, rows, out)
        assert out.read_bytes() == src.read_bytes()

    @pytest.mark.parametrize("pairs, readings", [
        (([10.0, 12.0], [18.0, 20.0]), ([18.1], [10.1])),
        (([10.0], [18.0]), ([18.1, 20.1], [10.1, 12.1])),
    ], ids=["fewer rows", "more rows"])
    def test_differential_writer_refuses_unequal_lengths(self, tmp_path, pairs, readings):
        out = tmp_path / "t3.csv"
        with pytest.raises(ValueError, match="^pairs and rows must have equal length$"):
            dataset.write_differential_csv(LegPairs(*pairs), DifferentialRows(*readings), out)
        assert not out.exists()

    def test_written_series_reloads_identically(self, tmp_path):
        series = MeasurementSeries.from_columns(
            [float(i) for i in range(4)], [5.0 + i * 0.25 for i in range(4)],
            condition_unit="n", value_unit="mm", label="loop"
        )
        out = tmp_path / "loop.csv"
        dataset.write_series_csv(series, out)
        back = dataset.load_series(out)
        assert np.array_equal(back.columns.condition, series.columns.condition)
        assert np.array_equal(back.columns.observed, series.columns.observed)


class TestDifferentialLoading:
    def test_bundled_campaign(self, table3_rows):
        assert len(table3_rows) == 15
        assert tuple(table3_rows.columns.s2.tolist()) == ref.TABLE3_S2
        assert tuple(table3_rows.columns.s1.tolist()) == ref.TABLE3_S1

    def test_nominal_pairs_are_leg_pair_columns(self):
        pairs = dataset.load_differential_pairs(dataset.bundled_path("table3.csv"))
        assert isinstance(pairs, dataset.LegPairs)
        assert pairs.columns.s_ab.tolist() == [ab for ab, _ in ref.TABLE3_PAIRS]
        assert pairs.columns.s_ac.tolist() == [ac for _, ac in ref.TABLE3_PAIRS]

    def test_bad_nominal_leg_names_row_and_column(self, tmp_path):
        p = tmp_path / "pairs.csv"
        p.write_text("s_ab,s_ac,s2,s1\n10,18,10.1,18.1\n10,x,10.1,18.1\n")
        with pytest.raises(MalformedRowError, match=r"row 2, column 's_ac'"):
            dataset.load_differential_pairs(p)

    @pytest.mark.parametrize("s_ab, s_ac, column, value", [
        ("nan", "inf", "s_ab", "nan"),
        ("10", "inf", "s_ac", "inf"),
        ("-1e999", "18", "s_ab", "-inf"),
    ])
    def test_nonfinite_nominal_leg_names_row_and_column(self, tmp_path, s_ab, s_ac,
                                                        column, value):
        p = tmp_path / "legs.csv"
        p.write_text(f"s_ab,s_ac,s2,s1\n10,18,10.1,18.1\n{s_ab},{s_ac},10.1,18.1\n")
        with pytest.raises(MalformedRowError) as excinfo:
            dataset.load_differential_pairs(p)
        assert str(excinfo.value) == f"row 2, column {column!r}: must be finite, got {value}"

    def test_reversed_nominal_pair_names_its_row(self, tmp_path):
        p = tmp_path / "reversed.csv"
        p.write_text("s_ab,s_ac,s2,s1\n10,18,10.1,18.1\n12,21,12.1,21.1\n"
                     "30,22,22.1,30.1\n14,23,14.1,23.1\n")
        with pytest.raises(MalformedRowError) as excinfo:
            dataset.load_differential_pairs(p)
        assert str(excinfo.value) == (
            "row 3, column 's_ac': require s_ac > s_ab, got s_ac=22.0 s_ab=30.0")

    def test_reversed_pair_before_a_bad_cell_is_reported_first(self, tmp_path):
        p = tmp_path / "reversed.csv"
        p.write_text("s_ab,s_ac,s2,s1\n18,10,10.1,18.1\n10,x,10.1,18.1\n")
        with pytest.raises(MalformedRowError, match=r"^row 1, column 's_ac': require"):
            dataset.load_differential_pairs(p)

    def test_leg_named_twice_is_refused(self, tmp_path):
        # Only the loader that reads s1 refuses the file.
        p = tmp_path / "twice.csv"
        p.write_text("s_ab,s_ac,s2,s1,s1\n10,18,10.0,18.0,18.5\n")
        with pytest.raises(DatasetError) as excinfo:
            dataset.load_differential(p)
        assert str(excinfo.value) == f"{p}: column 's1' is named more than once"
        pairs = dataset.load_differential_pairs(p)
        assert [c.tolist() for c in pairs.columns] == [[10.0], [18.0]]

    def test_differences(self, table3_rows):
        s1, s2 = table3_rows.columns
        diffs = (s1 - s2).tolist()
        assert diffs == [a - b for a, b in zip(s1.tolist(), s2.tolist())]
        assert min(diffs) > 7.99 and max(diffs) < 8.01

    def test_missing_reading_column(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("s_ab,s_ac\n10,18\n")
        with pytest.raises(DatasetError, match="missing column"):
            dataset.load_differential(p)

    @pytest.mark.parametrize(
        "s2, s1, column, detail",
        [
            ("nan", "18.0008", "s2", "must be finite, got nan"),
            ("9.9965", "inf", "s1", "must be finite, got inf"),
            ("-inf", "18.0008", "s2", "must be finite, got -inf"),
            ("18.0008", "9.9965", "s1", "require s1 > s2, got s1=9.9965 s2=18.0008"),
        ],
    )
    def test_bad_leg_names_row_and_column(self, tmp_path, s2, s1, column, detail):
        p = tmp_path / "legs.csv"
        p.write_text(f"s_ab,s_ac,s2,s1\n10,18,9.9965,18.0008\n10,18,{s2},{s1}\n")
        with pytest.raises(MalformedRowError) as excinfo:
            dataset.load_differential(p)
        assert str(excinfo.value) == f"row 2, column {column!r}: {detail}"

    def test_short_row_reported_as_malformed(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("s_ab,s_ac,s2,s1\n10,18,9.9965,18.0008\n30,38\n")
        with pytest.raises(MalformedRowError, match="row 2.*only 2 cells") as excinfo:
            dataset.load_differential(p)
        assert excinfo.value.row_index == 2
        assert excinfo.value.column == "s1"


class TestToErrorSamples:
    def test_explicit_reference_matches_published_errors(self, table2_series):
        samples = dataset.to_error_samples(table2_series, "explicit-reference")
        assert len(samples) == 21
        for error, (_, _, published_mm) in zip(samples.columns.error.tolist(), ref.TABLE2):
            rounded = math.copysign(math.floor(abs(error) * 10 + 0.5) / 10, error)
            assert rounded == published_mm
            assert abs(error - published_mm) < 1e-9

    def test_mean_reference_matches_published_ppm(self, table1_series):
        samples = dataset.to_error_samples(table1_series, "mean-reference")
        assert [round(e) for e in samples.columns.error.tolist()] == list(ref.TABLE1_R_PPM)

    def test_explicit_reference_missing_rows_reported(self):
        series = MeasurementSeries.from_columns(
            [1.0, 2.0, 3.0], [5.0] * 3, [5.001, math.nan, math.nan],
            condition_unit="m", value_unit="m")
        with pytest.raises(DatasetError, match=r"rows \[2, 3\]"):
            dataset.to_error_samples(series, "explicit-reference")

    @pytest.mark.parametrize("missing, named", [
        (12, "rows [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]"),
        (13, "rows [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, ...] (13 rows)"),
    ], ids=["twelve", "thirteen"])
    def test_explicit_reference_names_at_most_twelve_rows(self, missing, named):
        n = missing + 1
        series = MeasurementSeries.from_columns(
            range(n), [5.0] * n, [5.001] + [math.nan] * missing,
            condition_unit="m", value_unit="m")
        with pytest.raises(DatasetError) as excinfo:
            dataset.to_error_samples(series, "explicit-reference")
        assert str(excinfo.value).endswith(f"missing on {named}")

    @pytest.mark.parametrize("n, first, missing, named", [
        (1_000_012, 1_000_000, 13, "rows [%s, ...] (13 rows)" % ", ".join(
            map(str, range(1_000_000, 1_000_010)))),
        (1_000_000, 999_988, 12, "rows [%s]" % ", ".join(map(str, range(999_988, 10**6)))),
    ], ids=["seven-digit rows", "twelve six-digit rows"])
    def test_explicit_reference_error_line_fits_200_bytes(self, n, first, missing, named):
        # The CLI prints "error: <message>\n".
        reference = np.full(n, 5.001)
        reference[first - 1:first - 1 + missing] = math.nan
        series = MeasurementSeries.from_columns(
            np.arange(n, dtype=float), np.full(n, 5.0), reference,
            condition_unit="m", value_unit="m")
        with pytest.raises(DatasetError) as excinfo:
            dataset.to_error_samples(series, "explicit-reference")
        assert str(excinfo.value).endswith(f"missing on {named}")
        assert len(f"error: {excinfo.value}\n".encode()) <= 200

    def test_mean_reference_needs_a_nonzero_mean(self):
        series = MeasurementSeries.from_columns(
            [0.0, 1.0, 2.0], [-1.0, 1.0, 0.0], condition_unit="", value_unit="")
        with pytest.raises(DatasetError, match="needs a nonzero mean"):
            dataset.to_error_samples(series, "mean-reference")

    def test_mean_reference_uses_the_builtin_sum(self, table1_series):
        obs = table1_series.columns.observed
        mean = sum(obs.tolist()) / len(obs)
        samples = dataset.to_error_samples(table1_series, "mean-reference")
        assert samples.columns.error.tolist() == [
            (o - mean) / mean * 1e6 for o in obs.tolist()]

    def test_mean_reference_of_an_empty_series(self):
        series = MeasurementSeries.from_columns([], [], condition_unit="", value_unit="")
        with pytest.raises(EmptyInputError, match="^cannot take the mean of an empty series$"):
            dataset.to_error_samples(series, "mean-reference")

    def test_unknown_rule(self, table1_series):
        with pytest.raises(DatasetError, match="unknown reference rule"):
            dataset.to_error_samples(table1_series, "median-reference")

    def test_mean_reference_sign_convention(self):
        series = MeasurementSeries.from_columns(
            [0.0, 1.0], [9.0, 11.0], condition_unit="", value_unit="")
        lo, hi = dataset.to_error_samples(series, "mean-reference").columns.error
        assert lo == pytest.approx(-1e5)
        assert hi == pytest.approx(1e5)

    def test_explicit_reference_sign_convention(self):
        # reference longer than the reading means a positive error
        samples = dataset.to_error_samples(_one_row(6.0, 6.0, 6.0005), "explicit-reference")
        (error,) = samples.columns.error
        assert error == pytest.approx(0.5)

    @pytest.mark.parametrize("unit", ["MHz", "mm"])
    def test_explicit_reference_refuses_values_not_in_metres(self, unit):
        series = MeasurementSeries.from_columns(
            [1.0], [6.0], [6.0005], condition_unit="degC", value_unit=unit)
        with pytest.raises(DatasetError) as excinfo:
            dataset.to_error_samples(series, "explicit-reference")
        assert str(excinfo.value) == (
            f"explicit-reference needs a series in metres (m), got values in {unit!r}")

    def test_explicit_reference_accepts_an_undeclared_unit(self):
        series = MeasurementSeries.from_columns(
            [1.0], [6.0], [6.0005], condition_unit="", value_unit="")
        (error,) = dataset.to_error_samples(series, "explicit-reference").columns.error
        assert error == pytest.approx(0.5)


# Line breaks str.splitlines knows, lines that are not data, and cells:
# GOOD[j] passes every loader's checks in column j of every header.
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"]
NOT_DATA = ["", " ", "\t", " \t ", "\x0c", "#", "# a remark", "#1,2,3,4",
            "# units: mm", "# units: condition=s observed=V"]
HEADERS = ["condition,observed", "condition,observed,reference", "s_ab,s_ac,s2,s1",
           'note,"condition",observed', " condition , observed ,reference",
           "condition,observed#"]
GOOD = ["1", "5", "5.001", "7", "8"]
ODD = ["", " ", "nan", "inf", "x", "1_0", "1#2", '"6"', '"7,8"', "4.9", "-0"]
LOADERS = [dataset._read_csv, dataset.load_series, dataset.load_differential,
           dataset.load_differential_pairs]


@pytest.mark.parametrize("br", BREAKS, ids=repr)
def test_only_a_hash_among_the_data_lines_filters_them(tmp_path, br):
    # The "#" search starts at the first data line, found from the
    # widths of the line breaks before it: the head's "#" lines leave
    # the block clean.
    path = tmp_path / "f.csv"
    head = ["# units: m", "", "condition,observed"]
    path.write_text(br.join([*head, "5,5", "", "6,6"]) + br, encoding="utf-8", newline="")
    assert dataset._read_csv(path)[2].clean
    twin = _outcome(dataset.load_series, path)
    path.write_text(br.join([*head, "5,5", "# note", "", "6,6"]) + br, encoding="utf-8",
                    newline="")
    assert not dataset._read_csv(path)[2].clean
    assert _outcome(dataset.load_series, path) == twin
    assert len(twin[1][0]) == 2 * 8


@st.composite
def csv_files(draw):
    """The bytes of a CSV file: blank, whitespace-only and comment lines
    before, among and after the data, mixed line breaks, an optional
    byte-order mark, and now and then a bad, blank, quoted or short cell,
    a line short of its last one or two cells, or one with an extra cell."""
    header = draw(st.sampled_from(HEADERS))
    lines = draw(st.lists(st.sampled_from(NOT_DATA), max_size=3))
    if draw(st.integers(0, 9)):
        lines.append(header)
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(NOT_DATA)))
            continue
        n = header.count(",") + draw(st.sampled_from([1, 1, 1, 1, 0, -1, 2]))
        cells = []
        for good in GOOD[:n]:
            spellings = [good, f" {good} ", f"\t{good}", good + "0"]
            cells.append(draw(st.sampled_from(ODD if draw(st.integers(0, 11)) == 0
                                              else spellings)))
        lines.append(",".join(cells))
    lines += draw(st.lists(st.sampled_from(NOT_DATA), max_size=2))
    breaks = [draw(st.sampled_from(BREAKS)) for _ in lines]
    if lines and draw(st.booleans()):
        breaks[-1] = ""
    text = "".join(map(str.__add__, lines, breaks))
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")


@settings(max_examples=400)
@given(csv_files())
def test_loaders_match_the_line_filtering_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_bytes(data)
    assert ([_outcome(load, path) for load in LOADERS]
            == [_reference_outcome(load, path) for load in LOADERS])


@settings(max_examples=400)
@given(csv_files())
def test_path_feed_matches_the_line_filtering_reader(tmp_path_factory, data):
    # Every file the path feed may take is read by path, however small.
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_bytes(data)
    with mock.patch.object(dataset, "_PATH_FEED_CHARS", 0):
        got = [_outcome(load, path) for load in LOADERS]
    assert got == [_reference_outcome(load, path) for load in LOADERS]


def test_cycle_phase_where_2_pi_s_overflows():
    # Where 2*pi*s is finite the phase is (2*pi*s)/wavelength as before;
    # past it, 2*pi*(s/wavelength).
    s = np.array([1.0, 2.8e307, 3e307, 1.7e308])
    assert dataset._cycle_phase(s, 1e300).tolist() == [
        2 * math.pi * 1.0 / 1e300, 2 * math.pi * 2.8e307 / 1e300,
        2 * math.pi * (3e307 / 1e300), 2 * math.pi * (1.7e308 / 1e300)]
