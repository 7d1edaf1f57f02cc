"""Column loaders against a row-at-a-time reference.

The reference functions below read a CSV one row at a time, in the
order a row's cells and checks come: split the line with ``csv``, parse
each cell left to right with ``float()``, then the row checks.  The
loaders parse whole columns, with numpy's C reader when it takes the
file, and must report the same first error (row, column and message)
and, on good files, the same values and fits bit for bit.  The cell
spellings include ones only ``float()`` reads (``1_0``, full-width
digits, quoted cells) and ones neither reads (hex), so both readers
are exercised.
"""

import csv
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errorkit import dataset, regression
from errorkit.dataset import (
    DifferentialRow,
    DifferentialRows,
    ErrorSamples,
    LegPair,
    LegPairs,
    MalformedRowError,
    MeasurementSeries,
)
from errorkit.linsolve import SingularSystemError

FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")

# Cell spellings, each read as Python's float() reads it: first those
# numpy's C reader reads too, then those only float() reads.
PLAIN_FORMATS = (
    repr,
    "{:.4f}".format,
    "{:g}".format,
    lambda v: f" {v!r} ",
    lambda v: f"\t{v!r} \t",
)
FORMATS = PLAIN_FORMATS + (
    lambda v: re.sub(r"(\d)(?=\d)", r"\1_", repr(v), count=1),
    lambda v: f'"{v!r}"',
    lambda v: repr(v).translate(FULL_WIDTH),
)

# What sends a file to the cell reader: an underscore or a full-width
# digit, which only float() reads, and a quote.
FLOAT_ONLY = frozenset('_"' + "０１２３４５６７８９")

# Cells appended after a row's last column; the loaders never read them.
EXTRA_CELLS = ("x", "7", "", '"q,r"', "0x10")


def csv_cells(rows):
    """Each written row as ``csv`` splits its line."""
    return [next(csv.reader([",".join(r)])) for r in rows]


def same_bits(column, values):
    return column.tobytes() == np.array(values, dtype=np.float64).tobytes()


def same_columns(series, columns):
    return all(same_bits(got, want) for got, want in zip(series.columns, columns))


def _parse(cells, pos, column):
    if pos >= len(cells):
        return None, (column, f"row has only {len(cells)} cells")
    try:
        return float(cells[pos]), None
    except ValueError:
        return None, (column, f"not a number: {cells[pos]!r}")


def reference_series_error(rows, has_ref):
    """First (row, column, message) a row-at-a-time reader rejects."""
    for i, cells in enumerate(rows, start=1):
        cond, err = _parse(cells, 0, "condition")
        if err:
            return (i, *err)
        obs, err = _parse(cells, 1, "observed")
        if err:
            return (i, *err)
        ref = None
        if has_ref and len(cells) > 2 and cells[2].strip():
            ref, err = _parse(cells, 2, "reference")
            if err:
                return (i, *err)
            if math.isnan(ref):
                return (i, "reference", "must be finite, got nan")
        for name, value in (("condition", cond), ("observed", obs)):
            if not math.isfinite(value):
                return (i, name, f"{name} must be finite, got {value!r}")
        if ref is not None and abs(obs - ref) >= 0.01 * abs(obs):
            return (i, "reference",
                    "reference %r is implausibly far from observed %r" % (ref, obs))
    return None


def reference_series_columns(rows, has_ref):
    """The condition, observed and reference columns, read row by row
    (NaN: no reference)."""
    return (
        [float(cells[0]) for cells in rows],
        [float(cells[1]) for cells in rows],
        [float(cells[2]) if has_ref and len(cells) > 2 and cells[2].strip() else math.nan
         for cells in rows],
    )


def reference_differential_error(rows):
    for i, cells in enumerate(rows, start=1):
        s1, err = _parse(cells, 3, "s1")
        if err:
            return (i, *err)
        s2, err = _parse(cells, 2, "s2")
        if err:
            return (i, *err)
        if not math.isfinite(s1):
            return (i, "s1", f"must be finite, got {s1!r}")
        if not math.isfinite(s2):
            return (i, "s2", f"must be finite, got {s2!r}")
        if not s1 > s2:
            return (i, "s1", f"require s1 > s2, got s1={s1} s2={s2}")
    return None


SERIES_FAULTS = {
    "condition": ["abc", "", "1.2.3", "nan", "inf", "-inf", "1e999", "0x10",
                  "Infinity", "-nan", "1__0"],
    "observed": ["x", " ", "nan", "-inf", "1e999", "-Infinity", "0x1p3", "+nan"],
    "reference": ["ref", "nan", "inf", "far", "-nan", "Infinity", "0x10"],
}


@st.composite
def series_files(draw, faulty):
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    has_ref = draw(st.booleans())
    gaps = draw(st.booleans())  # whether a reference cell may be left out
    formats = draw(st.sampled_from([PLAIN_FORMATS, FORMATS]))
    fmt = [draw(st.sampled_from(formats)) for _ in range(3)]
    rng = np.random.default_rng(seed)
    cond = rng.uniform(-50.0, 150.0, n).tolist()
    obs = rng.uniform(1.0, 1000.0, n)
    ref = (obs * (1.0 + rng.uniform(-0.005, 0.005, n))).tolist()
    obs = obs.tolist()
    extra = draw(st.booleans())
    rows = []
    for i in range(n):
        cells = [fmt[0](cond[i]), fmt[1](obs[i])]
        if has_ref:
            kind = rng.integers(0, 4) if gaps else 0  # reference, blank, spaces, short
            cells.append([fmt[2](ref[i]), "", "  ", None][kind])
            if cells[-1] is None:
                cells.pop()
        if extra and len(cells) == 2 + has_ref and rng.integers(0, 4) == 0:
            cells.append(EXTRA_CELLS[rng.integers(0, len(EXTRA_CELLS))])
        rows.append(cells)
    if faulty:
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, n - 1))
            column = draw(st.sampled_from(sorted(SERIES_FAULTS)))
            cell = draw(st.sampled_from(SERIES_FAULTS[column]))
            pos = ("condition", "observed", "reference").index(column)
            if draw(st.integers(0, 9)) == 0:
                del rows[i][max(pos, 1):]  # a short row
                continue
            if column == "reference":
                if not has_ref:
                    continue
                if cell == "far":
                    cell = repr(obs[i] * 1.5)
            while len(rows[i]) <= pos:
                rows[i].append("")
            rows[i][pos] = cell
    header = "condition,observed,reference" if has_ref else "condition,observed"
    # A row left blank would be a blank line, which readers skip: keep a comma.
    return has_ref, header, [r if ",".join(r).strip() else r + [""] for r in rows]


def _write(path, header, rows):
    path.write_text(
        "# units: m\n" + header + "\n" + "".join(",".join(r) + "\n" for r in rows),
        encoding="utf-8",
    )


def _fit_outcome(fit, *args, **kwargs):
    """A fit's output as exactly comparable values, or its error type."""
    try:
        model = fit(*args, **kwargs)
    except SingularSystemError:
        return "singular"
    report = regression.to_report(model)
    return (
        report["coefficients"],
        report["residual_std"],
        model.normal.matrix.tobytes(),
        model.normal.rhs.tobytes(),
    )


@settings(max_examples=60)
@given(series_files(faulty=False))
def test_good_series_match_rows_and_fits(tmp_path_factory, case):
    has_ref, header, rows = case
    path = tmp_path_factory.mktemp("series") / "s.csv"
    _write(path, header, rows)
    series = dataset.load_series(path)
    assert len(series) == len(rows)
    assert same_columns(series, reference_series_columns(csv_cells(rows), has_ref))
    if not any(FLOAT_ONLY.intersection(cell) for row in rows for cell in row) and (
            not has_ref or not np.isnan(series.columns.reference).any()):
        # numpy's reader takes every such file without a reference column,
        # or with no gap in it: no cell is read by float().
        with mock.patch.object(dataset, "_read_column", None):
            assert same_columns(dataset.load_series(path), series.columns)

    samples = dataset.to_error_samples(series, "mean-reference")
    assert isinstance(samples, ErrorSamples)
    if len(samples) >= 5:
        assert _fit_outcome(regression.fit_polynomial, samples, 3) == _fit_outcome(
            regression.fit_polynomial, list(samples), 3)
    if has_ref and not np.isnan(series.columns.reference).any():
        samples = dataset.to_error_samples(series, "explicit-reference")
        if len(samples) >= 3:
            assert _fit_outcome(regression.fit_cycle_direct, samples, 20.0) == (
                _fit_outcome(regression.fit_cycle_direct, list(samples), 20.0))


@settings(max_examples=150)
@given(series_files(faulty=True))
def test_bad_series_report_the_first_bad_row(tmp_path_factory, case):
    has_ref, header, rows = case
    path = tmp_path_factory.mktemp("series") / "s.csv"
    _write(path, header, rows)
    cells = csv_cells(rows)
    want = reference_series_error(cells, has_ref)
    if want is None:
        assert same_columns(dataset.load_series(path),
                            reference_series_columns(cells, has_ref))
        return
    with pytest.raises(MalformedRowError) as excinfo:
        dataset.load_series(path)
    err = excinfo.value
    assert (err.row_index, err.column, err.detail) == want


LEG_FAULTS = ["abc", "", "nan", "inf", "-inf", "swap", "equal", "0x10", "Infinity",
              "-nan", "1__0"]


@st.composite
def differential_files(draw, faulty):
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fmt = draw(st.sampled_from(FORMATS))
    s_ab = rng.uniform(1.0, 100.0, n)
    s2 = s_ab + rng.normal(0.0, 0.005, n)
    s1 = s_ab + 8.0 + rng.normal(0.0, 0.005, n)
    rows = [["%g" % a, "%g" % (a + 8.0), fmt(b), fmt(c)]
            for a, b, c in zip(s_ab.tolist(), s2.tolist(), s1.tolist())]
    if draw(st.booleans()):
        for i in np.flatnonzero(rng.integers(0, 4, n) == 0).tolist():
            rows[i].append(EXTRA_CELLS[rng.integers(0, len(EXTRA_CELLS))])
    if faulty:
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, n - 1))
            pos = draw(st.sampled_from([2, 3]))
            fault = draw(st.sampled_from(LEG_FAULTS))
            if len(rows[i]) != 4:
                continue  # already cut short, or has an extra cell
            if draw(st.integers(0, 9)) == 0:
                del rows[i][pos:]
            elif fault == "swap":
                rows[i][2], rows[i][3] = rows[i][3], rows[i][2]
            elif fault == "equal":
                rows[i][3] = rows[i][2]
            else:
                rows[i][pos] = fault
    return rows


@settings(max_examples=60)
@given(differential_files(faulty=False))
def test_good_differential_files_match_rows_and_fit(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("diff") / "d.csv"
    _write(path, "s_ab,s_ac,s2,s1", rows)
    loaded = dataset.load_differential(path)
    assert isinstance(loaded, DifferentialRows)
    cells = csv_cells(rows)
    assert list(loaded) == [DifferentialRow(float(r[3]), float(r[2])) for r in cells]
    assert same_bits(loaded.columns.s1, [float(r[3]) for r in cells])
    assert same_bits(loaded.columns.s2, [float(r[2]) for r in cells])
    assert (loaded.columns.s1 - loaded.columns.s2).tolist() == [
        r.s1 - r.s2 for r in loaded]
    if len(loaded) >= 3:
        assert _fit_outcome(regression.fit_cycle_differential, loaded, 20.0) == (
            _fit_outcome(regression.fit_cycle_differential, list(loaded), 20.0))


@settings(max_examples=80)
@given(differential_files(faulty=True))
def test_bad_differential_files_report_the_first_bad_row(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("diff") / "d.csv"
    _write(path, "s_ab,s_ac,s2,s1", rows)
    want = reference_differential_error(csv_cells(rows))
    if want is None:
        assert len(dataset.load_differential(path)) == len(rows)
        return
    with pytest.raises(MalformedRowError) as excinfo:
        dataset.load_differential(path)
    err = excinfo.value
    assert (err.row_index, err.column, err.detail) == want


# Characters of number spellings, and of near misses, with no comma or
# line break: a token is one cell.
TOKEN_CHARS = "0123456789.eE+-_ \t\xa0xXpPiInNfFaAtTyY\"'#;０１٣\x00"
TOKENS = st.one_of(
    st.text(st.sampled_from(TOKEN_CHARS), max_size=12),
    st.floats().map(repr),
    st.floats().map(float.hex),
    st.floats(allow_nan=False).map("{:.25e}".format),
    st.floats(allow_nan=False).map("{:.17g}".format),
    st.sampled_from(["inf", "-inf", "Infinity", "-INFINITY", "nan", "-nan", "+NaN",
                     "1_0", "0x10", '"1.5"', "１", " 1 ", "\t-2.5\t", "1e309",
                     "4.9e-324", "2.4e-324", "1e-400", "-0", ".5", "5.", "."]),
)


@settings(max_examples=1500)
@given(TOKENS)
def test_c_reader_accepts_only_what_float_accepts(token):
    """The loaders trust numpy's C reader only where it agrees with
    ``float()``: every cell it parses, ``float()`` parses to the same bits."""
    try:
        block = np.loadtxt([token + ",0"], delimiter=",", comments=None,
                           quotechar=None, ndmin=2, usecols=[0])
    except ValueError:
        return
    assert block.shape == (1, 1)
    assert block[0, 0].tobytes() == np.float64(float(token)).tobytes()


class TestColumnarTypes:
    def test_series_columns_are_read_only_float64(self, table2_series):
        cond, obs, ref = table2_series.columns
        for column in (cond, obs, ref):
            assert column.dtype == np.float64
            assert not column.flags.writeable
        assert isinstance(table2_series.observed[0], float)

    def test_series_views_are_the_columns_themselves(self, table2_series):
        # Read-only views of the series' own columns, not copies.
        assert table2_series.observed is table2_series.columns.observed
        with pytest.raises(ValueError, match="read-only"):
            table2_series.observed[0] = 0.0

    def test_from_columns_names_the_first_bad_row(self):
        with pytest.raises(MalformedRowError) as excinfo:
            MeasurementSeries.from_columns(
                [1.0, 2.0, 3.0], [5.0, 5.0, math.inf], [5.0, 9.0, math.nan],
                condition_unit="", value_unit="")
        err = excinfo.value
        assert (err.row_index, err.column) == (2, "reference")
        assert "implausibly far" in err.detail

    def test_from_columns_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="differ in length"):
            MeasurementSeries.from_columns([1.0], [1.0, 2.0], condition_unit="",
                                           value_unit="")

    def test_series_is_immutable(self, table1_series):
        with pytest.raises(AttributeError):
            table1_series.label = "other"

    def test_row_errors_are_value_errors(self):
        with pytest.raises(ValueError, match="observed must be finite"):
            MeasurementSeries.from_columns([1.0], [math.inf], condition_unit="",
                                           value_unit="")
        with pytest.raises(ValueError, match="require s1 > s2"):
            DifferentialRows([10.0], [18.0])

    def test_samples_build_items_on_access(self, table1_series):
        samples = dataset.to_error_samples(table1_series, "mean-reference")
        condition, error = samples.columns
        assert list(samples) == list(zip(condition.tolist(), error.tolist()))

    def test_error_samples_reject_nonfinite_errors(self):
        with pytest.raises(ValueError, match="error must be finite, got inf"):
            ErrorSamples([0.0, 1.0], [1.0, math.inf])

    def test_error_samples_name_the_nonfinite_row(self):
        with pytest.raises(ValueError, match=r"^row 2: error must be finite"):
            ErrorSamples([0.0, 1.0, 2.0], [1.0, math.nan, math.inf])

    def test_differential_rows_name_row_and_column(self):
        with pytest.raises(MalformedRowError) as excinfo:
            DifferentialRows([18.0, 18.0], [10.0, 18.0])
        assert (excinfo.value.row_index, excinfo.value.column) == (2, "s1")
        assert "require s1 > s2" in str(excinfo.value)

    def test_leg_pairs_are_float_columns(self):
        pairs = LegPairs([10, 10.5], [18.0, 18.25])
        assert list(pairs) == [LegPair(10.0, 18.0), LegPair(10.5, 18.25)]
        assert [type(v) for pair in pairs for v in pair] == [float] * 4
        assert pairs.columns.s_ab.tolist() == [10.0, 10.5]
        assert not pairs.columns.s_ac.flags.writeable
        with pytest.raises(ValueError, match="differ in length"):
            LegPairs([10.0], [18.0, 19.0])

    def test_record_api_the_benchmark_reads(self, table1_series, table3_rows):
        # perfbench/inproc.py still fits a list of ErrorSample, iterates
        # samples and readings, and reads series.observed; ROADMAP item 3a
        # ports it to columns, and then these go.  Nothing else is kept.
        samples = dataset.to_error_samples(table1_series, "mean-reference")
        items = [dataset.ErrorSample(s.condition, s.error) for s in samples]
        assert all(type(s) is dataset.ErrorSample for s in samples)
        assert all(type(r) is DifferentialRow for r in table3_rows)
        assert regression.fit_polynomial(items, 3).coeffs == (
            regression.fit_polynomial(samples, 3).coeffs)
        assert table1_series.observed is table1_series.columns.observed
        for records in (samples, table3_rows, LegPairs([10.0], [18.0])):
            with pytest.raises(TypeError):
                records[0]
            # Identity, not the value of the items.
            assert hash(records) == object.__hash__(records)
            assert records != list(records) and records == records
        assert LegPairs([10.0], [18.0]) != LegPairs([10.0], [18.0])
        assert not hasattr(table1_series, "conditions")

    def test_fits_accept_columns_and_items_alike(self, table3_rows):
        items = list(table3_rows)
        assert _fit_outcome(regression.fit_cycle_differential, table3_rows, 20.0) == (
            _fit_outcome(regression.fit_cycle_differential, items, 20.0))
