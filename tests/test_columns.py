"""Column loaders against a row-at-a-time reference.

The reference functions below read a CSV one row at a time, in the
order a row's cells and checks come: parse each cell left to right,
then the row checks.  The loaders parse and check whole columns, and
must report the same first error (row, column and message) and, on
good files, the same values and fits bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errorkit import dataset, regression
from errorkit.dataset import (
    DifferentialRow,
    DifferentialRows,
    ErrorSamples,
    MalformedRowError,
    MeasurementRow,
    MeasurementSeries,
)
from errorkit.linsolve import SingularSystemError

# Cell spellings, each read as Python's float() reads it.
FORMATS = (repr, "{:.4f}".format, "{:g}".format, lambda v: f" {v!r} ")


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
        try:
            MeasurementRow(cond, obs, ref)
        except ValueError as exc:
            column = ("condition" if not math.isfinite(cond)
                      else "observed" if not math.isfinite(obs) else "reference")
            return (i, column, str(exc))
    return None


def reference_series_rows(rows, has_ref):
    return tuple(
        MeasurementRow(
            float(cells[0]),
            float(cells[1]),
            float(cells[2]) if has_ref and len(cells) > 2 and cells[2].strip() else None,
        )
        for cells in rows
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
    "condition": ["abc", "", "1.2.3", "nan", "inf", "-inf", "1e999"],
    "observed": ["x", " ", "nan", "-inf", "1e999"],
    "reference": ["ref", "nan", "inf", "far"],
}


@st.composite
def series_files(draw, faulty):
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    has_ref = draw(st.booleans())
    fmt = [draw(st.sampled_from(FORMATS)) for _ in range(3)]
    rng = np.random.default_rng(seed)
    cond = rng.uniform(-50.0, 150.0, n).tolist()
    obs = rng.uniform(1.0, 1000.0, n)
    ref = (obs * (1.0 + rng.uniform(-0.005, 0.005, n))).tolist()
    obs = obs.tolist()
    rows = []
    for i in range(n):
        cells = [fmt[0](cond[i]), fmt[1](obs[i])]
        if has_ref:
            kind = rng.integers(0, 4)  # reference, blank, spaces, short row
            cells.append([fmt[2](ref[i]), "", "  ", None][kind])
            if cells[-1] is None:
                cells.pop()
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
    assert series.rows == reference_series_rows(rows, has_ref)
    assert len(series) == len(rows)

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


@settings(max_examples=80)
@given(series_files(faulty=True))
def test_bad_series_report_the_first_bad_row(tmp_path_factory, case):
    has_ref, header, rows = case
    path = tmp_path_factory.mktemp("series") / "s.csv"
    _write(path, header, rows)
    want = reference_series_error(rows, has_ref)
    if want is None:
        assert dataset.load_series(path).rows == reference_series_rows(rows, has_ref)
        return
    with pytest.raises(MalformedRowError) as excinfo:
        dataset.load_series(path)
    err = excinfo.value
    assert (err.row_index, err.column, err.detail) == want


LEG_FAULTS = ["abc", "", "nan", "inf", "-inf", "swap", "equal"]


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
    if faulty:
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, n - 1))
            pos = draw(st.sampled_from([2, 3]))
            fault = draw(st.sampled_from(LEG_FAULTS))
            if len(rows[i]) < 4:
                continue  # already cut short
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
    assert list(loaded) == [DifferentialRow(float(r[3]), float(r[2])) for r in rows]
    assert dataset.differences(loaded) == dataset.differences(list(loaded))
    if len(loaded) >= 3:
        assert _fit_outcome(regression.fit_cycle_differential, loaded, 20.0) == (
            _fit_outcome(regression.fit_cycle_differential, list(loaded), 20.0))


@settings(max_examples=80)
@given(differential_files(faulty=True))
def test_bad_differential_files_report_the_first_bad_row(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("diff") / "d.csv"
    _write(path, "s_ab,s_ac,s2,s1", rows)
    want = reference_differential_error(rows)
    if want is None:
        assert len(dataset.load_differential(path)) == len(rows)
        return
    with pytest.raises(MalformedRowError) as excinfo:
        dataset.load_differential(path)
    err = excinfo.value
    assert (err.row_index, err.column, err.detail) == want


class TestColumnarTypes:
    def test_series_columns_are_read_only_float64(self, table2_series):
        cond, obs, ref = table2_series.columns
        for column in (cond, obs, ref):
            assert column.dtype == np.float64
            assert not column.flags.writeable
        assert table2_series.conditions == tuple(cond.tolist())
        assert isinstance(table2_series.observed[0], float)

    def test_rows_are_built_once(self, table1_series):
        assert table1_series.rows is table1_series.rows

    def test_rows_constructor_keeps_its_rows(self):
        rows = (MeasurementRow(1.0, 5.0, 5.001), MeasurementRow(2.0, 5.0))
        series = MeasurementSeries(rows=rows, condition_unit="m", value_unit="m")
        assert series.rows == rows
        assert np.isnan(series.columns.reference[1])

    def test_from_columns_equals_rows_constructor(self):
        rows = (MeasurementRow(1.0, 5.0, 5.001), MeasurementRow(2.0, 5.0))
        by_rows = MeasurementSeries(rows, "m", "m")
        by_columns = MeasurementSeries.from_columns(
            [1.0, 2.0], [5.0, 5.0], [5.001, math.nan], condition_unit="m", value_unit="m")
        assert by_rows == by_columns
        assert by_columns.rows == rows

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

    def test_equal_series_hash_alike(self):
        by_rows = MeasurementSeries(
            (MeasurementRow(-0.0, 5.0), MeasurementRow(2.0, 5.0, 5.001)), "m", "m")
        by_columns = MeasurementSeries.from_columns(
            [0.0, 2.0], [5.0, 5.0], [math.nan, 5.001], condition_unit="m", value_unit="m")
        other = MeasurementSeries.from_columns(
            [0.0, 2.0], [5.0, 5.5], condition_unit="m", value_unit="m")
        assert by_rows == by_columns and hash(by_rows) == hash(by_columns)
        assert len({by_rows, by_columns, other}) == 2

    def test_row_errors_are_value_errors(self):
        with pytest.raises(ValueError, match="observed must be finite"):
            MeasurementSeries.from_columns([1.0], [math.inf], condition_unit="",
                                           value_unit="")
        with pytest.raises(ValueError, match="require s1 > s2"):
            DifferentialRows([10.0], [18.0])

    def test_samples_build_items_on_access(self, table1_series):
        samples = dataset.to_error_samples(table1_series, "mean-reference")
        first, *_, last = samples
        assert samples[0] == first and samples[-1] == last
        assert samples[1:3] == list(samples)[1:3]
        assert samples == list(samples)
        with pytest.raises(IndexError):
            samples[len(samples)]

    def test_error_samples_reject_nonfinite_errors(self):
        with pytest.raises(ValueError, match="error must be finite, got inf"):
            ErrorSamples([0.0, 1.0], [1.0, math.inf])

    def test_differential_rows_name_row_and_column(self):
        with pytest.raises(MalformedRowError) as excinfo:
            DifferentialRows([18.0, 18.0], [10.0, 18.0])
        assert (excinfo.value.row_index, excinfo.value.column) == (2, "s1")
        assert "require s1 > s2" in str(excinfo.value)

    def test_fits_accept_columns_and_items_alike(self, table3_rows):
        items = list(table3_rows)
        assert _fit_outcome(regression.fit_cycle_differential, table3_rows, 20.0) == (
            _fit_outcome(regression.fit_cycle_differential, items, 20.0))
