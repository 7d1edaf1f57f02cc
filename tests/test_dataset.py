import math

import pytest

from errorkit import dataset
from errorkit.dataset import (
    ColumnSchema,
    DatasetError,
    DifferentialRow,
    EmptyInputError,
    ErrorSample,
    MalformedRowError,
    MeasurementRow,
    MeasurementSeries,
)

import reference_values as ref


class TestMeasurementRow:
    def test_plain_row(self):
        row = MeasurementRow(condition=-40.0, observed=4.9999)
        assert row.reference is None

    def test_reference_within_bound(self):
        row = MeasurementRow(condition=6.0232, observed=6.0232, reference=6.0237)
        assert row.reference == 6.0237

    def test_reference_outside_bound_rejected(self):
        with pytest.raises(ValueError, match="implausibly far"):
            MeasurementRow(condition=1.0, observed=5.0, reference=5.2)

    def test_custom_bound_loosens_the_check(self):
        row = MeasurementRow(
            condition=1.0, observed=5.0, reference=5.2, sanity_bound=0.1
        )
        assert row.reference == 5.2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_observed_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MeasurementRow(condition=0.0, observed=bad)

    def test_nonfinite_condition_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MeasurementRow(condition=math.nan, observed=1.0)

    def test_nan_reference_rejected(self):
        # a series stores a missing reference as NaN, so NaN cannot be one
        with pytest.raises(ValueError, match="reference must be finite, got nan"):
            MeasurementRow(condition=1.0, observed=5.0, reference=math.nan)


class TestDifferentialRow:
    def test_difference(self):
        row = DifferentialRow(s1=18.0008, s2=9.9965)
        assert row.difference == 18.0008 - 9.9965

    def test_leg_order_enforced(self):
        with pytest.raises(ValueError, match="s1 > s2"):
            DifferentialRow(s1=5.0, s2=5.0)


class TestErrorSample:
    def test_nonfinite_error_rejected(self):
        with pytest.raises(ValueError):
            ErrorSample(condition=0.0, error=math.inf)


class TestLoadSeries:
    def test_bundled_oscillator_table(self, table1_series):
        assert len(table1_series) == 15
        assert table1_series.condition_unit == "degC"
        assert table1_series.value_unit == "MHz"
        assert table1_series.label == "table1"
        assert table1_series.conditions == ref.TABLE1_TEMPS
        assert table1_series.observed == ref.TABLE1_FREQS

    def test_bundled_calibration_table(self, table2_series):
        assert len(table2_series) == 21
        assert table2_series.value_unit == "m"
        for row, (standard, measured, _) in zip(table2_series.rows, ref.TABLE2):
            assert row.observed == measured
            assert row.reference == standard
            assert row.condition == measured

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
        assert series.rows[0].reference == 5.0001
        assert series.rows[1].reference is None

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
        assert series.rows[1].reference is None
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

    def test_schema_remaps_columns_and_units(self, tmp_path):
        p = tmp_path / "foreign.csv"
        p.write_text("temp,freq\n-40,4.999900\n25,5.000010\n")
        schema = ColumnSchema(
            condition="temp",
            observed="freq",
            condition_unit="degC",
            value_unit="MHz",
        )
        series = dataset.load_series(p, schema)
        assert series.condition_unit == "degC"
        assert series.value_unit == "MHz"
        assert series.observed == (4.9999, 5.00001)

    def test_schema_units_override_file_units(self, tmp_path):
        p = tmp_path / "tagged.csv"
        p.write_text("# units: condition=s observed=V\ncondition,observed\n1,2\n")
        series = dataset.load_series(p, ColumnSchema(value_unit="mV"))
        assert series.condition_unit == "s"
        assert series.value_unit == "mV"

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

    def test_written_series_reloads_identically(self, tmp_path):
        rows = tuple(
            MeasurementRow(condition=float(i), observed=5.0 + i * 0.25)
            for i in range(4)
        )
        series = MeasurementSeries(
            rows=rows, condition_unit="n", value_unit="mm", label="loop"
        )
        out = tmp_path / "loop.csv"
        dataset.write_series_csv(series, out)
        back = dataset.load_series(out)
        assert back.conditions == series.conditions
        assert back.observed == series.observed


class TestDifferentialLoading:
    def test_bundled_campaign(self, table3_rows):
        assert len(table3_rows) == 15
        assert tuple(r.s2 for r in table3_rows) == ref.TABLE3_S2
        assert tuple(r.s1 for r in table3_rows) == ref.TABLE3_S1

    def test_nominal_pairs(self):
        pairs = dataset.load_differential_pairs(dataset.bundled_path("table3.csv"))
        assert tuple(pairs) == ref.TABLE3_PAIRS

    def test_differences(self, table3_rows):
        diffs = dataset.differences(table3_rows)
        assert diffs == [r.s1 - r.s2 for r in table3_rows]
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
        for sample, (_, _, published_mm) in zip(samples, ref.TABLE2):
            rounded = math.copysign(
                math.floor(abs(sample.error) * 10 + 0.5) / 10, sample.error
            )
            assert rounded == published_mm
            assert abs(sample.error - published_mm) < 1e-9

    def test_mean_reference_matches_published_ppm(self, table1_series):
        samples = dataset.to_error_samples(table1_series, "mean-reference")
        assert [round(s.error) for s in samples] == list(ref.TABLE1_R_PPM)

    def test_explicit_reference_missing_rows_reported(self):
        rows = (
            MeasurementRow(condition=1.0, observed=5.0, reference=5.001),
            MeasurementRow(condition=2.0, observed=5.0),
            MeasurementRow(condition=3.0, observed=5.0),
        )
        series = MeasurementSeries(rows=rows, condition_unit="m", value_unit="m")
        with pytest.raises(DatasetError, match=r"rows \[2, 3\]"):
            dataset.to_error_samples(series, "explicit-reference")

    def test_mean_reference_needs_a_nonzero_mean(self):
        rows = tuple(MeasurementRow(float(i), v) for i, v in enumerate((-1.0, 1.0, 0.0)))
        series = MeasurementSeries(rows=rows, condition_unit="", value_unit="")
        with pytest.raises(DatasetError, match="needs a nonzero mean"):
            dataset.to_error_samples(series, "mean-reference")

    def test_mean_reference_uses_the_builtin_sum(self, table1_series):
        obs = table1_series.columns.observed
        mean = sum(obs.tolist()) / len(obs)
        samples = dataset.to_error_samples(table1_series, "mean-reference")
        assert [s.error for s in samples] == [(o - mean) / mean * 1e6 for o in obs.tolist()]

    def test_unknown_rule(self, table1_series):
        with pytest.raises(DatasetError, match="unknown reference rule"):
            dataset.to_error_samples(table1_series, "median-reference")

    def test_mean_reference_sign_convention(self):
        rows = (
            MeasurementRow(condition=0.0, observed=9.0),
            MeasurementRow(condition=1.0, observed=11.0),
        )
        series = MeasurementSeries(rows=rows, condition_unit="", value_unit="")
        lo, hi = dataset.to_error_samples(series, "mean-reference")
        assert lo.error == pytest.approx(-1e5)
        assert hi.error == pytest.approx(1e5)

    def test_explicit_reference_sign_convention(self):
        # reference longer than the reading means a positive error
        rows = (MeasurementRow(condition=6.0, observed=6.0, reference=6.0005),)
        series = MeasurementSeries(rows=rows, condition_unit="m", value_unit="m")
        (sample,) = dataset.to_error_samples(series, "explicit-reference")
        assert sample.error == pytest.approx(0.5)
