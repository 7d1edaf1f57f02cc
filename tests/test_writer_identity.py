"""Column writers against row-at-a-time reference writers.

``reference_series_csv`` and ``reference_differential_csv`` are the
writers as they were when they read one record at a time: a series row
by row from its columns (NaN: no reference), ``DifferentialRow``s from
iterating ``rows``, one unit format per cell.  The writers format from
the stored columns and must give the same file, byte for byte, for
every size from an empty body up.

The writers format and write the body ``dataset._BLOCK_LINES`` lines at
a time; the files are the same on either side of a block boundary, a
block with a cell outside the exact formatter's window is written by
``%`` and its neighbours are not, and a writer's traced memory is that
of one block, whatever the row count.

``reference_plot_series`` and the two writers over it are the
``fit --emit-series`` writers as they were when the command line wrote
its CSV with the ``csv`` module, one sample at a time; their ``\r\n``
row endings are mapped to the ``\n`` every other errorkit file uses.
They compute each fitted value in scalar Python (``reference_fitted``),
so the files also check the models' array evaluators.
"""

import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from errorkit import _cellformat, cli, dataset, regression, simulate
from errorkit.dataset import DifferentialRows, ErrorSamples, LegPairs, MeasurementSeries
from errorkit.simulate import ErrorSource

UNIT_FORMATS = {"degC": "%g", "MHz": "%.6f", "m": "%.4f", "mm": "%.4f", "ppm": "%g"}
UNITS = (*UNIT_FORMATS, "furlong")


def _format(value, unit):
    return UNIT_FORMATS.get(unit, "%g") % value


def reference_series_csv(series, path):
    rows = list(zip(*(c.tolist() for c in series.columns)))
    has_ref = any(not math.isnan(reference) for _, _, reference in rows)
    parts = [f"condition={series.condition_unit}", f"observed={series.value_unit}"]
    if has_ref:
        parts.append(f"reference={series.value_unit}")
    out = ["# units: " + " ".join(parts)]
    out.append("condition,observed,reference" if has_ref else "condition,observed")
    for condition, observed, reference in rows:
        cells = [
            _format(condition, series.condition_unit),
            _format(observed, series.value_unit),
        ]
        if has_ref:
            cells.append(
                "" if math.isnan(reference) else _format(reference, series.value_unit)
            )
        out.append(",".join(cells))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def reference_differential_csv(pairs, rows, path):
    if len(pairs) != len(rows):
        raise ValueError("pairs and rows must have equal length")
    out = ["# units: m", "s_ab,s_ac,s2,s1"]
    for (ab, ac), row in zip(pairs, rows):
        out.append(
            ",".join(["%g" % ab, "%g" % ac, _format(row.s2, "m"), _format(row.s1, "m")])
        )
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def reference_plot_series(path, header_units, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# units: {header_units}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows(rows[1:])


def reference_fitted(model, x):
    """The model at one condition, in scalar Python: Horner's rule over
    the coefficients, or the cycle formula with ``math.sin``."""
    if isinstance(model, regression.PolynomialErrorModel):
        acc = 0.0
        for c in reversed(model.coeffs):
            acc = acc * x + c
        return acc
    return model.amplitude * math.sin(2 * math.pi * x / model.wavelength + model.phase)


def reference_fit_points(path, series, samples, model, condition_format, error_unit):
    rows = [("condition", "observed", "fitted", "residual")]
    for s in samples:
        fitted = reference_fitted(model, s.condition)
        rows.append((condition_format % s.condition, "%g" % s.error,
                     "%.6f" % fitted, "%.6f" % (s.error - fitted)))
    reference_plot_series(
        path, f"condition={series.condition_unit} observed={error_unit}", rows
    )


def reference_sinusoid_points(path, model, wavelength):
    grid = (np.arange(200) * (wavelength / 200.0)).tolist()
    # The fewest decimals, at least two, at which the grid prints distinct.
    decimals = 2
    while len({"%.*f" % (decimals, s) for s in grid}) < len(grid):
        decimals += 1
    rows = [("condition", "fitted")]
    for s in grid:
        rows.append(("%.*f" % (decimals, s), "%.6f" % reference_fitted(model, s)))
    reference_plot_series(path, "condition=m fitted=m", rows)


def reference_fit_series(path, table, model_name, raw_errors=False, wavelength=20.0):
    """What ``fit <table> --model <model_name> --emit-series`` wrote."""
    source = dataset.bundled_path(table)
    if model_name == "cycle-diff":
        model = regression.fit_cycle_differential(
            dataset.load_differential(source), wavelength)
        reference_sinusoid_points(path, model, wavelength)
        return
    series = dataset.load_series(source)
    if model_name == "poly3":
        samples = dataset.to_error_samples(series, "mean-reference")
        if not raw_errors:
            cond, err = samples.columns
            samples = ErrorSamples(cond, np.round(err) + 0.0)
        model = regression.fit_polynomial(samples, degree=3)
        reference_fit_points(path, series, samples, model, "%g", "ppm")
    else:
        samples = dataset.to_error_samples(series, "explicit-reference")
        model = regression.fit_cycle_direct(samples, wavelength)
        reference_fit_points(path, series, samples, model, "%.4f", "mm")


def _values(rng, n, exponent):
    """n finite values around 10**exponent, some of them short decimals."""
    v = rng.standard_normal(n) * 10.0**exponent
    short = rng.random(n) < 0.3
    v[short] = np.round(v[short], 4)
    return v


def _same_file(tmp_path, write, reference, *args, **kwargs):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(*args, got, **kwargs)
    reference(*args, want, **kwargs)
    assert got.read_bytes() == want.read_bytes()


sizes = st.integers(0, 2000)
seeds = st.integers(0, 2**32 - 1)
exponents = st.integers(-8, 12)


@settings(max_examples=60)
@given(
    n=sizes,
    seed=seeds,
    exponent=exponents,
    reference=st.sampled_from(["full", "partly blank", "absent"]),
    condition_unit=st.sampled_from(UNITS),
    value_unit=st.sampled_from(UNITS),
)
def test_series_writer_matches_the_row_writer(
    tmp_path_factory, n, seed, exponent, reference, condition_unit, value_unit
):
    rng = np.random.default_rng(seed)
    observed = _values(rng, n, exponent)
    ref = np.full(n, math.nan)
    if reference != "absent":
        nonzero = observed != 0.0
        ref[nonzero] = observed[nonzero] * (1.0 + rng.uniform(-5e-3, 5e-3, n))[nonzero]
    if reference == "partly blank":
        ref[rng.random(n) < 0.5] = math.nan
    series = MeasurementSeries.from_columns(
        _values(rng, n, exponent), observed, ref,
        condition_unit=condition_unit, value_unit=value_unit,
    )
    _same_file(tmp_path_factory.mktemp("series"), dataset.write_series_csv,
               reference_series_csv, series)


@settings(max_examples=60)
@given(
    n=sizes,
    seed=seeds,
    exponent=exponents,
)
def test_differential_writer_matches_the_row_writer(tmp_path_factory, n, seed, exponent):
    rng = np.random.default_rng(seed)
    s2 = _values(rng, n, exponent)
    s1 = s2 + np.abs(_values(rng, n, exponent)) + 10.0**exponent
    s_ab = _values(rng, n, exponent)
    pairs = LegPairs(s_ab, s_ab + 1.0)
    rows = DifferentialRows(s1, s2)
    _same_file(tmp_path_factory.mktemp("diff"), dataset.write_differential_csv,
               reference_differential_csv, pairs, rows)


def _simulated_campaign(pairs):
    return simulate.simulate_differential(
        ErrorSource.cycle(5.0, 10.0, 0.3, depends_on="distance"),
        pairs,
        [ErrorSource.additive_constant(2.0), ErrorSource.gaussian_noise(0.4)],
        round_readings=True,
        noise_seed=3,
    )


def test_simulated_campaign_is_written_as_the_row_writer_writes_it(tmp_path):
    rng = np.random.default_rng(11)
    s_ab = rng.uniform(0.0, 500.0, 10_000)
    s_ac = s_ab + rng.uniform(0.01, 50.0, 10_000)
    pairs = LegPairs(s_ab, s_ac)
    run = _simulated_campaign(pairs)
    assert isinstance(run.rows, DifferentialRows)
    _same_file(tmp_path, dataset.write_differential_csv, reference_differential_csv,
               pairs, run.rows)


def test_simulated_campaign_from_leg_pair_columns(tmp_path):
    rng = np.random.default_rng(12)
    s_ab = rng.uniform(0.0, 500.0, 10_000)
    pairs = LegPairs(s_ab, s_ab + rng.uniform(0.01, 50.0, 10_000))
    _same_file(tmp_path, dataset.write_differential_csv, reference_differential_csv,
               pairs, _simulated_campaign(pairs).rows)


def test_empty_series_and_campaign_are_the_header_lines(tmp_path):
    out = tmp_path / "out.csv"
    series = MeasurementSeries.from_columns(
        [], [], condition_unit="degC", value_unit="MHz")
    dataset.write_series_csv(series, out)
    assert out.read_text() == "# units: condition=degC observed=MHz\ncondition,observed\n"
    dataset.write_differential_csv(LegPairs([], []), DifferentialRows([], []), out)
    assert out.read_text() == "# units: m\ns_ab,s_ac,s2,s1\n"


B = dataset._BLOCK_LINES
BLOCK_SIZES = [0, B - 1, B, B + 1, 2 * B + 1]


def _series(n, reference, seed=5):
    rng = np.random.default_rng(seed)
    observed = rng.uniform(9.0, 11.0, n)
    ref = observed * (1.0 + rng.uniform(-5e-3, 5e-3, n))
    if reference == "absent":
        ref[:] = math.nan
    elif reference == "partly blank":
        ref[rng.random(n) < 0.5] = math.nan
    return MeasurementSeries.from_columns(
        _values(rng, n, 1), observed, ref, condition_unit="degC", value_unit="m")


def _campaign(n, seed=6):
    rng = np.random.default_rng(seed)
    s_ab = rng.uniform(0.0, 500.0, n)
    s2 = _values(rng, n, 2)
    return LegPairs(s_ab, s_ab + rng.uniform(0.01, 50.0, n)), DifferentialRows(
        s2 + np.abs(_values(rng, n, 2)) + 1.0, s2)


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("reference", ["full", "partly blank", "absent"])
def test_series_writer_across_block_boundaries(tmp_path, n, reference):
    _same_file(tmp_path, dataset.write_series_csv, reference_series_csv,
               _series(n, reference))


def test_missing_references_straddling_a_block_boundary(tmp_path):
    series = _series(2 * B + 1, "full")
    observed, reference = series.columns.observed, series.columns.reference.copy()
    reference[[B - 2, B - 1, B, B + 1, 2 * B]] = math.nan
    series = MeasurementSeries.from_columns(
        series.columns.condition, observed, reference,
        condition_unit="degC", value_unit="m")
    _same_file(tmp_path, dataset.write_series_csv, reference_series_csv, series)
    assert tmp_path.joinpath("got.csv").read_text().count(",\n") == 5


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_differential_writer_across_block_boundaries(tmp_path, n):
    _same_file(tmp_path, dataset.write_differential_csv, reference_differential_csv,
               *_campaign(n))


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_fit_points_across_block_boundaries(tmp_path, n):
    rng = np.random.default_rng(7)
    condition = rng.uniform(-30.0, 60.0, 20)
    model = regression.fit_polynomial(
        ErrorSamples(condition, _values(rng, 20, 1)), degree=3)
    samples = ErrorSamples(rng.uniform(-30.0, 60.0, n), _values(rng, n, 1))
    series = _series(n, "absent")
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dataset.write_fit_points(got, series, samples, model, "%g", "ppm")
    reference_fit_points(want, series, samples, model, "%g", "ppm")
    assert got.read_bytes() == want.read_bytes()


def _traced_peak(write, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("writer", ["series full", "series partly blank", "differential"])
def test_writer_memory_does_not_grow_with_the_rows(tmp_path, writer):
    # A few float64 column copies (8 bytes a cell) and a template
    # pointer a row; the cells' Python floats live one block at a time.
    n = 200_000
    out = tmp_path / "out.csv"
    if writer == "differential":
        peak = _traced_peak(dataset.write_differential_csv, *_campaign(n), out)
    else:
        peak = _traced_peak(dataset.write_series_csv,
                            _series(n, writer.removeprefix("series ")), out)
    assert out.read_text().count("\n") == n + 2
    assert peak <= 64 * n


@pytest.mark.parametrize("writer", ["series full", "series partly blank", "differential"])
def test_writer_memory_is_one_block(tmp_path, writer):
    # The formatter's module and tables load on the first write.
    out = tmp_path / "out.csv"
    dataset.write_differential_csv(*_campaign(1), out)
    for n in (10_000, 200_000):
        if writer == "differential":
            peak = _traced_peak(dataset.write_differential_csv, *_campaign(n), out)
        else:
            peak = _traced_peak(dataset.write_series_csv,
                                _series(n, writer.removeprefix("series ")), out)
        assert peak <= 1 << 20, n


def _percent_blocks(monkeypatch):
    """The blocks, as their columns, that write_table formats with ``%``."""
    blocks = []
    percent_lines = _cellformat._percent_lines

    def spy(formats, columns):
        blocks.append(columns)
        return percent_lines(formats, columns)

    monkeypatch.setattr(_cellformat, "_percent_lines", spy)
    return blocks


@pytest.mark.parametrize("row", [B - 1, B, 2 * B + 1])
@pytest.mark.parametrize("legs, value", [("pairs", 1e7), ("rows", 1e300)])
def test_an_out_of_window_cell_sends_its_block_to_percent(tmp_path, monkeypatch, row,
                                                           legs, value):
    # %g prints 1e7 as "1e+07"; %.4f of 1e300 has more than 2**52 units.
    pairs, rows = _campaign(2 * B + 2)
    if legs == "pairs":
        s_ab, s_ac = (c.copy() for c in pairs.columns)
        s_ab[row], s_ac[row] = value, 2 * value
        pairs = LegPairs(s_ab, s_ac)
    else:
        s1, s2 = (c.copy() for c in rows.columns)
        s2[row], s1[row] = value, 2 * value
        rows = DifferentialRows(s1, s2)
    blocks = _percent_blocks(monkeypatch)
    _same_file(tmp_path, dataset.write_differential_csv, reference_differential_csv,
               pairs, rows)
    assert [len(b[0]) for b in blocks] == [B if row < 2 * B else 2]


def test_contributions_are_the_same_python_floats():
    run = simulate.simulate_repeated(
        [ErrorSource.additive_constant(1.5), ErrorSource.gaussian_noise(0.2)],
        simulate.ConditionSchedule.constant(50, temperature=20.0),
        true_value=10.0,
        noise_seed=4,
    )
    contributions = {**run.contributions, "ints": [0, -1, 3], "signed zero": [-0.0, 0.0]}
    report = simulate.classify_effects(contributions, eps_abs=1e-3)
    for effect, seq in zip(report.effects, contributions.values()):
        want = tuple(float(v) for v in np.asarray(seq, dtype=float))
        assert type(effect.contributions) is tuple
        assert all(type(v) is float for v in effect.contributions)
        assert [v.hex() for v in effect.contributions] == [v.hex() for v in want]


FITS = {
    "poly3": ("table1.csv", "poly3", {}),
    "poly3 raw errors": ("table1.csv", "poly3", {"raw_errors": True}),
    "cycle": ("table2.csv", "cycle", {}),
    "cycle at 7.3 m": ("table2.csv", "cycle", {"wavelength": 7.3}),
    "cycle-diff": ("table3.csv", "cycle-diff", {}),
    "cycle-diff at 7.3 m": ("table3.csv", "cycle-diff", {"wavelength": 7.3}),
    "cycle-diff at 123.4 m": ("table3.csv", "cycle-diff", {"wavelength": 123.4}),
    "cycle-diff at 2e-11 m": ("table3.csv", "cycle-diff", {"wavelength": 2e-11}),
}


def _fit_args(table, model_name, options):
    args = ["fit", table, "--model", model_name]
    if options.get("raw_errors"):
        args.append("--raw-errors")
    if "wavelength" in options:
        args += ["--wavelength", str(options["wavelength"])]
    return args


def _same_fit_series(tmp_path, table, model_name, options):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    result = CliRunner().invoke(
        cli.main, [*_fit_args(table, model_name, options), "--emit-series", str(got)])
    assert result.exit_code == 0, result.output
    reference_fit_series(want, table, model_name, **options)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("table, model_name, options", FITS.values(), ids=FITS)
def test_fit_series_is_the_csv_module_file(tmp_path, table, model_name, options):
    _same_fit_series(tmp_path, table, model_name, options)


def test_a_13_decimal_grid_is_written_by_percent(tmp_path, monkeypatch):
    # At a 2e-11 m wavelength the cycle-diff grid needs 13 decimals,
    # past the exact formatter's 11.
    blocks = _percent_blocks(monkeypatch)
    _same_fit_series(tmp_path, *FITS["cycle-diff at 2e-11 m"])
    assert [len(b[0]) for b in blocks] == [200]


@settings(max_examples=60)
@given(
    n=st.integers(20, 400),
    seed=seeds,
    exponent=st.integers(-6, 9),
    model_name=st.sampled_from(["poly3", "cycle"]),
    condition_format=st.sampled_from(["%g", "%.4f"]),
    condition_unit=st.sampled_from(UNITS),
)
def test_fit_points_match_the_csv_module_writer(
    tmp_path_factory, n, seed, exponent, model_name, condition_format, condition_unit
):
    rng = np.random.default_rng(seed)
    condition = rng.uniform(-30.0, 60.0, n)
    short = rng.random(n) < 0.3
    condition[short] = np.round(condition[short], 2)
    samples = ErrorSamples(condition, _values(rng, n, exponent))
    if model_name == "poly3":
        model = regression.fit_polynomial(samples, degree=3)
    else:
        model = regression.fit_cycle_direct(samples, rng.uniform(1.0, 50.0))
    series = MeasurementSeries.from_columns(
        condition, np.ones(n), condition_unit=condition_unit, value_unit="m")
    got, want = (tmp_path_factory.mktemp("fit") / name for name in ("got", "want"))
    dataset.write_fit_points(got, series, samples, model, condition_format, "ppm")
    reference_fit_points(want, series, samples, model, condition_format, "ppm")
    assert got.read_bytes() == want.read_bytes()


REPEATED_SCENARIO = {
    "true_value": 10.0,
    "sources": [{"name": "c", "kind": "additive-constant", "c_mm": 1.5}],
    "schedule": {"repeats": 5, "generator": "constant",
                 "conditions": {"temperature": 20}},
}


@pytest.mark.parametrize("args", [
    *(_fit_args(*fit) for fit in FITS.values()),
    ["simulate", "table3_scenario.json"],
    ["simulate", "repeated.json"],
], ids=[*FITS, "simulate differential", "simulate repeated"])
def test_no_emitted_file_has_a_carriage_return(tmp_path, args):
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("repeated.json").write_text(json.dumps(REPEATED_SCENARIO))
        result = runner.invoke(cli.main, [*args, "--emit-series", "out.csv"])
        assert result.exit_code == 0, result.output
        data = Path("out.csv").read_bytes()
    assert b"\r" not in data
    assert data.startswith(b"# units: ") and data.endswith(b"\n")
