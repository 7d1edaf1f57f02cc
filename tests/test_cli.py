import hashlib
import importlib.metadata
import json
import math
import re

import pytest
from click.testing import CliRunner

from errorkit import dataset
from errorkit.cli import main

import reference_values as ref
from test_package import cli_run
from test_simulate import MALFORMED_PAIRS, differential_scenario_text


@pytest.fixture()
def runner():
    return CliRunner()


def write_scenario(tmp_path, payload, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


class TestRandomModel:
    def test_frequency_sweep(self, runner):
        result = runner.invoke(main, ["random-model", "table1.csv"])
        assert result.exit_code == 0
        assert "n        15" in result.output
        assert "mean     5.000050 MHz" in result.output
        assert "rel. std 15.8 ppm" in result.output

    def test_json_report(self, runner):
        result = runner.invoke(main, ["random-model", "table1.csv", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["command"] == "random-model"
        assert re.fullmatch(r"[0-9a-f]{64}", report["input_digest"])
        assert report["results"]["n"] == 15
        assert report["results"]["unit"] == "MHz"
        assert report["warnings"] == []

    def test_differential_column(self, runner):
        result = runner.invoke(
            main, ["random-model", "table3.csv", "--column", "diff"]
        )
        assert result.exit_code == 0
        assert "mean     8.001433 m" in result.output

    def test_missing_input(self, runner):
        result = runner.invoke(main, ["random-model", "nowhere.csv"])
        assert result.exit_code == 2
        assert "no such input: nowhere.csv" in result.stderr

    def test_data_dir_lookup(self, runner, tmp_path):
        src = dataset.bundled_path("table1.csv")
        (tmp_path / "sweep.csv").write_bytes(src.read_bytes())
        result = runner.invoke(
            main, ["random-model", "sweep.csv", "--data-dir", str(tmp_path)]
        )
        assert result.exit_code == 0
        assert "mean     5.000050 MHz" in result.output

    def test_byte_order_mark_prints_the_same_text(self, runner, tmp_path):
        src = dataset.bundled_path("table1.csv")
        (tmp_path / "table1.csv").write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        plain = runner.invoke(main, ["random-model", "table1.csv"])
        with_bom = runner.invoke(
            main, ["random-model", "table1.csv", "--data-dir", str(tmp_path)]
        )
        assert with_bom.exit_code == plain.exit_code == 0
        assert with_bom.output == plain.output

    def test_version(self, runner, monkeypatch):
        # The version is the package's own, not installed metadata: a plain
        # checkout on PYTHONPATH has none.
        def not_installed(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", not_installed)
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert result.output.rstrip().endswith("version 0.1.0")


class TestInputErrors:
    """Inputs that must end in a located input error or a stated warning,
    never in a traceback or a silent nan."""

    @pytest.fixture()
    def zero_mean_csv(self, tmp_path):
        p = tmp_path / "zero.csv"
        p.write_text("# units: m\ncondition,observed\n1,-1\n2,1\n3,0\n")
        return str(p)

    @pytest.fixture()
    def nan_leg_csv(self, tmp_path):
        src = dataset.bundled_path("table3.csv").read_text().splitlines()
        cells = src[3].split(",")
        cells[2] = "nan"  # the s2 leg of data row 2
        src[3] = ",".join(cells)
        p = tmp_path / "nan_leg.csv"
        p.write_text("\n".join(src) + "\n")
        return str(p)

    def test_zero_mean_random_model_states_the_spread_is_undefined(
        self, runner, zero_mean_csv
    ):
        result = runner.invoke(main, ["random-model", zero_mean_csv])
        assert result.exit_code == 0
        assert result.stdout.splitlines() == [
            "n        3",
            "mean     0.000000 m",
            "std      1 m",
            "rel. std undefined (mean is 0)",
        ]
        assert "warning: relative std is undefined" in result.stderr
        assert "nan" not in result.stdout

    def test_zero_mean_random_model_json_has_null(self, runner, zero_mean_csv):
        result = runner.invoke(main, ["random-model", zero_mean_csv, "--json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["results"]["relative_std_ppm"] is None
        assert report["warnings"] == ["relative std is undefined: the mean is 0"]

    def test_zero_mean_poly3_fit_is_an_input_error(self, runner, zero_mean_csv):
        result = runner.invoke(main, ["fit", zero_mean_csv, "--model", "poly3"])
        assert result.exit_code == 2
        assert "mean-reference needs a nonzero mean" in result.stderr
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "argv",
        [["fit", "--model", "cycle-diff"], ["random-model", "--column", "diff"]],
    )
    def test_nan_leg_names_row_and_column(self, runner, nan_leg_csv, argv):
        result = runner.invoke(main, [argv[0], nan_leg_csv, *argv[1:]])
        assert result.exit_code == 2
        assert "row 2, column 's2': must be finite, got nan" in result.stderr

    def test_column_named_twice_is_an_input_error(self, runner, tmp_path):
        # Each s1 column alone gives a finite leg difference.
        p = tmp_path / "twice.csv"
        p.write_text("# units: m\ns_ab,s_ac,s2,s1,s1\n10,18,10.0,18.0,18.5\n"
                     "10,18,10.0,18.1,18.4\n")
        result = runner.invoke(main, ["random-model", str(p), "--column", "diff"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {p}: column 's1' is named more than once\n"

    def test_nan_reference_cell_names_row_and_column(self, runner, tmp_path):
        src = dataset.bundled_path("table2.csv").read_text().splitlines()
        cells = src[4].split(",")
        cells[2] = "nan"  # the reference of data row 3
        src[4] = ",".join(cells)
        p = tmp_path / "nan_ref.csv"
        p.write_text("\n".join(src) + "\n")
        result = runner.invoke(main, ["fit", str(p), "--model", "cycle"])
        assert result.exit_code == 2
        assert "row 3, column 'reference': must be finite, got nan" in result.stderr

    def test_quoted_cell_across_two_lines_is_an_input_error(self, runner, tmp_path):
        # With quotechar='"', numpy's C reader would join the two lines
        # into the cell "12" and read 12.0.
        p = tmp_path / "quoted.csv"
        p.write_text('# units: m\ncondition,observed\n"1\n2",3\n4,5\n')
        result = runner.invoke(main, ["random-model", str(p)])
        assert result.exit_code == 2
        assert result.stderr == "error: row 1, column 'condition': not a number: '1\\n2'\n"

    @pytest.mark.parametrize("unit", ["MHz", "mm"])
    def test_cycle_fit_refuses_values_not_in_metres(self, runner, tmp_path, unit):
        # Explicit-reference errors are (reference - observed) * 1e3, in
        # mm only when the readings are in metres.
        p = tmp_path / "series.csv"
        p.write_text(
            f"# units: condition=degC observed={unit} reference={unit}\n"
            "condition,observed,reference\n"
            + "".join(f"{t},5.0,{5.0 + t * 1e-4}\n" for t in (1, 2, 3, 4))
        )
        result = runner.invoke(main, ["fit", str(p), "--model", "cycle"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: explicit-reference needs a series in metres (m), "
            f"got values in {unit!r}\n")

    def test_cycle_fit_without_references_names_a_few_rows(self, runner, tmp_path):
        # Every one of 10^5 rows lacks its reference: one short line.
        p = tmp_path / "series.csv"
        p.write_text("# units: m\ncondition,observed\n"
                     + "".join(f"{i},{5.0 + i % 997 * 1e-6:.6f}\n" for i in range(10**5)))
        result = runner.invoke(main, ["fit", str(p), "--model", "cycle"])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: explicit-reference requires a reference on every row; missing on "
            "rows [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, ...] (100000 rows)\n")
        assert len(result.stderr.encode()) <= 200

    @pytest.mark.parametrize("command, data, line, byte", [
        # A byte-order mark shifts no line.
        ("random-model", b"\xef\xbb\xbf# units: m\ncondition,observed\n1,2\n3,4\xff\n", 4, "ff"),
        ("random-model", b"# units: m\r\ncondition,observed\r\n1,2\xfe\r\n", 3, "fe"),
        ("simulate", b'{"label": "caf\xe9"}', 1, "e9"),
        ("propagate", b'\xef\xbb\xbf{"components": []}\n"\xe9"', 2, "e9"),
        # Past the first 64 KiB of the file: 5000 pairs on line 1.
        ("simulate", differential_scenario_text(["[10.0, 18.0]"] * 5000).encode()
         + b"\n" * 3000 + b"\xc3", 3001, "c3"),
    ], ids=["csv", "csv crlf", "json", "json bom", "json deep"])
    def test_non_utf8_input_names_file_and_line(self, runner, tmp_path, command,
                                                data, line, byte):
        p = tmp_path / ("input.csv" if command == "random-model" else "input.json")
        p.write_bytes(data)
        result = runner.invoke(main, [command, str(p)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {p}: not UTF-8 text at line {line} (byte 0x{byte})\n"


    @pytest.mark.parametrize("command", ["simulate", "propagate"])
    def test_json_syntax_error_names_file_line_and_column(self, runner, tmp_path, command):
        p = tmp_path / "input.json"
        p.write_text('{"label": "x",\n  }')
        result = runner.invoke(main, [command, str(p)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr == (
            "error: input.json: line 2 column 3: Expecting property name enclosed in "
            "double quotes\n")

    @pytest.mark.parametrize("command", ["simulate", "propagate"])
    def test_json_nested_past_the_recursion_limit(self, runner, tmp_path, command):
        # json.loads raises RecursionError, which is not a JSONDecodeError.
        p = tmp_path / "deep.json"
        p.write_text("[" * 10**5 + "]" * 10**5)
        result = runner.invoke(main, [command, str(p)])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr == "error: deep.json: nested deeper than the parser allows\n"

    @pytest.mark.parametrize("command, fixture", [
        ("simulate", "table3_scenario.json"), ("propagate", "budget_example.json"),
    ])
    def test_json_byte_order_mark_is_skipped(self, runner, tmp_path, command, fixture):
        p = tmp_path / fixture
        p.write_bytes(b"\xef\xbb\xbf" + dataset.bundled_path(fixture).read_bytes())
        plain = runner.invoke(main, [command, fixture])
        result = runner.invoke(main, [command, str(p)])
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == plain.stdout


class TestNonfiniteResults:
    """Results that overflow exit 3 and name the result; no nan or inf is
    printed."""

    @pytest.fixture()
    def huge_csv(self, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("# units: m\ncondition,observed\n1,1e308\n2,1.5e308\n3,1.7e308\n")
        return str(p)

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_overflowing_budget_total(self, runner, tmp_path, extra):
        doc = json.loads(dataset.bundled_path("budget_example.json").read_text())
        doc["components"][0]["std"] = 1e308
        p = tmp_path / "budget.json"
        p.write_text(json.dumps(doc))
        result = runner.invoke(main, ["propagate", str(p), *extra])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: result /total_std_mm is inf")

    # Each --emit-series writer, given an input whose results leave the
    # double range: its arguments, the name and text of the input file,
    # and the result named.
    _CYCLE = {"kind": "cycle", "depends_on": "distance", "wavelength_m": 7.0}
    _REFUSED_WRITERS = {
        # The mean is 15/7, so the first two errors are near 1e306 ppm.
        "poly3": (["fit", "--model", "poly3"], "t1.csv", "\n".join(
            ["# units: condition=degC observed=MHz", "condition,observed"]
            + [f"{i},{v}" for i, v in enumerate(["1e300", "-1e300", 1, 2, 3, 4, 5], 1)]),
            "/residual_std is inf"),
        "cycle": (["fit", "--model", "cycle"], "t2.csv",
                  dataset.bundled_path("table2.csv").read_text().replace(
                      "6.0232,6.0232,6.0237", "6.0232,1e300,1.005e300"),
                  "/residual_std is inf"),
        "cycle-diff": (["fit", "--model", "cycle-diff"], "t3.csv",
                       dataset.bundled_path("table3.csv").read_text().replace(
                           "10,18,9.9965,18.0008", "10,18,9.9965,1e300"),
                       "/residual_std is inf"),
        "repeated": (["simulate"], "repeated.json", json.dumps({
            "true_value": 1.7e308,
            "sources": [{"name": "c", "kind": "additive-constant", "c_mm": 1.0}],
            "schedule": {"repeats": 3, "generator": "constant",
                         "conditions": {"temperature": 20}}}),
            "/mean_m is inf"),
        # Two opposite cycles cancel in the readings, so only the
        # per-source statistics overflow.
        "repeated-classify": (["simulate", "--classify"], "classified.json", json.dumps({
            "true_value": 10.0,
            "sources": [{**_CYCLE, "name": "up", "amplitude_mm": 1.5e308},
                        {**_CYCLE, "name": "down", "amplitude_mm": -1.5e308}],
            "schedule": {"repeats": 3, "generator": "listed",
                         "conditions": {"distance": [1.0, 2.5, 4.0]}}}),
            "/effects/up/mean_mm is inf"),
        "differential-classify": (["simulate", "--classify"], "differential.json", json.dumps({
            "sources": [{"name": "cycle", "kind": "cycle", "amplitude_mm": 1.0},
                        {**_CYCLE, "name": "up", "amplitude_mm": 1.5e308},
                        {**_CYCLE, "name": "down", "amplitude_mm": -1.5e308}],
            "differential": {"pairs": [[10.0, 18.0], [12.0, 21.0], [13.0, 25.0]]}}),
            "/effects/up/std_mm is inf"),
    }

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    @pytest.mark.parametrize("writer", list(_REFUSED_WRITERS))
    def test_a_refused_result_writes_no_series(self, runner, tmp_path, writer, extra):
        argv, name, text, result_named = self._REFUSED_WRITERS[writer]
        p = tmp_path / name
        p.write_text(text)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [argv[0], str(p), *argv[1:], "--emit-series", str(out),
                                      *extra])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == (f"error: result {result_named}: the computation left "
                                 "the range of double precision\n")
        assert not out.exists()

    @pytest.mark.parametrize("std", [1.2e308, 6e307])
    @pytest.mark.parametrize("shape", ["gaussian", "arcsine", "uniform"])
    def test_overflowing_monte_carlo_component(self, runner, tmp_path, shape, std):
        # A uniform range twice past 5.2e307 is refused before drawing;
        # the other shapes draw and overflow the closed-form total.
        p = tmp_path / "budget.json"
        p.write_text(json.dumps({"components": [
            {"name": "a", "std": std, "unit": "mm", "shape": shape}]}))
        result = runner.invoke(main, ["propagate", str(p), "--monte-carlo", "10000"])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        if shape == "uniform":
            assert result.stderr.startswith("error: component 'a': uniform range ")
        else:
            assert result.stderr.startswith("error: result /total_std_mm is inf")

    def test_overflowing_mean(self, runner, huge_csv):
        result = runner.invoke(main, ["random-model", huge_csv])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error: result /mean is inf")

    def test_overflowing_mean_reference_is_an_input_error(self, runner, huge_csv):
        result = runner.invoke(main, ["fit", huge_csv, "--model", "poly3"])
        assert result.exit_code == 2
        assert "the mean of the observed values overflows to inf" in result.stderr

    def test_repeated_scenario_out_of_memory(self, runner, tmp_path):
        # numpy refuses a 7 PiB request before touching any memory.
        scenario = write_scenario(tmp_path, {
            "true_value": 10.0,
            "sources": [{"name": "c", "kind": "additive-constant", "c_mm": 1.0}],
            "schedule": {"repeats": 10**15, "generator": "constant",
                         "conditions": {"temperature": 20}},
        })
        result = runner.invoke(main, ["simulate", scenario])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: out of memory: ")


class TestFitPoly3:
    def test_published_coefficients(self, runner):
        result = runner.invoke(main, ["fit", "table1.csv", "--model", "poly3"])
        assert result.exit_code == 0
        assert "a +9.983251" in result.output
        assert "b -0.013518" in result.output
        assert "c -0.018601" in result.output
        assert "d +0.000214" in result.output
        assert "residual std 2.28486 ppm" in result.output
        assert "dof 11" in result.output

    def test_emit_matrix(self, runner):
        result = runner.invoke(
            main, ["fit", "table1.csv", "--model", "poly3", "--emit-matrix"]
        )
        assert result.exit_code == 0
        assert "normal matrix:" in result.output
        assert "2925000" in result.output
        assert "rhs:" in result.output
        assert "42713000" in result.output

    def test_raw_errors_change_the_fit(self, runner):
        rounded = runner.invoke(main, ["fit", "table1.csv", "--model", "poly3"])
        raw = runner.invoke(
            main, ["fit", "table1.csv", "--model", "poly3", "--raw-errors"]
        )
        assert raw.exit_code == 0
        assert raw.output != rounded.output
        assert "dof 11" in raw.output

    def test_json_report(self, runner):
        result = runner.invoke(
            main, ["fit", "table1.csv", "--model", "poly3", "--json"]
        )
        report = json.loads(result.output)
        assert report["results"]["model"] == "polynomial-deg3"
        assert report["results"]["dof"] == 11
        assert len(report["results"]["coefficients"]) == 4

    def test_emit_series_reloads(self, runner, tmp_path):
        out = tmp_path / "fitted.csv"
        result = runner.invoke(
            main,
            ["fit", "table1.csv", "--model", "poly3", "--emit-series", str(out)],
        )
        assert result.exit_code == 0
        series = dataset.load_series(out)
        assert len(series) == 15
        assert series.condition_unit == "degC"

    def test_an_error_rounding_to_zero_is_written_as_0(self, runner, tmp_path):
        # Row 1 is 0.3 ppm below the mean: its whole-ppm error is 0, not -0.
        p = tmp_path / "near_zero.csv"
        p.write_text("# units: condition=degC observed=MHz\ncondition,observed\n"
                     "0,9.999997\n10,10.000004\n20,9.99999\n30,10.00001\n"
                     "40,9.999998\n50,10.000001\n")
        out = tmp_path / "fitted.csv"
        result = runner.invoke(
            main, ["fit", str(p), "--model", "poly3", "--emit-series", str(out)]
        )
        assert result.exit_code == 0
        observed = [line.split(",")[1] for line in out.read_text().splitlines()[2:]]
        assert observed[0] == "0"
        assert "-0" not in observed


class TestFitJsonReport:
    """The ``fit --json`` report of each bundled fit, key for key."""

    COMMON_KEYS = {"model", "coefficients", "residual_std", "dof", "normal_matrix", "rhs"}
    FITS = {
        "poly3": ("table1.csv", COMMON_KEYS | {"domain", "basis_offset"}),
        "cycle": ("table2.csv", COMMON_KEYS | {"amplitude_unit"}),
        "cycle-diff": ("table3.csv", COMMON_KEYS | {"amplitude_unit"}),
    }
    COEFFICIENT_KEYS = {
        "cycle": {"amplitude", "phase_rad", "phase_deg", "wavelength"},
        "cycle-diff": {"amplitude", "phase_rad", "phase_deg", "wavelength", "offset_s0"},
    }

    @staticmethod
    def report(runner, path, model):
        result = runner.invoke(main, ["fit", str(path), "--model", model, "--json"])
        assert result.exit_code == 0, result.output
        return json.loads(result.output)

    @pytest.mark.parametrize("model", FITS)
    def test_key_sets(self, runner, model):
        table, keys = self.FITS[model]
        report = self.report(runner, table, model)
        assert set(report) == {"command", "input_digest", "results", "warnings"}
        assert set(report["results"]) == keys
        if model in self.COEFFICIENT_KEYS:
            assert set(report["results"]["coefficients"]) == self.COEFFICIENT_KEYS[model]

    def test_poly3_system_and_domain(self, runner):
        # The whole-ppm errors and integer temperatures make every power
        # sum exact, so these values hold on any platform.
        results = self.report(runner, "table1.csv", "poly3")["results"]
        assert results["basis_offset"] == 0.0
        assert results["normal_matrix"] == [
            [15.0, 450.0, 41500.0, 2925000.0],
            [450.0, 41500.0, 2925000.0, 256870000.0],
            [41500.0, 2925000.0, 256870000.0, 21952500000.0],
            [2925000.0, 256870000.0, 21952500000.0, 1983295000000.0],
        ]
        assert results["rhs"] == [-1.0, 4610.0, 304500.0, 42713000.0]
        assert results["domain"] == [-40.0, 100.0]

    def test_negative_zero_condition_reports_a_positive_zero_domain(self, runner, tmp_path):
        p = tmp_path / "minus_zero.csv"
        p.write_text("# units: condition=degC observed=MHz\ncondition,observed\n"
                     "-0.0,10.00001\n10,10.00003\n20,9.99998\n30,10.00002\n"
                     "40,9.99996\n50,10.00004\n")
        domain = self.report(runner, p, "poly3")["results"]["domain"]
        assert domain == [0.0, 50.0]
        assert math.copysign(1.0, domain[0]) == 1.0


class TestFitCycle:
    def test_published_amplitude_and_phase(self, runner):
        result = runner.invoke(
            main, ["fit", "table2.csv", "--model", "cycle"]
        )
        assert result.exit_code == 0
        assert "amplitude 5.7235 mm" in result.output
        assert "phase     255.14 deg" in result.output
        assert "dof 19" in result.output

    def test_differential_fit(self, runner):
        result = runner.invoke(
            main, ["fit", "table3.csv", "--model", "cycle-diff"]
        )
        assert result.exit_code == 0
        assert "base distance 8.00001 m" in result.output
        assert "amplitude 0.004994 m" in result.output
        assert "phase     44.79 deg" in result.output
        assert "dof 12" in result.output

    def test_differential_emit_series(self, runner, tmp_path):
        out = tmp_path / "cycle.csv"
        result = runner.invoke(
            main,
            [
                "fit", "table3.csv", "--model", "cycle-diff",
                "--emit-series", str(out),
            ],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# units: condition=m fitted=m"
        assert lines[1] == "condition,fitted"
        assert len(lines) == 202

    @pytest.mark.parametrize("wavelength", ["939.1552478622327", "422.17436392515907"])
    def test_differential_emit_series_has_200_steps(self, runner, tmp_path, wavelength):
        # Steps of wavelength/200 summed up to the wavelength may fall
        # short of it and add a 201st.
        out = tmp_path / "cycle.csv"
        result = runner.invoke(main, ["fit", "table3.csv", "--model", "cycle-diff",
                                      "--wavelength", wavelength, "--emit-series", str(out)])
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 202

    def test_differential_emit_series_at_the_least_wavelength(self, runner, tmp_path):
        # wavelength / 200 is 0.0: the grid is 200 zeros, not a division by 0.
        p = tmp_path / "subnormal.csv"
        p.write_text("# units: m\ns2,s1\n1e-323,3e-323\n1.5e-323,4e-323\n2e-323,6e-323\n"
                     "3e-323,7e-323\n5e-323,9e-323\n")
        out = tmp_path / "cycle.csv"
        result = runner.invoke(main, ["fit", str(p), "--model", "cycle-diff",
                                      "--wavelength", "5e-324", "--emit-series", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert len(lines) == 202
        assert {line.split(",")[0] for line in lines[2:]} == {"0.00"}

    def test_differential_emit_series_conditions_print_apart(self, runner, tmp_path):
        # A 2.5 mm step printed to two decimals repeated 50 of 200 conditions.
        out = tmp_path / "cycle.csv"
        result = runner.invoke(main, ["fit", "table3.csv", "--model", "cycle-diff",
                                      "--wavelength", "0.5", "--emit-series", str(out)])
        assert result.exit_code == 0, result.output
        conditions = [line.split(",")[0] for line in out.read_text().splitlines()[2:]]
        assert len(set(conditions)) == len(conditions) == 200
        assert conditions[:3] == ["0.000", "0.003", "0.005"]

    def test_degenerate_layout_is_a_numerical_failure(self, runner, tmp_path):
        p = tmp_path / "collinear.csv"
        p.write_text("# units: m\ns2,s1\n10,18\n30,38\n50,58\n70,78\n")
        result = runner.invoke(main, ["fit", str(p), "--model", "cycle-diff"])
        assert result.exit_code == 3
        assert "degenerate distance layout" in result.stderr

    @pytest.mark.parametrize("model, table, s", [
        ("cycle", "table2.csv", "6.0232"), ("cycle-diff", "table3.csv", "18.0008")])
    @pytest.mark.parametrize("wavelength, message", [
        ("inf", "wavelength must be finite, got inf"),
        ("5e-324", "wavelength 5e-324 puts the phase 2*pi*s/wavelength beyond "
                   "the double range at s = {s}"),
        ("1e-320", "wavelength 1e-320 puts the phase 2*pi*s/wavelength beyond "
                   "the double range at s = {s}"),
    ])
    def test_unusable_wavelength_is_an_input_error(
            self, runner, model, table, s, wavelength, message):
        result = runner.invoke(
            main, ["fit", table, "--model", model, "--wavelength", wavelength])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == f"error: {message.format(s=s)}\n"

    @pytest.mark.parametrize("model, table, detail", [
        ("cycle", "table2.csv", ""),
        ("cycle-diff", "table3.csv",
         " (degenerate distance layout; legs must sample diverse phases)"),
    ])
    def test_huge_wavelength_is_a_numerical_failure(self, runner, model, table, detail):
        # A finite wavelength far beyond the readings leaves every phase
        # near 0: a degenerate design, like collinear.csv above, so exit 3.
        result = runner.invoke(
            main, ["fit", table, "--model", model, "--wavelength", "1e308"])
        assert result.exit_code == 3
        assert result.stderr == (
            "error: singular system: no usable pivot at elimination step "
            f"{1 if detail else 0}{detail}\n"
        )

    def test_too_few_rows_is_an_input_error(self, runner, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("# units: m\ns2,s1\n10,18\n12,20\n")
        result = runner.invoke(main, ["fit", str(p), "--model", "cycle-diff"])
        assert result.exit_code == 2
        assert "at least 3" in result.stderr


class TestSimulate:
    def test_bundled_differential_scenario(self, runner):
        result = runner.invoke(main, ["simulate", "table3_scenario.json"])
        assert result.exit_code == 0
        assert "n pairs  15" in result.output
        assert "mean s1-s2 8.001433 m" in result.output

    def test_regenerates_the_bundled_table(self, runner):
        result = runner.invoke(
            main, ["simulate", "table3_scenario.json", "--regen-table3"]
        )
        assert result.exit_code == 0
        assert "30/30 values match" in result.output

    @pytest.mark.parametrize("pairs", [16, 10])
    def test_regen_needs_the_table_pair_count(self, runner, tmp_path, pairs):
        # Pairing the values by zip compared only the shorter side.
        doc = json.loads(dataset.bundled_path("table3_scenario.json").read_text())
        doc["differential"]["pairs"] = (doc["differential"]["pairs"] + [[44.0, 52.0]])[:pairs]
        scenario = write_scenario(tmp_path, doc)
        result = runner.invoke(main, ["simulate", scenario, "--regen-table3"])
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: --regen-table3 compares pair by pair: the scenario has "
            f"{pairs} pairs, table3.csv has 15\n"
        )
        assert "values match" not in result.output

    def test_regen_flag_needs_a_differential_scenario(self, runner, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "true_value": 15.0,
                "sources": [{"name": "c", "kind": "cycle", "amplitude_mm": 5.0}],
                "schedule": {
                    "repeats": 5,
                    "generator": "constant",
                    "conditions": {"distance": 15.0},
                },
            },
        )
        result = runner.invoke(main, ["simulate", scenario, "--regen-table3"])
        assert result.exit_code == 2
        assert "differential scenario" in result.stderr

    def test_repeated_scenario_with_classification(self, runner, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "label": "frozen",
                "true_value": 15.0,
                "sources": [
                    {"name": "cycle", "kind": "cycle", "amplitude_mm": 5.0},
                    {"name": "offset", "kind": "additive-constant", "c_mm": 1.5},
                ],
                "schedule": {
                    "repeats": 10,
                    "generator": "constant",
                    "conditions": {"distance": 15.0},
                },
            },
        )
        result = runner.invoke(main, ["simulate", scenario, "--classify"])
        assert result.exit_code == 0
        assert "n        10" in result.output
        assert "cycle: systematic" in result.output
        assert "offset: systematic" in result.output

    @pytest.mark.parametrize("form", ["differential", "repeated"])
    def test_cycle_phase_beyond_the_double_range_names_the_source(
            self, runner, tmp_path, form):
        # The schema admits any positive wavelength; at 1e-320 m the phase
        # 2*pi*s/wavelength_m overflows at every distance the run measures.
        if form == "differential":
            payload = json.loads(dataset.bundled_path("table3_scenario.json").read_text())
            payload["sources"][0]["wavelength_m"] = 1e-320
        else:
            payload = {
                "true_value": 15.0,
                "sources": [{"name": "cycle", "kind": "cycle", "amplitude_mm": 5.0,
                             "wavelength_m": 1e-320}],
                "schedule": {"repeats": 10, "generator": "constant",
                             "conditions": {"distance": 15.0}},
            }
        result = runner.invoke(main, ["simulate", write_scenario(tmp_path, payload)])
        assert result.exit_code == 2
        s = {"differential": "10.0", "repeated": "15.0"}[form]
        assert result.stderr == (
            "error: source 'cycle': wavelength 1e-320 puts the phase "
            f"2*pi*s/wavelength beyond the double range at s = {s}\n")

    def test_legs_near_the_top_of_the_double_range(self, runner, tmp_path):
        # Past s = 2.9e307 m, 2*pi*s overflows though the phase is about
        # 2e7; past 1.7e299 m a leg cannot be scaled to the 2**-30 m or
        # 0.1 mm grid, on which it lies already.  The legs differ by
        # 2**1020 m exactly, so s1 - s2 has a finite std.
        payload = json.loads(dataset.bundled_path("table3_scenario.json").read_text())
        payload["sources"][0]["wavelength_m"] = 1e300
        payload["differential"]["pairs"] = [
            [k * 2.0**1016, k * 2.0**1016 + 2.0**1020] for k in range(1, 31, 2)]
        out = tmp_path / "legs.csv"
        result = runner.invoke(main, ["simulate", write_scenario(tmp_path, payload),
                                      "--classify", "--emit-series", str(out)])
        assert result.exit_code == 0, result.output
        assert "std  s1-s2 0 m" in result.output
        s1, s2 = dataset.load_differential(out).columns
        assert (s2.tolist(), (s1 - s2).tolist()) == (
            [ab for ab, _ in payload["differential"]["pairs"]], [2.0**1020] * 15)

    def test_phase_beyond_the_double_range_in_either_order(self, runner, tmp_path):
        # s/wavelength_m overflows as well as 2*pi*s.
        payload = json.loads(dataset.bundled_path("table3_scenario.json").read_text())
        payload["sources"][0]["wavelength_m"] = 0.5
        payload["differential"]["pairs"] = [[1.0, 2.0], [3.0, 1.7e308]]
        result = runner.invoke(main, ["simulate", write_scenario(tmp_path, payload)])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: source 'cycle': wavelength 0.5 puts the phase "
            "2*pi*s/wavelength beyond the double range at s = 1.7e+308\n")

    def test_overflowing_cycle_difference_names_the_source(self, runner, tmp_path):
        # Each leg's contribution is finite; their difference at row 3,
        # about 1.9e308 mm, is not.
        payload = json.loads(dataset.bundled_path("table3_scenario.json").read_text())
        payload["sources"][0]["amplitude_mm"] = 1e308
        result = runner.invoke(main, ["simulate", write_scenario(tmp_path, payload)])
        assert result.exit_code == 2
        assert result.stderr == ("error: source 'cycle': row 3: contribution "
                                 "difference must be finite, got inf\n")

    @pytest.mark.parametrize("form", ["multiplicative", "temperature-polynomial",
                                      "differential"])
    def test_overflowing_source_names_the_source(self, runner, tmp_path, form):
        # Finite parameters whose contribution leaves the double range.
        scale = {"name": "scale", "kind": "multiplicative", "r_ppm": 1e308}
        if form == "differential":
            payload = json.loads(dataset.bundled_path("table3_scenario.json").read_text())
            payload["sources"].append(scale)
        else:
            conditions = {"distance": 15.0}
            if form == "temperature-polynomial":
                scale = {"name": "scale", "kind": form, "coeffs_ppm": [0, 0, 0, 1e300]}
                conditions = {"temperature": 1e5}
            payload = {"true_value": 15.0, "sources": [scale],
                       "schedule": {"repeats": 10, "generator": "constant",
                                    "conditions": conditions}}
        result = runner.invoke(main, ["simulate", write_scenario(tmp_path, payload)])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: source 'scale': row 1: contribution must be finite, got inf\n")

    def test_varying_distance_classifies_random(self, runner, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "true_value": 10.0,
                "sources": [{"name": "cycle", "kind": "cycle", "amplitude_mm": 5.0}],
                "schedule": {
                    "repeats": 50,
                    "generator": "uniform-random",
                    "ranges": {"distance": [0.0, 20.0]},
                    "seed": 5,
                },
            },
        )
        result = runner.invoke(main, ["simulate", scenario, "--classify"])
        assert result.exit_code == 0
        assert "cycle: random" in result.output

    def test_noise_needs_an_explicit_threshold(self, runner, tmp_path):
        payload = {
            "true_value": 10.0,
            "sources": [{"name": "noise", "kind": "gaussian-noise", "sigma_mm": 0.3}],
            "schedule": {
                "repeats": 20,
                "generator": "constant",
                "conditions": {"distance": 10.0},
            },
        }
        scenario = write_scenario(tmp_path, payload)
        refused = runner.invoke(main, ["simulate", scenario, "--classify"])
        assert refused.exit_code == 2
        assert "--eps-abs" in refused.stderr

        accepted = runner.invoke(
            main, ["simulate", scenario, "--classify", "--eps-abs", "0.01"]
        )
        assert accepted.exit_code == 0
        assert "noise: random" in accepted.output

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_nonfinite_threshold_is_an_input_error(self, runner, eps):
        result = runner.invoke(
            main, ["simulate", "table3_scenario.json", "--classify", "--eps-abs", eps]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == (
            f"error: eps_abs must be positive and finite, got {eps}\n"
        )

    @pytest.mark.parametrize("schedule, stderr", [
        ({"repeats": 2.0, "generator": "constant", "conditions": {"distance": 1.0}}, ""),
        ({"repeats": 2, "generator": "listed", "conditions": {"distance": 1.0}},
         "error: listed schedule for 'distance' needs a list, got 1.0\n"),
        ({"repeats": 2, "generator": "constant", "conditions": {"distance": [1.0, 2.0]}},
         "error: constant schedule for 'distance' needs a number, got [1.0, 2.0]\n"),
    ])
    def test_schedule_shapes_the_schema_admits(self, runner, tmp_path, schedule, stderr):
        scenario = write_scenario(tmp_path, {
            "true_value": 10.0,
            "sources": [{"name": "c", "kind": "cycle", "amplitude_mm": 1.0}],
            "schedule": schedule,
        })
        result = runner.invoke(main, ["simulate", scenario])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert (result.exit_code, result.stderr) == (2 if stderr else 0, stderr)

    def test_largest_finite_threshold(self, runner):
        result = runner.invoke(main, [
            "simulate", "table3_scenario.json", "--classify", "--eps-abs", "1e308"])
        assert result.exit_code == 0
        assert "cycle: non-effect" in result.output

    def test_scenario_file_can_carry_the_threshold(self, runner, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "true_value": 10.0,
                "eps_abs_mm": 0.01,
                "sources": [
                    {"name": "noise", "kind": "gaussian-noise", "sigma_mm": 0.3}
                ],
                "schedule": {
                    "repeats": 20,
                    "generator": "constant",
                    "conditions": {"distance": 10.0},
                },
            },
        )
        result = runner.invoke(main, ["simulate", scenario, "--classify"])
        assert result.exit_code == 0
        assert "noise: random" in result.output

    def test_noise_seed_changes_the_draws(self, runner, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "true_value": 10.0,
                "sources": [
                    {"name": "noise", "kind": "gaussian-noise", "sigma_mm": 0.3}
                ],
                "schedule": {
                    "repeats": 20,
                    "generator": "constant",
                    "conditions": {"distance": 10.0},
                },
            },
        )
        a = runner.invoke(main, ["simulate", scenario, "--seed", "1"])
        b = runner.invoke(main, ["simulate", scenario, "--seed", "1"])
        c = runner.invoke(main, ["simulate", scenario, "--seed", "2"])
        assert a.output == b.output
        assert a.output != c.output

    def test_negative_seed_names_the_option(self, runner):
        result = runner.invoke(
            main, ["simulate", "table3_scenario.json", "--seed", "-1"]
        )
        assert result.exit_code == 2
        assert "'--seed'" in result.stderr

    def test_emit_series_repeated(self, runner, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "true_value": 15.0,
                "sources": [{"name": "cycle", "kind": "cycle", "amplitude_mm": 5.0}],
                "schedule": {
                    "repeats": 4,
                    "generator": "constant",
                    "conditions": {"distance": 15.0},
                },
            },
        )
        out = tmp_path / "run.csv"
        result = runner.invoke(
            main, ["simulate", scenario, "--emit-series", str(out)]
        )
        assert result.exit_code == 0
        series = dataset.load_series(out)
        assert len(series) == 4
        assert series.condition_unit == "m"

    def test_emit_series_differential(self, runner, tmp_path):
        out = tmp_path / "pairs.csv"
        result = runner.invoke(
            main,
            ["simulate", "table3_scenario.json", "--emit-series", str(out)],
        )
        assert result.exit_code == 0
        rows = dataset.load_differential(out)
        assert tuple(rows.columns.s2.tolist()) == ref.TABLE3_S2
        assert tuple(rows.columns.s1.tolist()) == ref.TABLE3_S1

    def test_schema_violation_reports_a_json_pointer(self, runner, tmp_path):
        scenario = write_scenario(
            tmp_path,
            {
                "sources": [{"name": "x", "kind": "not-a-kind"}],
                "differential": {"pairs": [[10.0, 18.0]]},
            },
        )
        result = runner.invoke(main, ["simulate", scenario])
        assert result.exit_code == 2
        assert "at /sources/0/kind" in result.stderr

    @pytest.mark.parametrize("bad", MALFORMED_PAIRS.values(), ids=MALFORMED_PAIRS)
    def test_malformed_pair_is_an_input_error(self, runner, tmp_path, bad):
        p = tmp_path / "scenario.json"
        p.write_text(differential_scenario_text(["[10.0, 18.0]", bad]))
        result = runner.invoke(main, ["simulate", str(p)])
        assert result.exit_code == 2
        assert "at /differential/pairs/1" in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_past_int_digit_limit_is_located(self, runner, tmp_path, sign):
        # int() refuses a 5000-digit string; the token is still located.
        p = tmp_path / "scenario.json"
        p.write_text(differential_scenario_text(["[10.0, 18.0]", f"[10, {sign}{'9' * 5000}]"]))
        result = runner.invoke(main, ["simulate", str(p)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == (f"error: scenario.json: at /differential/pairs/1/1: "
                                 f"{(sign + '9' * 21)[:21]}... is not a finite number\n")
        assert result.stdout == ""

    def test_json_report(self, runner):
        result = runner.invoke(
            main, ["simulate", "table3_scenario.json", "--json"]
        )
        report = json.loads(result.output)
        assert report["results"]["mode"] == "differential"
        assert report["results"]["n"] == 15


class TestPropagate:
    def test_bundled_budget(self, runner):
        result = runner.invoke(main, ["propagate", "budget_example.json"])
        assert result.exit_code == 0
        assert "total std 3.873 mm" in result.output

    def test_monte_carlo_estimate(self, runner):
        result = runner.invoke(
            main,
            [
                "propagate", "budget_example.json",
                "--monte-carlo", "100000", "--seed", "123",
            ],
        )
        assert result.exit_code == 0
        assert "monte-carlo std 3.8" in result.output
        assert "relative discrepancy" in result.output

    def test_json_report(self, runner):
        result = runner.invoke(
            main,
            [
                "propagate", "budget_example.json", "--json",
                "--monte-carlo", "10000",
            ],
        )
        report = json.loads(result.output)
        assert report["results"]["total_std_mm"] == pytest.approx(3.873, abs=1e-3)
        assert "monte_carlo_std_mm" in report["results"]
        assert len(report["results"]["components"]) == 4

    def test_empty_budget_warns(self, runner, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps({"components": []}))
        result = runner.invoke(main, ["propagate", str(p)])
        assert result.exit_code == 0
        assert "total std 0 mm" in result.output
        assert "warning: empty budget" in result.stderr

    def test_unresolvable_component_is_an_input_error(self, runner, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps(
                {
                    "operating_point_m": 1000.0,
                    "components": [
                        {
                            "name": "scale",
                            "std": 2.0,
                            "unit": "ppm",
                            "sensitivity": "constant",
                        }
                    ],
                }
            )
        )
        result = runner.invoke(main, ["propagate", str(p)])
        assert result.exit_code == 2
        assert "'scale'" in result.stderr

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_huge_integer_operating_point_is_located(self, runner, tmp_path, digits):
        # 5000 digits is past int()'s limit; the message is the same.
        p = tmp_path / "budget.json"
        p.write_text('{"operating_point_m": %s, "components": '
                     '[{"name": "x", "std": 1.0, "unit": "ppm"}]}' % ("9" * digits))
        result = runner.invoke(main, ["propagate", str(p)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == ("error: budget.json: at /operating_point_m: "
                                 "999999999999999999999... is not a finite number\n")
        assert result.stdout == ""

    def test_shadowed_nonfinite_key_is_not_the_token_reported(self, runner, tmp_path):
        # The first 1e999 is overwritten by the duplicate key; the value
        # left in the document is the std's -1E999.
        p = tmp_path / "budget.json"
        p.write_text('{"operating_point_m": 1e999, "operating_point_m": 1000.0, "components": '
                     '[{"name": "x", "std": -1E999, "unit": "mm"}]}')
        result = runner.invoke(main, ["propagate", str(p)])
        assert result.exit_code == 2
        assert result.stderr == ("error: budget.json: at /components/0/std: "
                                 "-1E999 is not a finite number\n")
        assert result.stdout == ""

    def test_nonfinite_std_is_an_input_error(self, runner, tmp_path):
        p = tmp_path / "budget.json"
        p.write_text('{"components": [{"name": "x", "std": NaN, "unit": "mm"}]}')
        result = runner.invoke(main, ["propagate", str(p)])
        assert result.exit_code == 2
        assert "at /components/0/std" in result.stderr
        assert "nan" not in result.stdout.lower()

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_monte_carlo_of_a_huge_finite_budget(self, runner, tmp_path, extra):
        p = tmp_path / "budget.json"
        p.write_text(json.dumps(
            {"components": [{"name": "big", "std": 5e153, "unit": "mm"}]}))
        result = runner.invoke(
            main, ["propagate", str(p), "--monte-carlo", "10000", *extra]
        )
        assert result.exit_code == 0, result.output
        if extra:
            results = json.loads(result.output)["results"]
            total, estimate = results["total_std_mm"], results["monte_carlo_std_mm"]
        else:
            total = float(re.search(r"total std (\S+) mm", result.output)[1])
            estimate = float(re.search(r"monte-carlo std (\S+) mm", result.output)[1])
        assert total == 5e153
        assert math.isfinite(estimate)
        assert estimate == pytest.approx(total, rel=0.01)

    def test_small_monte_carlo_rejected(self, runner):
        result = runner.invoke(
            main, ["propagate", "budget_example.json", "--monte-carlo", "100"]
        )
        assert result.exit_code == 2
        assert "10^4" in result.stderr

    def test_huge_monte_carlo_rejected(self, runner):
        draws = "10000000000000000000000"
        result = runner.invoke(
            main, ["propagate", "budget_example.json", "--monte-carlo", draws]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "10^9" in result.stderr
        assert draws in result.stderr

    def test_negative_seed_names_the_option(self, runner):
        result = runner.invoke(
            main, ["propagate", "budget_example.json", "--seed", "-1"]
        )
        assert result.exit_code == 2
        assert "'--seed'" in result.stderr


class TestInputDigest:
    """``input_digest`` is the SHA-256 of the file the command resolved."""

    @pytest.mark.parametrize("args", [
        ["random-model", "table1.csv"],
        ["fit", "table2.csv", "--model", "cycle"],
        # --regen-table3 also reads table3.csv; the scenario is the input.
        ["simulate", "table3_scenario.json", "--regen-table3"],
        ["propagate", "budget_example.json"],
    ], ids=lambda args: args[0])
    def test_digest_of_the_resolved_input(self, runner, args):
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        want = hashlib.sha256(dataset.bundled_path(args[1]).read_bytes()).hexdigest()
        assert report["command"] == args[0]
        assert report["input_digest"] == want

    def test_digest_of_a_data_dir_input(self, runner, tmp_path):
        src = dataset.bundled_path("table1.csv")
        (tmp_path / "sweep.csv").write_bytes(src.read_bytes() + b"99,5.00005\n")
        result = runner.invoke(
            main, ["random-model", "sweep.csv", "--data-dir", str(tmp_path), "--json"]
        )
        report = json.loads(result.output)
        want = hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
        assert report["input_digest"] == want


class TestFreshInterpreter:
    """Each command imports what it runs. In a fresh interpreter, where
    nothing else has loaded linsolve or numpy, the exit-3 mapping still
    holds and an overflow prints its error line and no RuntimeWarning."""

    def test_a_degenerate_fit_exits_3(self, tmp_path):
        p = tmp_path / "collinear.csv"
        p.write_text("# units: m\ns2,s1\n10,18\n30,38\n50,58\n70,78\n")
        assert cli_run("fit", str(p), "--model", "cycle-diff")[:2] == (
            3, "error: singular system: no usable pivot at elimination step 1 "
            "(degenerate distance layout; legs must sample diverse phases)\n")

    @pytest.mark.parametrize("argv, text, code, message", [
        (["random-model"], "# units: m\ncondition,observed\n1,1e308\n2,1.5e308\n",
         3, "result /mean is inf: the computation left the range of double precision"),
        (["fit", "--model", "cycle"],
         dataset.bundled_path("table2.csv").read_text().replace(
             "6.0232,6.0232,6.0237", "6.0232,1e300,1.005e300"),
         3, "result /residual_std is inf: the computation left the range of double "
            "precision"),
        (["simulate"], json.dumps({
            "true_value": 5.0,
            "sources": [{"name": n, "kind": "additive-constant", "c_mm": 1e308}
                        for n in "ab"],
            "schedule": {"repeats": 2, "generator": "constant",
                         "conditions": {"distance": 5.0}}}),
         2, "source 'b': row 1: sum of contributions must be finite, got inf"),
        (["simulate"], json.dumps({
            "sources": [{"name": "cycle", "kind": "cycle", "amplitude_mm": 1.0}]
            + [{"name": n, "kind": "additive-constant", "c_mm": 1.5e308} for n in "ab"],
            "differential": {"pairs": [[10.0, 18.0], [12.0, 21.0]]}}),
         2, "source 'b': row 1: sum of contributions must be finite, got inf"),
        # The arcsine draws overflow to inf and nan before the total is refused.
        (["propagate", "--monte-carlo", "10000"], json.dumps({"components": [
            {"name": "a", "std": 1.5e308, "unit": "mm", "shape": "arcsine"}]}),
         3, "result /total_std_mm is inf: the computation left the range of double "
            "precision"),
    ], ids=["random-model", "fit", "simulate", "simulate-differential", "propagate"])
    def test_an_overflow_prints_only_its_error_line(self, tmp_path, argv, text, code,
                                                     message):
        p = tmp_path / "input"
        p.write_text(text)
        assert cli_run(argv[0], str(p), *argv[1:])[:2] == (code, f"error: {message}\n")
