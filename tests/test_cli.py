import json
import re

import pytest
from click.testing import CliRunner

from errorkit import dataset
from errorkit.cli import main

import reference_values as ref
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

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0


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

    def test_degenerate_layout_is_a_numerical_failure(self, runner, tmp_path):
        p = tmp_path / "collinear.csv"
        p.write_text("# units: m\ns2,s1\n10,18\n30,38\n50,58\n70,78\n")
        result = runner.invoke(main, ["fit", str(p), "--model", "cycle-diff"])
        assert result.exit_code == 3
        assert "degenerate distance layout" in result.stderr

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
        assert tuple(r.s2 for r in rows) == ref.TABLE3_S2
        assert tuple(r.s1 for r in rows) == ref.TABLE3_S1

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

    def test_nonfinite_std_is_an_input_error(self, runner, tmp_path):
        p = tmp_path / "budget.json"
        p.write_text('{"components": [{"name": "x", "std": NaN, "unit": "mm"}]}')
        result = runner.invoke(main, ["propagate", str(p)])
        assert result.exit_code == 2
        assert "at /components/0/std" in result.stderr
        assert "nan" not in result.stdout.lower()

    def test_small_monte_carlo_rejected(self, runner):
        result = runner.invoke(
            main, ["propagate", "budget_example.json", "--monte-carlo", "100"]
        )
        assert result.exit_code == 2
        assert "10^4" in result.stderr
