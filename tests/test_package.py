"""The package root: one export table, lazy submodules, one error base.

The import checks run in a fresh interpreter, so that what other tests
have imported does not leak into what a bare import loads.
"""

import json
import os
import subprocess
import sys

import pytest

import errorkit
from errorkit import dataset, linsolve

# The public names by owning submodule, in the order the package root
# has always listed them.
OWNERS = {
    "dataset": [
        "DatasetError", "EmptyInputError", "MalformedRowError",
        "MeasurementSeries", "bundled_path", "load_differential",
        "load_differential_pairs", "load_series", "to_error_samples",
        "write_differential_csv", "write_series_csv",
    ],
    "linsolve": ["NormalEquations", "SingularSystemError", "solve"],
    "regression": [
        "InsufficientDataError", "PolynomialErrorModel", "RandomModelEstimate",
        "SinusoidalErrorModel", "fit_cycle_differential", "fit_cycle_direct",
        "fit_polynomial", "random_model", "to_report",
    ],
    "distributions": ["ArcsineDistribution", "pdf", "cdf", "std", "sample"],
    "budget": [
        "BudgetComponent", "BudgetError", "ErrorBudget", "UnitResolutionError",
        "load_budget", "monte_carlo_std", "total_std",
    ],
    "simulate": [
        "ConditionSchedule", "ConfigurationError", "DifferentialRun",
        "EffectReport", "ErrorSource", "RepeatedRun", "Scenario",
        "ScenarioError", "SourceEffect", "classify_effects", "load_scenario",
        "simulate_differential", "simulate_repeated",
    ],
}
PUBLIC_NAMES = ["__version__", *(n for names in OWNERS.values() for n in names)]


def run_python(code):
    """Standard output of ``code`` run in a fresh interpreter that finds
    this errorkit first."""
    return _run(code).stdout


def fresh_env():
    """The environment of a fresh interpreter that finds this errorkit first."""
    src = os.path.dirname(os.path.dirname(errorkit.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, check=True, env=fresh_env())


def cli_run(*argv):
    """(exit code, stderr, names of the loaded modules) of ``errorkit argv``
    run in a fresh interpreter."""
    done = _run(
        "import sys\n"
        "from errorkit.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as stop:\n"
        "    print(stop.code, *sys.modules)\n",
        *argv,
    )
    code, *modules = done.stdout.splitlines()[-1].split()
    return int(code), done.stderr, set(modules)


def loaded_after(statement):
    """errorkit submodules and jsonschema modules loaded by ``statement``."""
    return set(run_python(
        f"{statement}\n"
        "import sys\n"
        "print(*(m for m in sys.modules\n"
        "        if m.startswith('errorkit.') or m.split('.')[0] == 'jsonschema'))\n"
    ).split())


class TestImports:
    def test_bare_import_loads_no_submodule(self):
        assert loaded_after("import errorkit") == set()

    def test_the_simulator_module_loads_no_numpy(self):
        # The scenario loader runs on the standard library until a file
        # passes its own checks.
        assert run_python(
            "import sys\n"
            "import errorkit.simulate\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if m.startswith('errorkit.') or m.split('.')[0] == 'numpy'))\n"
        ) == "errorkit._jsonfile errorkit.simulate\n"

    def test_the_dataset_module_builds_no_digit_table(self):
        # The cell formatter's module, which builds its digit tables,
        # loads on the first write, so that a command that writes no CSV
        # pays nothing for it.
        assert "errorkit._cellformat" not in loaded_after("import errorkit.dataset")

    def test_cli_imports_only_what_its_start_up_needs(self):
        # Each command imports the modules it runs; _jsonfile imports only
        # the standard library.
        assert loaded_after("import errorkit.cli") == {"errorkit.cli", "errorkit._jsonfile"}

    @pytest.mark.parametrize("argv", [
        ["simulate", "table3_scenario.json", "--regen-table3", "--classify"],
        ["propagate", "budget_example.json"],
    ])
    def test_a_valid_file_does_not_import_jsonschema(self, argv):
        code, stderr, modules = cli_run(*argv)
        assert (code, stderr) == (0, "")
        assert "jsonschema" not in modules

    def test_a_rejected_file_is_worded_without_jsonschema(self, tmp_path):
        scenario = json.loads(dataset.bundled_path("table3_scenario.json").read_text())
        scenario["sources"][0]["wobble_mm"] = 0.1
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        code, stderr, modules = cli_run("simulate", str(path))
        assert (code, stderr) == (
            2,
            "error: at /sources/0: Additional properties are not allowed "
            "('wobble_mm' was unexpected)\n",
        )
        assert "jsonschema" not in modules
        assert "numpy" not in modules

    @pytest.mark.parametrize("argv", [
        ["--version"], ["--help"], ["propagate", "--help"],
        ["propagate", "budget_example.json"],
        ["propagate", "budget_example.json", "--json"],
    ])
    def test_a_run_without_arrays_loads_no_numpy(self, argv):
        code, stderr, modules = cli_run(*argv)
        assert (code, stderr) == (0, "")
        assert "numpy" not in modules
        # Only --json digests the input.
        assert ("hashlib" in modules) == ("--json" in argv)

    @pytest.mark.parametrize("text, message", [
        ('{"components": [}', "budget.json: line 1 column 17: Expecting value"),
        ('{"components": {}}', "at /components: {} is not of type 'array'"),
        ('{"components": [{"name": "a", "std": -1, "unit": "mm"}]}',
         "at /components/0/std: -1 is less than the minimum of 0"),
    ], ids=["syntax", "type", "minimum"])
    def test_a_rejected_budget_loads_no_numpy(self, tmp_path, text, message):
        path = tmp_path / "budget.json"
        path.write_text(text)
        code, stderr, modules = cli_run("propagate", str(path), "--monte-carlo", "10000")
        assert (code, stderr) == (2, f"error: {message}\n")
        assert "numpy" not in modules

    @pytest.mark.parametrize("text, message", [
        ('{"sources": [}', "scenario.json: line 1 column 14: Expecting value"),
        ('{"sources": []}', "at /sources: [] should be non-empty"),
        ('{"true_value": 1e999, "sources": [{"name": "c", "kind": "additive-constant"}], '
         '"schedule": {"repeats": 2, "generator": "constant"}}',
         "scenario.json: at /true_value: 1e999 is not a finite number"),
        ('{"true_value": 5.0, "sources": [{"name": "c", "kind": "additive-constant", '
         '"depends_on": "distance"}], "schedule": {"repeats": 2, "generator": "constant"}}',
         "source 'c': kind 'additive-constant' cannot depend on 'distance'"),
        ('{"sources": [{"name": "c", "kind": "additive-constant"}]}',
         "a scenario must define exactly one of 'schedule' or 'differential'"),
        ('{"true_value": 5.0, "sources": [{"name": "c", "kind": "additive-constant"}], '
         '"schedule": {"repeats": 2, "generator": "constant", '
         '"conditions": {"distance": [1, 2]}}}',
         "constant schedule for 'distance' needs a number, got [1, 2]"),
        ('{"true_value": 5.0, "sources": [{"name": "c", "kind": "additive-constant"}], '
         '"schedule": {"repeats": 2, "generator": "uniform-random", "seed": 1, '
         '"ranges": {"distance": [-1e308, 1e308]}}}',
         "range for 'distance' is wider than the double range: (-1e+308, 1e+308)"),
        ('{"true_value": 5.0, "sources": [{"name": "c", "kind": "additive-constant"}], '
         '"schedule": {"repeats": 2, "generator": "uniform-random", "seed": -1, '
         '"ranges": {"distance": [0, 20]}}}',
         "seed must be >= 0, got -1"),
        ('{"true_value": 5.0, "sources": [{"name": "c", "kind": "additive-constant"}], '
         '"schedule": {"repeats": 1e19, "generator": "uniform-random", "seed": 1, '
         '"ranges": {"distance": [0, 20]}}}',
         "repeats must be <= 1152921504606846975, got 10000000000000000000"),
        ('{"true_value": 5.0, "sources": [{"name": "c", "kind": "additive-constant"}], '
         '"schedule": {"repeats": 9223372036854775807, "generator": "constant", '
         '"conditions": {"distance": 5.0}}}',
         "repeats must be <= 1152921504606846975, got 9223372036854775807"),
    ], ids=["syntax", "schema", "non-finite", "source", "mode", "schedule shape",
            "range width", "negative seed", "float repeats", "repeats"])
    def test_a_rejected_scenario_loads_no_numpy(self, tmp_path, text, message):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, stderr, modules = cli_run("simulate", str(path))
        assert (code, stderr) == (2, f"error: {message}\n")
        assert "numpy" not in modules

    @pytest.mark.parametrize("argv", [
        ["fit", "missing.csv", "--model", "poly3"],
        ["random-model", "missing.csv"],
        ["simulate", "missing.json"],
        ["propagate", "missing.json", "--monte-carlo", "10000"],
    ], ids=["fit", "random-model", "simulate", "propagate"])
    def test_a_missing_input_loads_no_numpy(self, tmp_path, argv):
        argv = [argv[0], str(tmp_path / argv[1]), *argv[2:]]
        code, stderr, modules = cli_run(*argv)
        assert (code, stderr) == (2, f"error: no such input: {argv[1]}\n")
        assert "numpy" not in modules

    def test_a_noise_free_run_loads_no_numpy_random(self):
        code, stderr, modules = cli_run(
            "simulate", "table3_scenario.json", "--regen-table3", "--classify")
        assert (code, stderr) == (0, "")
        assert "numpy" in modules
        # numpy 1.x imports numpy.random with numpy itself; 2.x on first use.
        if run_python("import sys, numpy\nprint('numpy.random' in sys.modules)\n") != "False\n":
            pytest.skip("this numpy loads numpy.random on import")
        assert "numpy.random" not in modules
        assert run_python(
            "import sys\n"
            "from errorkit.dataset import LegPairs\n"
            "from errorkit.simulate import ErrorSource, simulate_differential\n"
            "cycle = ErrorSource(name='cycle', kind='cycle', amplitude_mm=5.0)\n"
            "offset = ErrorSource(name='offset', kind='additive-constant', c_mm=1.0)\n"
            "run = simulate_differential(cycle, LegPairs([10.0, 12.0], [18.0, 21.0]), [offset])\n"
            "print(len(run.rows), 'numpy.random' in sys.modules)\n"
        ) == "2 False\n"

    def test_submodule_attribute_after_a_bare_import(self):
        assert run_python(
            "import errorkit\n"
            "print(errorkit.simulate.load_scenario is errorkit.load_scenario)\n"
        ) == "True\n"


class TestExportTable:
    def test_all_is_the_public_names(self):
        assert errorkit.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("owner", OWNERS)
    def test_each_name_is_its_owners_object(self, owner):
        module = getattr(errorkit, owner)
        for name in OWNERS[owner]:
            assert getattr(errorkit, name) is getattr(module, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from errorkit import *", namespace)
        assert set(PUBLIC_NAMES) <= namespace.keys()
        assert namespace["load_series"] is dataset.load_series
        assert namespace["__version__"] == "0.1.0"

    def test_dir_lists_every_public_name(self):
        assert set(PUBLIC_NAMES) <= set(dir(errorkit))

    # Retired names: a series is its columns, and a campaign's
    # differences are rows.columns.s1 - rows.columns.s2.
    @pytest.mark.parametrize("name", ["nonexistent", "MeasurementRow", "differences"])
    def test_unknown_attribute(self, name):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(errorkit, name)
        assert not hasattr(dataset, name)


class TestErrorBases:
    @pytest.mark.parametrize("name", [
        "DatasetError", "EmptyInputError", "MalformedRowError",
        "InsufficientDataError", "BudgetError", "UnitResolutionError",
        "ScenarioError", "ConfigurationError",
    ])
    def test_input_errors_are_value_errors(self, name):
        assert issubclass(getattr(errorkit, name), ValueError)

    def test_a_singular_system_is_not_an_input_error(self):
        assert not issubclass(linsolve.SingularSystemError, ValueError)
