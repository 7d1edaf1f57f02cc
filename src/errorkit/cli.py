"""Command line front end.

Four batch commands tie the library together: ``random-model``
(series statistics), ``fit`` (least-squares error models), ``simulate``
(scenario runs and effect classification), and ``propagate`` (error
budget synthesis). Every command is deterministic given its inputs,
flags, and seed; reports embed a digest of the input file so reruns
are verifiable. Exit codes are stable: 0 success, 2 input or
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import budget as budget_mod
from . import dataset
from . import regression
from . import simulate as simulate_mod
from .linsolve import SingularSystemError

EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


@dataclass
class RunReport:
    """What a command did: echo, input digest, results, warnings."""

    command: str
    input_digest: str
    results: dict
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "input_digest": self.input_digest,
            "results": self.results,
            "warnings": list(self.warnings),
        }


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _resolve_input(name: str, data_dir: str | None) -> Path:
    """A literal path if it exists, else a lookup in the data directory
    (bundled fixtures by default)."""
    p = Path(name)
    if p.is_file():
        return p
    candidate = (
        Path(data_dir) / name if data_dir else Path(dataset.bundled_path(name))
    )
    if candidate.is_file():
        return candidate
    click.echo(f"error: no such input: {name}", err=True)
    sys.exit(EXIT_INPUT_ERROR)


def _schema_violation():
    """jsonschema's ValidationError once a loader has imported jsonschema,
    else no exception type: commands that never validate skip the import."""
    jsonschema = sys.modules.get("jsonschema")
    return jsonschema.ValidationError if jsonschema is not None else ()


@contextmanager
def _exit_on_failure():
    """Map library exceptions onto the stable exit-code contract."""
    try:
        yield
    except SingularSystemError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL_ERROR)
    except _schema_violation() as exc:
        pointer = "/" + "/".join(str(part) for part in exc.absolute_path)
        click.echo(f"error: at {pointer}: {exc.message}", err=True)
        sys.exit(EXIT_INPUT_ERROR)
    except (
        dataset.DatasetError,
        budget_mod.BudgetError,
        simulate_mod.ScenarioError,
        simulate_mod.ConfigurationError,
        regression.InsufficientDataError,
        json.JSONDecodeError,
        ValueError,
        OSError,
    ) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)


def _emit(report: RunReport, as_json: bool, lines: list[str]):
    if as_json:
        click.echo(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return
    for line in lines:
        click.echo(line)
    for warning in report.warnings:
        click.echo(f"warning: {warning}", err=True)


_data_dir_option = click.option(
    "--data-dir",
    type=click.Path(file_okay=False),
    default=None,
    help="Directory for input lookup when the argument is not a literal "
    "path (default: the bundled fixtures).",
)
_json_option = click.option(
    "--json", "as_json", is_flag=True, help="Emit the full report as JSON."
)


@click.group()
@click.version_option(package_name="errorkit")
def main():
    """Measurement error models: statistics, fits, simulation, budgets."""


@main.command("random-model")
@click.argument("input_csv")
@click.option(
    "--column",
    type=click.Choice(["observed", "diff"]),
    default="observed",
    show_default=True,
    help="Summarize the observed column, or the per-row leg difference "
    "of a differential file.",
)
@_data_dir_option
@_json_option
def cmd_random_model(input_csv, column, data_dir, as_json):
    """Mean, spread, and relative spread of repeated observations."""
    with _exit_on_failure():
        path = _resolve_input(input_csv, data_dir)
        if column == "diff":
            rows = dataset.load_differential(path)
            values = dataset.differences(rows)
            unit = "m"
        else:
            series = dataset.load_series(path)
            values = series.observed
            unit = series.value_unit or ""
        estimate = regression.random_model(values)
        relative = estimate.relative_std_ppm
        results = {
            "n": estimate.n,
            "mean": estimate.mean,
            "std": estimate.std,
            "relative_std_ppm": relative,
            "unit": unit,
        }
        report = RunReport("random-model", _digest(path), results)
        if relative is None:
            report.warnings.append("relative std is undefined: the mean is 0")
        _emit(
            report,
            as_json,
            [
                f"n        {estimate.n}",
                f"mean     {estimate.mean:.6f} {unit}".rstrip(),
                f"std      {estimate.std:.6g} {unit}".rstrip(),
                "rel. std undefined (mean is 0)" if relative is None
                else f"rel. std {relative:.1f} ppm",
            ],
        )


def _rounded_ppm(samples):
    return [
        dataset.ErrorSample(condition=s.condition, error=float(round(s.error)))
        for s in samples
    ]


def _write_plot_series(path, header_units, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# units: {header_units}\n")
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows(rows[1:])


@main.command("fit")
@click.argument("input_csv")
@click.option(
    "--model",
    "model_name",
    type=click.Choice(["poly3", "cycle", "cycle-diff"]),
    required=True,
    help="poly3: cubic relative-error fit against the condition. "
    "cycle: sinusoidal error fit at the stated wavelength. "
    "cycle-diff: sinusoid plus base distance from two-leg differences.",
)
@click.option("--wavelength", type=float, default=20.0, show_default=True)
@click.option(
    "--emit-series",
    "emit_series",
    type=click.Path(dir_okay=False),
    default=None,
    help="Write a plottable CSV (data points with fitted values and "
    "residuals; for cycle-diff, one fitted wavelength).",
)
@click.option(
    "--emit-matrix",
    is_flag=True,
    help="Also print the assembled normal equations.",
)
@click.option(
    "--raw-errors",
    is_flag=True,
    help="poly3: keep fractional ppm errors instead of rounding them to "
    "whole ppm before fitting.",
)
@_data_dir_option
@_json_option
def cmd_fit(input_csv, model_name, wavelength, emit_series, emit_matrix,
            raw_errors, data_dir, as_json):
    """Fit an error model to a series and report its coefficients."""
    with _exit_on_failure():
        path = _resolve_input(input_csv, data_dir)
        lines = []
        if model_name == "poly3":
            series = dataset.load_series(path)
            samples = dataset.to_error_samples(series, "mean-reference")
            if not raw_errors:
                samples = _rounded_ppm(samples)
            model = regression.fit_polynomial(samples, degree=3)
            report_body = regression.to_report(model)
            names = "abcd"
            for name, value in zip(names, model.coeffs):
                lines.append(f"{name} {value:+.6f}")
            lines.append(f"residual std {model.residual_std:.6g} ppm")
            lines.append(f"dof {model.dof}")
            if emit_series:
                rows = [("condition", "observed", "fitted", "residual")]
                for s in samples:
                    fitted = model(s.condition)
                    rows.append(
                        (
                            "%g" % s.condition,
                            "%g" % s.error,
                            "%.6f" % fitted,
                            "%.6f" % (s.error - fitted),
                        )
                    )
                _write_plot_series(
                    emit_series,
                    f"condition={series.condition_unit} observed=ppm",
                    rows,
                )
        elif model_name == "cycle":
            series = dataset.load_series(path)
            samples = dataset.to_error_samples(series, "explicit-reference")
            model = regression.fit_cycle_direct(samples, wavelength)
            report_body = regression.to_report(model)
            lines.append(f"amplitude {model.amplitude:.4f} {model.amplitude_unit}")
            lines.append(f"phase     {math.degrees(model.phase):.2f} deg")
            lines.append(
                f"residual std {model.residual_std:.4g} {model.amplitude_unit}"
            )
            lines.append(f"dof {model.dof}")
            if emit_series:
                rows = [("condition", "observed", "fitted", "residual")]
                for s in samples:
                    fitted = model(s.condition)
                    rows.append(
                        (
                            "%.4f" % s.condition,
                            "%g" % s.error,
                            "%.6f" % fitted,
                            "%.6f" % (s.error - fitted),
                        )
                    )
                _write_plot_series(
                    emit_series,
                    f"condition={series.condition_unit} observed=mm",
                    rows,
                )
        else:
            rows_in = dataset.load_differential(path)
            model = regression.fit_cycle_differential(rows_in, wavelength)
            report_body = regression.to_report(model)
            lines.append(f"base distance {model.offset_s0:.5f} m")
            lines.append(f"amplitude {model.amplitude:.6f} {model.amplitude_unit}")
            lines.append(f"phase     {math.degrees(model.phase):.2f} deg")
            lines.append(
                f"residual std {model.residual_std:.4g} {model.amplitude_unit}"
            )
            lines.append(f"dof {model.dof}")
            if emit_series:
                rows = [("condition", "fitted")]
                for s in np.arange(0.0, wavelength, wavelength / 200.0):
                    rows.append(
                        ("%.2f" % s, "%.6f" % regression.evaluate_sinusoid(model, s))
                    )
                _write_plot_series(emit_series, "condition=m fitted=m", rows)
        if emit_matrix:
            lines.append("normal matrix:")
            for row in report_body["normal_matrix"]:
                lines.append("  " + "  ".join("%.10g" % v for v in row))
            lines.append(
                "rhs: " + "  ".join("%.10g" % v for v in report_body["rhs"])
            )
        report = RunReport("fit", _digest(path), report_body)
        _emit(report, as_json, lines)


@main.command("simulate")
@click.argument("scenario_json")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for noise-source substreams.")
@click.option(
    "--emit-series",
    "emit_series",
    type=click.Path(dir_okay=False),
    default=None,
    help="Write the generated series (or differential table) as CSV.",
)
@click.option(
    "--classify",
    "do_classify",
    is_flag=True,
    help="Append the per-source effect classification.",
)
@click.option(
    "--regen-table3",
    is_flag=True,
    help="Compare the regenerated differential readings against the "
    "bundled two-leg fixture, value by value.",
)
@click.option(
    "--eps-abs",
    type=float,
    default=None,
    help="Classification threshold in mm (required when the scenario "
    "has gaussian noise and sets no eps_abs_mm).",
)
@_data_dir_option
@_json_option
def cmd_simulate(scenario_json, seed, emit_series, do_classify, regen_table3,
                 eps_abs, data_dir, as_json):
    """Run a scenario file and summarize the generated readings."""
    with _exit_on_failure():
        path = _resolve_input(scenario_json, data_dir)
        scenario = simulate_mod.load_scenario(path)
        lines: list[str] = []
        if scenario.is_differential:
            run = simulate_mod.simulate_differential(
                scenario.sources[0],
                scenario.differential_pairs,
                scenario.sources[1:],
                round_readings=scenario.round_readings,
                noise_seed=seed,
            )
            contributions = run.diff_contributions
            diffs = np.array([r.difference for r in run.rows])
            results = {
                "mode": "differential",
                "n": len(run.rows),
                "mean_difference_m": float(diffs.mean()),
                "std_difference_m": float(diffs.std(ddof=1)) if len(diffs) > 1 else 0.0,
            }
            lines.append(f"n pairs  {len(run.rows)}")
            lines.append(f"mean s1-s2 {diffs.mean():.6f} m")
            lines.append(f"std  s1-s2 {results['std_difference_m']:.6g} m")
            if emit_series:
                dataset.write_differential_csv(
                    scenario.differential_pairs, run.rows, emit_series
                )
            if regen_table3:
                fixture = dataset.load_differential(
                    _resolve_input("table3.csv", data_dir)
                )
                total = 2 * len(fixture)
                matches = sum(
                    ("%.4f" % got.s2 == "%.4f" % want.s2)
                    + ("%.4f" % got.s1 == "%.4f" % want.s1)
                    for got, want in zip(run.rows, fixture)
                )
                results["regen_matches"] = matches
                results["regen_total"] = total
                lines.append(f"{matches}/{total} values match")
        else:
            if regen_table3:
                raise simulate_mod.ScenarioError(
                    "--regen-table3 needs a differential scenario"
                )
            run = simulate_mod.simulate_repeated(
                scenario.sources,
                scenario.schedule,
                scenario.true_value,
                noise_seed=seed,
                label=scenario.label,
            )
            contributions = run.contributions
            observed = np.asarray(run.series.observed)
            results = {
                "mode": "repeated",
                "n": len(run.series),
                "mean_m": float(observed.mean()),
                "std_m": float(observed.std(ddof=1)) if len(observed) > 1 else 0.0,
            }
            lines.append(f"n        {len(run.series)}")
            lines.append(f"mean     {observed.mean():.6f} m")
            lines.append(f"std      {results['std_m']:.6g} m")
            if emit_series:
                dataset.write_series_csv(run.series, emit_series)
        if do_classify:
            eps = eps_abs if eps_abs is not None else scenario.eps_abs_mm
            if eps is None:
                if scenario.has_noise:
                    raise simulate_mod.ScenarioError(
                        "the scenario has gaussian noise; set --eps-abs (or "
                        "eps_abs_mm in the file) to classify it"
                    )
                eps = simulate_mod.DEFAULT_EPS_ABS_MM
            effect_report = simulate_mod.classify_effects(contributions, eps)
            results["eps_abs_mm"] = eps
            results["effects"] = {
                e.name: {
                    "classification": e.classification,
                    "mean_mm": e.mean,
                    "std_mm": e.std,
                    "max_abs_mm": e.max_abs,
                }
                for e in effect_report.effects
            }
            for e in effect_report.effects:
                lines.append(
                    f"{e.name}: {e.classification} "
                    f"(mean {e.mean:.6g} mm, std {e.std:.6g} mm)"
                )
        report = RunReport("simulate", _digest(path), results)
        _emit(report, as_json, lines)


@main.command("propagate")
@click.argument("budget_json")
@click.option(
    "--monte-carlo",
    "mc_draws",
    type=int,
    default=None,
    help="Also estimate the total by sampling this many draws.",
)
@click.option("--seed", type=int, default=0, show_default=True)
@_data_dir_option
@_json_option
def cmd_propagate(budget_json, mc_draws, seed, data_dir, as_json):
    """Combine an error budget into a total standard deviation."""
    with _exit_on_failure():
        path = _resolve_input(budget_json, data_dir)
        budget = budget_mod.load_budget(path)
        warnings: list[str] = []
        if not budget.components:
            total = 0.0
            warnings.append("empty budget")
        else:
            total = budget_mod.total_std(budget)
        results = {
            "total_std_mm": total,
            "components": [
                {
                    "name": c.name,
                    "std": c.std,
                    "unit": c.unit,
                    "sensitivity": c.sensitivity,
                    "shape": c.shape,
                }
                for c in budget.components
            ],
        }
        lines = [f"total std {total:.4g} mm"]
        if mc_draws is not None:
            mc = budget_mod.monte_carlo_std(budget, mc_draws, seed)
            results["monte_carlo_std_mm"] = mc
            line = f"monte-carlo std {mc:.4g} mm"
            if total > 0:
                discrepancy = abs(mc - total) / total
                results["relative_discrepancy"] = discrepancy
                line += f" (relative discrepancy {discrepancy:.3%})"
            lines.append(line)
        report = RunReport("propagate", _digest(path), results, warnings)
        _emit(report, as_json, lines)


if __name__ == "__main__":
    main()
