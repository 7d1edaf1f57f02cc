"""Command line front end.

Four batch commands tie the library together: ``random-model``
(series statistics), ``fit`` (least-squares error models), ``simulate``
(scenario runs and effect classification), and ``propagate`` (error
budget synthesis). Every command is deterministic given its inputs,
flags, and seed; reports embed a digest of the input file so reruns
are verifiable. Exit codes are stable: 0 success, 2 input or
configuration error, 3 numerical failure. Each command imports what
it runs, so ``--version``, a closed-form ``propagate``, a missing input
and a scenario that ``simulate`` refuses at its schema, source or mode
checks load no numpy.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import SingularSystemError, __version__
from ._jsonfile import bundled_path, first_nonfinite

EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


def _digest(path: Path) -> str:
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def _resolve_input(name: str, data_dir: str | None) -> Path:
    """A literal path if it exists, else a lookup in the data directory
    (bundled fixtures by default)."""
    p = Path(name)
    if p.is_file():
        return p
    candidate = Path(data_dir) / name if data_dir else bundled_path(name)
    if candidate.is_file():
        return candidate
    click.echo(f"error: no such input: {name}", err=True)
    sys.exit(EXIT_INPUT_ERROR)


@contextmanager
def _exit_on_failure():
    """Map library exceptions onto the stable exit-code contract."""
    try:
        yield
    except (SingularSystemError, OverflowError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL_ERROR)
    except MemoryError as exc:
        click.echo(f"error: out of memory: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL_ERROR)
    except (ValueError, OSError) as exc:  # every library input error is a ValueError
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INPUT_ERROR)


def _quiet_numpy():
    """numpy's warnings off for numpy work: :func:`_emit` refuses non-finite results."""
    import numpy as np

    return np.errstate(all="ignore")


def _distinct_decimals(grid: list[float]) -> int:
    """The fewest decimals, at least two, at which the values of an
    increasing grid print as distinct; two if none do (a step of 0)."""
    if grid[0] == grid[1]:
        return 2
    decimals = 2
    while len({"%.*f" % (decimals, v) for v in grid}) < len(grid):
        decimals += 1
    return decimals


def _emit(command: str, path: Path, results: dict, as_json: bool,
          lines: list[str], warnings=(), write=None):
    """Refuse, write, print: exit 3 naming the first result that is not
    finite; else call ``write``, the ``--emit-series`` writer, if given;
    then print the lines and warnings, or the ``--json`` report. So a
    refused run writes no file and prints nothing on stdout."""
    found = first_nonfinite(results)
    if found is not None:
        click.echo(
            f"error: result {found[0]} is {found[1]}: the computation left "
            "the range of double precision",
            err=True,
        )
        sys.exit(EXIT_NUMERICAL_ERROR)
    if write is not None:
        write()
    if as_json:
        report = {"command": command, "input_digest": _digest(path),
                  "results": results, "warnings": list(warnings)}
        click.echo(json.dumps(report, indent=2, sort_keys=True))
        return
    for line in lines:
        click.echo(line)
    for warning in warnings:
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
@click.version_option(version=__version__)
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
    from . import dataset, regression

    with _exit_on_failure(), _quiet_numpy():
        if column == "diff":
            columns = dataset.load_differential(path).columns
            values = columns.s1 - columns.s2
            unit = "m"
        else:
            series = dataset.load_series(path)
            values = series.columns.observed
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
        _emit("random-model", path, results, as_json, [
            f"n        {estimate.n}",
            f"mean     {estimate.mean:.6f} {unit}".rstrip(),
            f"std      {estimate.std:.6g} {unit}".rstrip(),
            "rel. std undefined (mean is 0)" if relative is None
            else f"rel. std {relative:.1f} ppm",
        ], ["relative std is undefined: the mean is 0"] if relative is None else ())


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
    import numpy as np

    from . import dataset, regression

    with _exit_on_failure(), _quiet_numpy():
        lines = []
        if model_name == "poly3":
            series = dataset.load_series(path)
            samples = dataset.to_error_samples(series, "mean-reference")
            if not raw_errors:  # whole ppm; + 0.0 writes -0.0 as 0
                cond, err = samples.columns
                samples = dataset.ErrorSamples(cond, np.round(err) + 0.0)
            model = regression.fit_polynomial(samples, degree=3)
            for name, value in zip("abcd", model.coeffs):
                lines.append(f"{name} {value:+.6f}")
            lines.append(f"residual std {model.residual_std:.6g} ppm")
            write = functools.partial(dataset.write_fit_points, emit_series, series,
                                      samples, model, "%g", "ppm")
        elif model_name == "cycle":
            series = dataset.load_series(path)
            samples = dataset.to_error_samples(series, "explicit-reference")
            model = regression.fit_cycle_direct(samples, wavelength)
            lines.append(f"amplitude {model.amplitude:.4f} {model.amplitude_unit}")
            lines.append(f"phase     {math.degrees(model.phase):.2f} deg")
            lines.append(
                f"residual std {model.residual_std:.4g} {model.amplitude_unit}"
            )
            write = functools.partial(dataset.write_fit_points, emit_series, series,
                                      samples, model, "%.4f", "mm")
        else:
            rows_in = dataset.load_differential(path)
            model = regression.fit_cycle_differential(rows_in, wavelength)
            lines.append(f"base distance {model.offset_s0:.5f} m")
            lines.append(f"amplitude {model.amplitude:.6f} {model.amplitude_unit}")
            lines.append(f"phase     {math.degrees(model.phase):.2f} deg")
            lines.append(
                f"residual std {model.residual_std:.4g} {model.amplitude_unit}"
            )

            def write():
                grid = np.arange(200) * (wavelength / 200.0)
                dataset.write_table(
                    emit_series, "condition=m fitted=m", "condition,fitted",
                    [f"%.{_distinct_decimals(grid.tolist())}f", "%.6f"],
                    len(grid), lambda s: [grid[s], model(grid[s])],
                )
        report_body = regression.to_report(model)
        lines.append(f"dof {model.dof}")
        if emit_matrix:
            lines.append("normal matrix:")
            for row in report_body["normal_matrix"]:
                lines.append("  " + "  ".join("%.10g" % v for v in row))
            lines.append(
                "rhs: " + "  ".join("%.10g" % v for v in report_body["rhs"])
            )
        _emit("fit", path, report_body, as_json, lines, write=write if emit_series else None)


@main.command("simulate")
@click.argument("scenario_json")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
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
    from . import simulate as simulate_mod

    # The loader needs no numpy until the file passes its own checks.
    with _exit_on_failure():
        path = _resolve_input(scenario_json, data_dir)
        scenario = simulate_mod.load_scenario(path)
    from . import dataset

    with _exit_on_failure(), _quiet_numpy():
        lines: list[str] = []
        if scenario.is_differential:
            if regen_table3:
                fixture = dataset.load_differential(
                    _resolve_input("table3.csv", data_dir)
                )
                pairs = len(scenario.differential_pairs)
                if pairs != len(fixture):
                    raise simulate_mod.ScenarioError(
                        f"--regen-table3 compares pair by pair: the scenario has "
                        f"{pairs} pairs, table3.csv has {len(fixture)}"
                    )
            run = simulate_mod.simulate_differential(
                scenario.sources[0],
                scenario.differential_pairs,
                scenario.sources[1:],
                round_readings=scenario.round_readings,
                noise_seed=seed,
            )
            write = functools.partial(dataset.write_differential_csv,
                                      scenario.differential_pairs, run.rows, emit_series)
            contributions = run.diff_contributions
            diffs = run.rows.columns.s1 - run.rows.columns.s2
            results = {
                "mode": "differential",
                "n": len(run.rows),
                "mean_difference_m": float(diffs.mean()),
                "std_difference_m": float(diffs.std(ddof=1)) if len(diffs) > 1 else 0.0,
            }
            lines.append(f"n pairs  {len(run.rows)}")
            lines.append(f"mean s1-s2 {diffs.mean():.6f} m")
            lines.append(f"std  s1-s2 {results['std_difference_m']:.6g} m")
            if regen_table3:
                total = 2 * len(fixture)
                matches = sum(
                    "%.4f" % got == "%.4f" % want
                    for got_leg, want_leg in zip(run.rows.columns, fixture.columns)
                    for got, want in zip(got_leg.tolist(), want_leg.tolist())
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
            write = functools.partial(dataset.write_series_csv, run.series, emit_series)
            contributions = run.contributions
            observed = run.series.columns.observed
            results = {
                "mode": "repeated",
                "n": len(run.series),
                "mean_m": float(observed.mean()),
                "std_m": float(observed.std(ddof=1)) if len(observed) > 1 else 0.0,
            }
            lines.append(f"n        {len(run.series)}")
            lines.append(f"mean     {observed.mean():.6f} m")
            lines.append(f"std      {results['std_m']:.6g} m")
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
        _emit("simulate", path, results, as_json, lines,
              write=write if emit_series else None)


@main.command("propagate")
@click.argument("budget_json")
@click.option(
    "--monte-carlo",
    "mc_draws",
    type=int,
    default=None,
    help="Also estimate the total by sampling this many draws.",
)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@_data_dir_option
@_json_option
def cmd_propagate(budget_json, mc_draws, seed, data_dir, as_json):
    """Combine an error budget into a total standard deviation."""
    from . import budget as budget_mod

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
            with _quiet_numpy():
                mc = budget_mod.monte_carlo_std(budget, mc_draws, seed)
            results["monte_carlo_std_mm"] = mc
            line = f"monte-carlo std {mc:.4g} mm"
            if total > 0:
                discrepancy = abs(mc - total) / total
                results["relative_discrepancy"] = discrepancy
                line += f" (relative discrepancy {discrepancy:.3%})"
            lines.append(line)
        _emit("propagate", path, results, as_json, lines, warnings)


if __name__ == "__main__":
    main()
