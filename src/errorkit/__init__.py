"""Error models for repeated measurements.

The toolkit covers the full path from raw observation series to an
uncertainty statement: series statistics and least-squares error
models (``regression`` on top of ``linsolve``), the arcsine law obeyed
by bounded periodic errors (``distributions``), schedule-driven effect
simulation and classification (``simulate``), and covariance-law
budget synthesis (``budget``). ``dataset`` handles the CSV and JSON
formats and ships the bundled example tables; ``cli`` exposes the
whole chain as batch commands.

Importing the package loads none of these modules: each public name
imports the module that owns it on first use (PEP 562).
:class:`SingularSystemError`, which ``linsolve`` raises and re-exports,
is defined here, so the command line maps it to its exit code without
loading numpy.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it owns, in ``__all__`` order.
_EXPORTS = {
    "dataset": (
        "DatasetError", "EmptyInputError", "MalformedRowError",
        "MeasurementSeries", "bundled_path", "load_differential",
        "load_differential_pairs", "load_series", "to_error_samples",
        "write_differential_csv", "write_series_csv",
    ),
    "linsolve": ("NormalEquations", "SingularSystemError", "solve"),
    "regression": (
        "InsufficientDataError", "PolynomialErrorModel", "RandomModelEstimate",
        "SinusoidalErrorModel", "fit_cycle_differential", "fit_cycle_direct",
        "fit_polynomial", "random_model", "to_report",
    ),
    "distributions": ("ArcsineDistribution", "pdf", "cdf", "std", "sample"),
    "budget": (
        "BudgetComponent", "BudgetError", "ErrorBudget", "UnitResolutionError",
        "load_budget", "monte_carlo_std", "total_std",
    ),
    "simulate": (
        "ConditionSchedule", "ConfigurationError", "DifferentialRun",
        "EffectReport", "ErrorSource", "RepeatedRun", "Scenario",
        "ScenarioError", "SourceEffect", "classify_effects", "load_scenario",
        "simulate_differential", "simulate_repeated",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


class SingularSystemError(Exception):
    """The matrix is singular or numerically rank deficient.

    Attributes:
        pivot_index: elimination step (0-based) where no usable pivot
            remained.
    """

    def __init__(self, pivot_index: int, detail: str = ""):
        self.pivot_index = pivot_index
        message = f"singular system: no usable pivot at elimination step {pivot_index}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
