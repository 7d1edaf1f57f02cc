"""Acceptance gate: one test per criterion, tolerances pinned inline.

Each test checks the package end to end against published reference
values or a core invariant. Run with ``pytest -v`` to get one pass or
fail line per criterion. The tolerances are written out literally in
each test so a change to them is visible in review.
"""

import math

import numpy as np
import pytest

from errorkit.budget import (
    BudgetComponent,
    ErrorBudget,
    monte_carlo_std,
    total_std,
)
from errorkit.dataset import (
    ErrorSample,
    LegPairs,
    bundled_path,
    load_differential,
    load_series,
    to_error_samples,
)
from errorkit.distributions import ArcsineDistribution, pdf, sample, std
from errorkit.linsolve import NormalEquations, solve
from errorkit.regression import (
    fit_cycle_differential,
    fit_cycle_direct,
    fit_polynomial,
    random_model,
)
from errorkit.simulate import (
    ConditionSchedule,
    ErrorSource,
    classify_effects,
    simulate_differential,
    simulate_repeated,
)

import reference_values as ref

QUARTER_TURN = math.pi / 4.0

# The published nominal leg pairs as the columns the simulator reads.
TABLE3_PAIRS = LegPairs(*zip(*ref.TABLE3_PAIRS))


def rounded_ppm_samples():
    series = load_series(bundled_path("table1.csv"))
    return [
        ErrorSample(condition=s.condition, error=float(round(s.error)))
        for s in to_error_samples(series, "mean-reference")
    ]


def campaign_cycle():
    return ErrorSource.cycle(
        amplitude_mm=5.0, wavelength_m=20.0, phase_rad=QUARTER_TURN
    )


def test_criterion_01_random_model_of_the_frequency_sweep():
    series = load_series(bundled_path("table1.csv"))
    estimate = random_model(series.observed)
    assert f"{estimate.mean:.6f}" == "5.000050"
    assert 15.7 <= estimate.relative_std_ppm <= 15.9


def test_criterion_02_cubic_normal_equations_match_published_integers():
    model = fit_polynomial(rounded_ppm_samples(), degree=3)
    assert np.array_equal(model.normal.matrix, ref.CUBIC_MATRIX)
    assert np.array_equal(model.normal.rhs, ref.CUBIC_RHS)


def test_criterion_03_cubic_coefficients_and_residual():
    model = fit_polynomial(rounded_ppm_samples(), degree=3)
    for got, published in zip(model.coeffs, ref.CUBIC_COEFFS):
        assert abs(got - published) <= 1e-3
    assert 2.1 <= model.residual_std <= 2.5


def test_criterion_04_direct_cycle_fit_of_the_calibration_errors():
    series = load_series(bundled_path("table2.csv"))
    samples = to_error_samples(series, "explicit-reference")
    model = fit_cycle_direct(samples, wavelength=20.0)
    assert abs(model.amplitude - 5.7) <= 0.3
    assert abs(math.degrees(model.phase) - 254.41) <= 3.0


def test_criterion_05_differential_campaign_regenerates_exactly():
    run = simulate_differential(
        campaign_cycle(), TABLE3_PAIRS, round_readings=True
    )
    matches = sum(
        (got.s2 == want_s2) + (got.s1 == want_s1)
        for got, want_s2, want_s1 in zip(run.rows, ref.TABLE3_S2, ref.TABLE3_S1)
    )
    assert matches == 30


def test_criterion_06_mean_leg_difference_of_the_campaign():
    rows = load_differential(bundled_path("table3.csv"))
    estimate = random_model(rows.columns.s1 - rows.columns.s2)
    assert abs(estimate.mean - 8.0014) <= 1e-4


def test_criterion_07_differential_cycle_fit():
    # part one: fit of the published (readout-rounded) readings
    fixture_rows = load_differential(bundled_path("table3.csv"))
    fixture_fit = fit_cycle_differential(fixture_rows, wavelength=20.0)
    for fit in (fixture_fit,):
        matrix_dev = np.abs(fit.normal.matrix - ref.DIFF_MATRIX) / np.abs(
            ref.DIFF_MATRIX
        )
        rhs_dev = np.abs(fit.normal.rhs - ref.DIFF_RHS) / np.abs(ref.DIFF_RHS)
        assert np.max(matrix_dev) <= 1e-4
        assert np.max(rhs_dev) <= 1e-4
    assert abs(fixture_fit.amplitude - 0.00499) <= 5e-5
    assert abs(fixture_fit.phase - QUARTER_TURN) <= 0.01
    assert abs(fixture_fit.offset_s0 - 8.0) < 0.0014

    # part two: fit of the unrounded regenerated stream recovers the
    # base distance to the tight bound the readout rounding destroys
    unrounded = simulate_differential(campaign_cycle(), TABLE3_PAIRS)
    regen_fit = fit_cycle_differential(unrounded.rows, wavelength=20.0)
    matrix_dev = np.abs(regen_fit.normal.matrix - ref.DIFF_MATRIX) / np.abs(
        ref.DIFF_MATRIX
    )
    rhs_dev = np.abs(regen_fit.normal.rhs - ref.DIFF_RHS) / np.abs(ref.DIFF_RHS)
    assert np.max(matrix_dev) <= 1e-4
    assert np.max(rhs_dev) <= 1e-4
    assert abs(regen_fit.offset_s0 - 8.0) <= 1e-5
    assert abs(regen_fit.amplitude - 0.00499) <= 5e-5
    assert abs(regen_fit.phase - QUARTER_TURN) <= 0.01


def test_criterion_08_arcsine_distribution():
    d = ArcsineDistribution(amplitude=5.0)

    # density integrates to one (theta substitution, midpoint rule)
    n = 20000
    theta = (np.arange(n) + 0.5) * (math.pi / n) - math.pi / 2.0
    y = d.amplitude * np.sin(theta)
    densities = np.array([pdf(d, float(v)) for v in y])
    jacobian = d.amplitude * np.cos(theta)
    integral = float(np.sum(densities * jacobian) * (math.pi / n))
    assert abs(integral - 1.0) <= 1e-9

    # second moment is A^2 / 2
    second = float(np.sum(y**2 * densities * jacobian) * (math.pi / n))
    assert abs(second - d.amplitude**2 / 2.0) <= 1e-8 * (d.amplitude**2 / 2.0)

    # sampled std matches A / sqrt(2)
    draws = sample(d, 100_000, np.random.default_rng(99))
    assert abs(np.std(draws, ddof=1) - std(d)) <= 0.02 * std(d)


def test_criterion_09_budget_monte_carlo_agrees_with_the_covariance_law():
    gaussian_budget = ErrorBudget(
        components=(
            BudgetComponent(name="additive", std=1.0, unit="mm"),
            BudgetComponent(
                name="scale", std=2.0, unit="ppm", sensitivity="proportional"
            ),
            BudgetComponent(name="cycle", std=3.0, unit="mm"),
            BudgetComponent(name="resolution", std=1.0, unit="mm"),
        ),
        operating_point_m=1000.0,
    )
    mixed_budget = ErrorBudget(
        components=(
            BudgetComponent(name="additive", std=1.0, unit="mm"),
            BudgetComponent(
                name="scale", std=2.0, unit="ppm", sensitivity="proportional"
            ),
            BudgetComponent(name="cycle", std=3.0, unit="mm", shape="arcsine"),
            BudgetComponent(name="resolution", std=1.0, unit="mm", shape="uniform"),
        ),
        operating_point_m=1000.0,
    )
    for budget in (gaussian_budget, mixed_budget):
        analytic = total_std(budget)
        assert analytic == math.sqrt(15.0)
        estimate = monte_carlo_std(budget, n=1_000_000, seed=20260819)
        assert abs(estimate - analytic) <= 0.005 * analytic


def test_criterion_10_schedule_decides_systematic_random_or_null():
    # frozen schedule: the cycle error repeats identically, systematic
    frozen = simulate_repeated(
        [campaign_cycle(), ErrorSource.additive_constant(0.0, name="null")],
        ConditionSchedule.constant(100, distance=12.5),
        true_value=12.5,
    )
    frozen_report = classify_effects(frozen.contributions).by_name()
    assert frozen_report["cycle"].classification == "systematic"
    assert frozen_report["null"].classification == "non-effect"

    # varied schedule: the same source scatters with std A / sqrt(2)
    varied = simulate_repeated(
        [campaign_cycle()],
        ConditionSchedule.uniform_random(100_000, seed=777, distance=(0.0, 20.0)),
        true_value=12.5,
    )
    varied_report = classify_effects(varied.contributions).by_name()
    assert varied_report["cycle"].classification == "random"
    expected_std = 5.0 / math.sqrt(2.0)
    assert abs(varied_report["cycle"].std - expected_std) <= 0.02 * expected_std

    # differential schedule: a common-mode constant cancels bit for bit
    base = simulate_differential(campaign_cycle(), TABLE3_PAIRS)
    shifted = simulate_differential(
        campaign_cycle(),
        TABLE3_PAIRS,
        extra_sources=[ErrorSource.additive_constant(0.0123)],
    )
    assert [r.s1 - r.s2 for r in shifted.rows] == [r.s1 - r.s2 for r in base.rows]


def test_criterion_11_numerical_spot_checks():
    # one: the solver reproduces a known solution of the published
    # quartic power-sum system to 1e-8 relative
    x_true = np.array([1.0, -2.0, 0.5, 3.0])
    x = solve(NormalEquations(ref.CUBIC_MATRIX, ref.CUBIC_MATRIX @ x_true))
    assert np.max(np.abs(x - x_true)) / np.max(np.abs(x_true)) <= 1e-8

    # two: cubic fit residuals are orthogonal to every basis column
    model = fit_polynomial(rounded_ppm_samples(), degree=3)
    t = np.array([s.condition for s in rounded_ppm_samples()])
    r = np.array([s.error for s in rounded_ppm_samples()])
    residuals = r - np.array([model(v) for v in t])
    for k in range(4):
        bound = 1e-6 * np.sum(np.abs(residuals)) * max(1.0, np.max(np.abs(t)) ** k)
        assert abs(float(residuals @ t**k)) <= bound

    # three: a noiseless sinusoid is recovered to 1e-9
    amplitude, phase = 5.0, QUARTER_TURN
    samples = [
        ErrorSample(
            condition=float(s),
            error=amplitude * math.sin(2.0 * math.pi * s / 20.0 + phase),
        )
        for s in range(20)
    ]
    cycle_fit = fit_cycle_direct(samples, wavelength=20.0)
    assert abs(cycle_fit.amplitude - amplitude) <= 1e-9 * amplitude
    assert abs(cycle_fit.phase - phase) <= 1e-9

    # four: translating dyadic-exact inputs shifts the mean bit for bit
    # and leaves the spread untouched
    values = [3.0, -7.0, 12.0, 5.0, -1.0, 20.0, 8.0, -4.0]
    base = random_model(values)
    moved = random_model([v + 16.0 for v in values])
    assert moved.mean == base.mean + 16.0
    assert moved.std == base.std

    # five: scaling every component std by a power of two scales the
    # analytic total exactly
    parts = tuple(
        BudgetComponent(name=f"c{i}", std=s) for i, s in enumerate((1.0, 2.0, 3.0))
    )
    scaled = tuple(
        BudgetComponent(name=f"c{i}", std=8.0 * s)
        for i, s in enumerate((1.0, 2.0, 3.0))
    )
    assert total_std(ErrorBudget(components=scaled)) == 8.0 * total_std(
        ErrorBudget(components=parts)
    )
