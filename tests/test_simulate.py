import array
import collections
import dataclasses
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errorkit import simulate
from errorkit.regression import fit_cycle_differential
from errorkit.simulate import (
    DEFAULT_EPS_ABS_MM,
    SCENARIO_SCHEMA,
    ConditionSchedule,
    ConfigurationError,
    ErrorSource,
    ScenarioError,
    classify_effects,
    load_scenario,
    simulate_differential,
    simulate_repeated,
)
from errorkit.dataset import LegPairs, bundled_path, load_differential

import reference_values as ref

QUARTER_TURN = math.pi / 4.0


def leg_pairs(pairs):
    """(s_ab, s_ac) pairs as the LegPairs columns simulate_differential takes."""
    return LegPairs(*zip(*pairs))


TABLE3_PAIRS = leg_pairs(ref.TABLE3_PAIRS)

# Leg pairs the scenario loader must reject, as JSON text.
MALFORMED_PAIRS = {
    "boolean": "true",
    "string": '"10"',
    "null": "null",
    "one number": "[10.0]",
    "three numbers": "[10.0, 18.0, 26.0]",
    "nested list": "[[10.0], 18.0]",
    "boolean leg": "[10.0, true]",
    "string leg": '[10.0, "18"]',
    "NaN": "[10.0, NaN]",
    "Infinity": "[-Infinity, 18.0]",
    "overflow": "[10.0, 1e309]",
    "integer beyond double range": "[10, 1" + "0" * 400 + "]",
    "descending": "[18.0, 10.0]",
    "equal": "[10.0, 10.0]",
}


def differential_scenario_text(pairs_json):
    """Scenario file text with the given leg-pair JSON fragments."""
    return (
        '{"sources": [{"name": "c", "kind": "cycle", "amplitude_mm": 1.0}], '
        '"differential": {"pairs": [' + ", ".join(pairs_json) + "]}}"
    )


def campaign_cycle():
    return ErrorSource.cycle(amplitude_mm=5.0, wavelength_m=20.0, phase_rad=QUARTER_TURN)


class TestErrorSource:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            ErrorSource(name="x", kind="drift")

    def test_unknown_condition(self):
        with pytest.raises(ValueError, match="unknown condition"):
            ErrorSource(name="x", kind="cycle", depends_on="humidity")

    @pytest.mark.parametrize(
        ("kind", "depends_on"),
        [
            ("additive-constant", "distance"),
            ("gaussian-noise", "distance"),
            ("temperature-polynomial", "none"),
            ("temperature-polynomial", "distance"),
            ("multiplicative", "temperature"),
            ("cycle", "temperature"),
        ],
    )
    def test_disallowed_condition_for_kind(self, kind, depends_on):
        with pytest.raises(ValueError, match="cannot depend on"):
            ErrorSource(name="x", kind=kind, depends_on=depends_on)

    def test_cycle_needs_positive_wavelength(self):
        with pytest.raises(ValueError, match="wavelength"):
            ErrorSource(name="x", kind="cycle", wavelength_m=0.0)

    def test_noise_needs_nonnegative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            ErrorSource(name="x", kind="gaussian-noise", sigma_mm=-1.0)

    def test_infinite_wavelength_is_refused(self):
        # Every contribution would be zero: a silent non-effect.
        with pytest.raises(ValueError) as excinfo:
            ErrorSource.cycle(amplitude_mm=5.0, wavelength_m=math.inf)
        assert str(excinfo.value) == "source 'cycle': wavelength_m must be finite, got inf"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "c_mm", "r_ppm", "amplitude_mm", "wavelength_m", "phase_rad", "sigma_mm"])
    def test_nonfinite_parameter_names_the_source_and_field(self, field, value):
        with pytest.raises(ValueError) as excinfo:
            ErrorSource(name="src", kind="cycle", depends_on="distance", **{field: value})
        assert str(excinfo.value) == f"source 'src': {field} must be finite, got {value!r}"

    def test_nonfinite_coefficient_names_its_index(self):
        with pytest.raises(ValueError) as excinfo:
            ErrorSource.temperature_polynomial(iter([1.0, 2.0, math.nan]), name="oven")
        assert str(excinfo.value) == "source 'oven': coeffs_ppm[2] must be finite, got nan"

    def test_constructor_defaults(self):
        constant = ErrorSource.additive_constant(1.2)
        assert (constant.name, constant.kind) == ("constant", "additive-constant")
        assert constant.depends_on == "none"

        scale = ErrorSource.multiplicative(2.0)
        assert scale.depends_on == "distance"

        cycle = ErrorSource.cycle(5.0)
        assert (cycle.wavelength_m, cycle.phase_rad) == (20.0, 0.0)
        assert cycle.depends_on == "distance"

        poly = ErrorSource.temperature_polynomial([10.0, -0.01])
        assert poly.depends_on == "temperature"
        assert poly.coeffs_ppm == (10.0, -0.01)

        noise = ErrorSource.gaussian_noise(0.5)
        assert noise.sigma_mm == 0.5

    @pytest.mark.parametrize("kind, depends_on", [
        ("additive-constant", "none"), ("multiplicative", "distance"),
        ("cycle", "distance"), ("temperature-polynomial", "temperature"),
        ("gaussian-noise", "none")])
    def test_depends_on_follows_the_kind(self, kind, depends_on):
        assert ErrorSource(name="x", kind=kind).depends_on == depends_on

    def test_temperature_polynomial_needs_no_condition_named(self):
        source = ErrorSource(name="t", kind="temperature-polynomial", coeffs_ppm=[1.0])
        assert (source.depends_on, source.coeffs_ppm) == ("temperature", (1.0,))

    @pytest.mark.parametrize("make", [ErrorSource.multiplicative, ErrorSource.cycle])
    def test_a_frozen_condition_stays_available(self, make):
        assert make(1.0, depends_on="none").depends_on == "none"

    def test_coefficients_are_stored_as_a_tuple(self):
        source = ErrorSource(
            name="x", kind="temperature-polynomial", depends_on="temperature",
            coeffs_ppm=[1.0, 2.0],
        )
        assert source.coeffs_ppm == (1.0, 2.0)


@pytest.mark.parametrize("run", [
    lambda sources: simulate_repeated(
        sources, ConditionSchedule.constant(3, distance=10.0), true_value=10.0),
    lambda sources: simulate_differential(sources[0], TABLE3_PAIRS, sources[1:]),
], ids=["repeated", "differential"])
def test_duplicate_name_is_refused_before_any_source_is_evaluated(monkeypatch, run):
    evaluated = []
    monkeypatch.setattr(simulate, "_contribution_mm",
                        lambda source, *args: evaluated.append(source.name))
    sources = [campaign_cycle(), ErrorSource.additive_constant(1.0, name="x"),
               ErrorSource.temperature_polynomial([1.0], name="x")]
    with pytest.raises(ConfigurationError) as excinfo:
        run(sources)
    assert str(excinfo.value) == "duplicate source name 'x'"
    assert evaluated == []


class TestConditionSchedule:
    def test_constant_resolve(self):
        schedule = ConditionSchedule.constant(4, distance=15.0)
        resolved = schedule.resolve()
        assert np.array_equal(resolved["distance"], np.full(4, 15.0))

    def test_listed_resolve(self):
        schedule = ConditionSchedule.listed(temperature=[20.0, 21.0, 22.0])
        assert schedule.repeats == 3
        assert np.array_equal(
            schedule.resolve()["temperature"], [20.0, 21.0, 22.0]
        )

    def test_listed_length_mismatch(self):
        with pytest.raises(ValueError, match="expected 3"):
            ConditionSchedule(
                repeats=3, generator="listed", conditions={"distance": [1.0, 2.0]}
            )

    @pytest.mark.parametrize("generator, value", [
        ("constant", 1), ("constant", 1.5), ("constant", True),
        ("constant", np.float64(2.0)), ("constant", np.array(3.0)),
        ("listed", [1.0, 2.0]), ("listed", (1.0, 2.0)), ("listed", np.array([1.0, 2.0])),
        ("listed", range(2)), ("listed", array.array("d", [1.0, 2.0])),
        ("listed", collections.deque([1.0, 2.0]))])
    def test_condition_shapes_taken(self, generator, value):
        # A number or 0-d array per constant condition, a flat sequence
        # or 1-D array per listed one, as np.ndim tells them apart.
        ConditionSchedule(repeats=2, generator=generator, conditions={"distance": value})

    @pytest.mark.parametrize("generator, value, needs", [
        ("listed", 1.0, "a list"), ("constant", [1.0, 2.0], "a number"),
        ("listed", [[1.0], [2.0]], "a list"), ("listed", np.ones((2, 1)), "a list"),
        ("constant", np.array([1.0, 2.0]), "a number"), ("constant", [[1.0]], "a number"),
        ("constant", range(2), "a number"), ("listed", "ab", "a list")])
    def test_condition_shape_follows_the_generator(self, generator, value, needs):
        with pytest.raises(ValueError) as raised:
            ConditionSchedule(repeats=2, generator=generator,
                              conditions={"distance": value})
        assert str(raised.value) == (
            f"{generator} schedule for 'distance' needs {needs}, got {value!r}")

    def test_listed_classmethod_rejects_ragged_input(self):
        with pytest.raises(ValueError, match="same length"):
            ConditionSchedule.listed(distance=[1.0], temperature=[1.0, 2.0])

    def test_uniform_random_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ConditionSchedule(
                repeats=5, generator="uniform-random", ranges={"distance": (0.0, 20.0)}
            )

    def test_uniform_random_needs_ranges(self):
        with pytest.raises(ValueError, match="range"):
            ConditionSchedule(repeats=5, generator="uniform-random", seed=1)

    def test_uniform_random_rejects_empty_range(self):
        with pytest.raises(ValueError, match="empty"):
            ConditionSchedule.uniform_random(5, seed=1, distance=(20.0, 0.0))

    def test_uniform_random_resolve_is_deterministic_and_bounded(self):
        schedule = ConditionSchedule.uniform_random(200, seed=9, distance=(5.0, 7.0))
        first = schedule.resolve()["distance"]
        second = schedule.resolve()["distance"]
        assert np.array_equal(first, second)
        assert first.shape == (200,)
        assert np.all((first >= 5.0) & (first < 7.0))

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError, match="repeats"):
            ConditionSchedule.constant(0, distance=1.0)

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="generator"):
            ConditionSchedule(repeats=1, generator="sobol")


class TestSimulateRepeated:
    def test_observed_reconstruction(self):
        sources = [
            ErrorSource.additive_constant(1.5),
            ErrorSource.multiplicative(2.0),
            campaign_cycle(),
        ]
        schedule = ConditionSchedule.constant(6, distance=15.0)
        run = simulate_repeated(sources, schedule, true_value=15.0)
        total_mm = sum(run.contributions[s.name] for s in sources)
        assert np.array_equal(run.series.observed, 15.0 + total_mm * 1e-3)

    def test_constant_schedule_freezes_every_source(self):
        sources = [campaign_cycle(), ErrorSource.multiplicative(3.0)]
        schedule = ConditionSchedule.constant(8, distance=12.5)
        run = simulate_repeated(sources, schedule, true_value=12.5)
        for name, contributions in run.contributions.items():
            assert np.all(contributions == contributions[0]), name

    def test_random_distance_spreads_the_cycle_contribution(self):
        # over distances uniform in a whole cycle the contribution is an
        # amplitude-A sinusoid at random phase: std A/sqrt(2)
        schedule = ConditionSchedule.uniform_random(
            100_000, seed=777, distance=(0.0, 20.0)
        )
        run = simulate_repeated([campaign_cycle()], schedule, true_value=10.0)
        std = float(np.std(run.contributions["cycle"], ddof=1))
        assert std == pytest.approx(5.0 / math.sqrt(2.0), rel=0.02)

    def test_temperature_polynomial_contribution(self):
        coeffs = (10.0, -0.01, -0.02, 0.0002)
        source = ErrorSource.temperature_polynomial(coeffs)
        schedule = ConditionSchedule.constant(5, temperature=20.0)
        run = simulate_repeated([source], schedule, true_value=10.0)
        r_ppm = 0.0
        for c in reversed(coeffs):
            r_ppm = r_ppm * 20.0 + c
        expected = r_ppm * 10.0 * 1e-3
        assert np.all(run.contributions["temperature"] == expected)

    def test_missing_condition_names_the_source(self):
        schedule = ConditionSchedule.constant(3, distance=10.0)
        source = ErrorSource.temperature_polynomial([1.0], name="oven")
        with pytest.raises(ConfigurationError, match="'oven'.*'temperature'"):
            simulate_repeated([source], schedule, true_value=10.0)

    def test_overflowing_series_raises_value_error(self):
        source = ErrorSource.additive_constant(1e308)
        schedule = ConditionSchedule.constant(3, distance=10.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="observed must be finite, got inf"):
                simulate_repeated([source], schedule, true_value=1.797e308)

    @pytest.mark.parametrize("source, conditions", [
        (ErrorSource.multiplicative(1e308), {"distance": 15.0}),
        (ErrorSource.temperature_polynomial([0, 0, 0, 1e300], name="scale"),
         {"temperature": 1e5}),
    ], ids=["multiplicative", "temperature-polynomial"])
    def test_overflowing_contribution_names_the_source(self, source, conditions):
        schedule = ConditionSchedule.constant(3, **conditions)
        with pytest.raises(ConfigurationError) as excinfo:
            simulate_repeated([source], schedule, true_value=15.0)
        assert str(excinfo.value) == (
            "source 'scale': row 1: contribution must be finite, got inf")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_names_the_source(self):
        # Each contribution is finite; the second takes the sum past the
        # double range, with no numpy warning on the way.
        sources = [ErrorSource.additive_constant(1.5e308, name=n) for n in ("a", "b")]
        schedule = ConditionSchedule.constant(3, distance=10.0)
        with pytest.raises(ConfigurationError) as excinfo:
            simulate_repeated(sources, schedule, true_value=10.0)
        assert str(excinfo.value) == (
            "source 'b': row 1: sum of contributions must be finite, got inf")

    def test_duplicate_source_names(self):
        sources = [
            ErrorSource.additive_constant(1.0, name="x"),
            ErrorSource.additive_constant(2.0, name="x"),
        ]
        schedule = ConditionSchedule.constant(3, distance=10.0)
        with pytest.raises(ConfigurationError, match="duplicate"):
            simulate_repeated(sources, schedule, true_value=10.0)

    def test_noise_is_reproducible_per_seed(self):
        sources = [ErrorSource.gaussian_noise(0.5)]
        schedule = ConditionSchedule.constant(50, distance=10.0)
        a = simulate_repeated(sources, schedule, 10.0, noise_seed=4)
        b = simulate_repeated(sources, schedule, 10.0, noise_seed=4)
        c = simulate_repeated(sources, schedule, 10.0, noise_seed=5)
        assert np.array_equal(a.series.observed, b.series.observed)
        assert not np.array_equal(a.series.observed, c.series.observed)

    @pytest.mark.parametrize("seed", [0, 4, 11, 2**32 + 5, 2**63])
    def test_a_noise_stream_is_the_spawned_child(self, seed):
        # A noise source builds only its own child seed; its draws must be
        # those of the child that spawning one per source gives.
        children = np.random.SeedSequence(seed).spawn(5)
        for position, child in enumerate(children):
            own = np.random.SeedSequence(seed, spawn_key=(position,))
            assert np.array_equal(np.random.default_rng(own).normal(size=16),
                                  np.random.default_rng(child).normal(size=16))
        sources = [ErrorSource.additive_constant(1.0), campaign_cycle(),
                   ErrorSource.gaussian_noise(0.5)]
        run = simulate_repeated(sources, ConditionSchedule.constant(50, distance=10.0),
                                10.0, noise_seed=seed)
        want = np.random.default_rng(children[2]).normal(0.0, 0.5, 50)
        assert np.array_equal(run.contributions[sources[2].name], want)

    def test_single_condition_becomes_the_series_axis(self):
        schedule = ConditionSchedule.listed(temperature=[18.0, 20.0, 22.0])
        run = simulate_repeated(
            [ErrorSource.temperature_polynomial([1.0])], schedule, true_value=10.0
        )
        assert run.series.condition_unit == "degC"
        assert np.array_equal(run.series.conditions, [18.0, 20.0, 22.0])
        assert run.series.value_unit == "m"

    def test_two_conditions_fall_back_to_an_index_axis(self):
        schedule = ConditionSchedule(
            repeats=3,
            generator="constant",
            conditions={"distance": 10.0, "temperature": 20.0},
        )
        sources = [campaign_cycle(), ErrorSource.temperature_polynomial([1.0])]
        run = simulate_repeated(sources, schedule, true_value=10.0)
        assert run.series.condition_unit == "n"
        assert np.array_equal(run.series.conditions, [1.0, 2.0, 3.0])

    def test_label_passthrough(self):
        schedule = ConditionSchedule.constant(2, distance=10.0)
        run = simulate_repeated([], schedule, true_value=10.0, label="warmup")
        assert run.series.label == "warmup"


class TestSimulateDifferential:
    def test_regenerates_the_published_campaign(self):
        run = simulate_differential(
            campaign_cycle(), TABLE3_PAIRS, round_readings=True
        )
        assert tuple(r.s2 for r in run.rows) == ref.TABLE3_S2
        assert tuple(r.s1 for r in run.rows) == ref.TABLE3_S1

    def test_zero_amplitude_returns_the_nominals(self):
        cycle = ErrorSource.cycle(amplitude_mm=0.0)
        run = simulate_differential(cycle, TABLE3_PAIRS)
        for row, (s_ab, s_ac) in zip(run.rows, ref.TABLE3_PAIRS):
            assert row.s2 == s_ab
            assert row.s1 == s_ac

    @pytest.mark.parametrize("c_mm", [0.0123, 0.01, 1e-4, 5.5, -2.75])
    def test_common_mode_constant_cancels_bit_for_bit(self, c_mm):
        base = simulate_differential(campaign_cycle(), TABLE3_PAIRS)
        shifted = simulate_differential(
            campaign_cycle(),
            TABLE3_PAIRS,
            extra_sources=[ErrorSource.additive_constant(c_mm)],
        )
        base_diff = [r.s1 - r.s2 for r in base.rows]
        shifted_diff = [r.s1 - r.s2 for r in shifted.rows]
        assert shifted_diff == base_diff
        assert np.all(shifted.diff_contributions["constant"] == 0.0)

    def test_distance_dependent_source_does_not_cancel(self):
        run = simulate_differential(
            campaign_cycle(),
            TABLE3_PAIRS,
            extra_sources=[ErrorSource.multiplicative(5.0)],
        )
        # 5 ppm over an 8 m difference leaves 0.04 mm in every pair
        assert np.all(np.abs(run.diff_contributions["scale"]) > 0.01)

    def test_driver_must_be_a_cycle(self):
        with pytest.raises(ConfigurationError, match="must be a cycle"):
            simulate_differential(
                ErrorSource.additive_constant(1.0), TABLE3_PAIRS
            )

    def test_temperature_source_rejected(self):
        with pytest.raises(ConfigurationError, match="temperature"):
            simulate_differential(
                campaign_cycle(),
                TABLE3_PAIRS,
                extra_sources=[ErrorSource.temperature_polynomial([1.0])],
            )

    def test_rounded_readings_sit_on_the_readout_grid(self):
        run = simulate_differential(
            campaign_cycle(), TABLE3_PAIRS, round_readings=True
        )
        for row in run.rows:
            assert abs(row.s2 * 1e4 - round(row.s2 * 1e4)) < 1e-6
            assert abs(row.s1 * 1e4 - round(row.s1 * 1e4)) < 1e-6

    def test_unrounded_campaign_fit_recovers_the_generator(self):
        # the fit sees the cycle through nominal-driven leg errors, so
        # recovery is tight but not exact even without readout rounding
        run = simulate_differential(campaign_cycle(), TABLE3_PAIRS)
        model = fit_cycle_differential(run.rows, wavelength=20.0)
        assert abs(model.offset_s0 - 8.0) < 2e-6
        assert abs(model.amplitude - 0.005) < 2e-6
        assert abs(model.phase - QUARTER_TURN) < 2e-6

    def test_noise_reproducible_per_seed(self):
        extra = [ErrorSource.gaussian_noise(0.5)]
        a = simulate_differential(
            campaign_cycle(), TABLE3_PAIRS, extra_sources=extra, noise_seed=11
        )
        b = simulate_differential(
            campaign_cycle(), TABLE3_PAIRS, extra_sources=extra, noise_seed=11
        )
        c = simulate_differential(
            campaign_cycle(), TABLE3_PAIRS, extra_sources=extra, noise_seed=12
        )
        assert [r.s1 for r in a.rows] == [r.s1 for r in b.rows]
        assert [r.s1 for r in a.rows] != [r.s1 for r in c.rows]

    def test_overflowing_series_raises_value_error(self):
        source = ErrorSource.additive_constant(1e308)
        schedule = ConditionSchedule.constant(3, distance=10.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="observed must be finite, got inf"):
                simulate_repeated([source], schedule, true_value=1.797e308)

    def test_overflowing_contribution_names_the_source(self):
        with pytest.raises(ConfigurationError) as excinfo:
            simulate_differential(
                campaign_cycle(), TABLE3_PAIRS, [ErrorSource.multiplicative(1e308)])
        assert str(excinfo.value) == (
            "source 'scale': row 1: contribution must be finite, got inf")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_names_the_source(self):
        # The constants cancel in s1 - s2, but their sum on each leg leaves
        # the double range at the second, with no numpy warning on the way.
        extra = [ErrorSource.additive_constant(1.5e308, name=n) for n in ("a", "b")]
        with pytest.raises(ConfigurationError) as excinfo:
            simulate_differential(campaign_cycle(), TABLE3_PAIRS, extra)
        assert str(excinfo.value) == (
            "source 'b': row 1: sum of contributions must be finite, got inf")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_of_differences_names_the_source(self):
        # Each cycle is +6e307 mm on the short leg and -6e307 mm on the
        # long one: the legs' sums stay finite, the differences' do not.
        cycles = [ErrorSource.cycle(6e307, name=n) for n in ("a", "b")]
        with pytest.raises(ConfigurationError) as excinfo:
            simulate_differential(cycles[0], LegPairs([5.0], [15.0]), cycles[1:])
        assert str(excinfo.value) == (
            "source 'b': row 1: sum of contribution differences must be finite, got -inf")

    def test_duplicate_source_names(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            simulate_differential(
                campaign_cycle(),
                TABLE3_PAIRS,
                extra_sources=[ErrorSource.additive_constant(1.0, name="cycle")],
            )

    @settings(max_examples=40)
    @given(
        c_mm=st.floats(
            min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
        )
    )
    def test_any_constant_shift_cancels(self, c_mm):
        base = simulate_differential(campaign_cycle(), leg_pairs(ref.TABLE3_PAIRS[:5]))
        shifted = simulate_differential(
            campaign_cycle(),
            leg_pairs(ref.TABLE3_PAIRS[:5]),
            extra_sources=[ErrorSource.additive_constant(c_mm)],
        )
        assert [r.s1 - r.s2 for r in shifted.rows] == [
            r.s1 - r.s2 for r in base.rows
        ]


class TestClassifyEffects:
    def test_trichotomy(self):
        report = classify_effects(
            {
                "constant": [2.0, 2.0, 2.0, 2.0],
                "noise": [1.0, -1.0, 2.0, -2.0],
                "nothing": [0.0, 0.0, 0.0, 0.0],
            }
        )
        by_name = report.by_name()
        assert by_name["constant"].classification == "systematic"
        assert by_name["noise"].classification == "random"
        assert by_name["nothing"].classification == "non-effect"

    def test_negligible_scatter_is_a_non_effect(self):
        # both rules would match; the non-effect rule is checked first
        eps = DEFAULT_EPS_ABS_MM
        report = classify_effects({"tiny": [0.9 * eps, -0.9 * eps]})
        effect = report.by_name()["tiny"]
        assert effect.std > eps
        assert effect.classification == "non-effect"

    @pytest.mark.parametrize("contributions, message", [
        ({"a": [math.nan, 1.0, 2.0]}, "source 'a': row 1: contribution must be finite, got nan"),
        ({"a": [1.0, 2.0], "b": [0.0, -math.inf]},
         "source 'b': row 2: contribution must be finite, got -inf"),
    ], ids=["nan", "-inf"])
    def test_nonfinite_contribution_is_refused(self, contributions, message):
        with pytest.raises(ValueError) as info:
            classify_effects(contributions)
        assert str(info.value) == message

    def test_statistics_fields(self):
        values = [1.0, 2.0, 3.0, -6.0]
        report = classify_effects({"x": values})
        effect = report.by_name()["x"]
        assert effect.mean == np.mean(values)
        assert effect.std == pytest.approx(np.std(values, ddof=1), rel=1e-14)
        assert effect.max_abs == 6.0
        assert effect.contributions == tuple(values)

    def test_single_value_has_no_scatter(self):
        report = classify_effects({"x": [5.0]})
        assert report.by_name()["x"].classification == "systematic"

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            classify_effects({"x": []})

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_nonpositive_threshold_rejected(self, eps):
        with pytest.raises(ValueError, match="eps_abs"):
            classify_effects({"x": [1.0]}, eps_abs=eps)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_nonfinite_threshold_rejected(self, eps):
        message = f"eps_abs must be positive and finite, got {eps}"
        with pytest.raises(ValueError, match=message):
            classify_effects({"x": [1.0]}, eps_abs=eps)

    def test_largest_finite_threshold_accepted(self):
        report = classify_effects({"x": [1.0, -2.0]}, eps_abs=1e308)
        assert report.by_name()["x"].classification == "non-effect"

    def test_custom_threshold_reclassifies(self):
        contributions = {"noise": [0.4, -0.4, 0.3]}
        assert classify_effects(contributions).by_name()["noise"].classification == (
            "random"
        )
        assert (
            classify_effects(contributions, eps_abs=1.0)
            .by_name()["noise"]
            .classification
            == "non-effect"
        )

    def test_schedule_decides_the_classification(self):
        # the same cycle source is systematic under a frozen schedule
        # and random once the schedule varies the distance
        frozen = simulate_repeated(
            [campaign_cycle()],
            ConditionSchedule.constant(100, distance=12.5),
            true_value=12.5,
        )
        varied = simulate_repeated(
            [campaign_cycle()],
            ConditionSchedule.uniform_random(100, seed=5, distance=(0.0, 20.0)),
            true_value=12.5,
        )
        frozen_class = classify_effects(frozen.contributions).by_name()["cycle"]
        varied_class = classify_effects(varied.contributions).by_name()["cycle"]
        assert frozen_class.classification == "systematic"
        assert varied_class.classification == "random"


class TestLoadScenario:
    def test_bundled_differential_scenario(self):
        scenario = load_scenario(bundled_path("table3_scenario.json"))
        assert scenario.label == "two-leg-cycle"
        assert scenario.is_differential
        assert scenario.round_readings
        assert not scenario.has_noise
        assert scenario.sources[0].kind == "cycle"
        assert scenario.differential_pairs == ref.TABLE3_PAIRS

    def test_bundled_scenario_regenerates_the_bundled_table(self):
        scenario = load_scenario(bundled_path("table3_scenario.json"))
        run = simulate_differential(
            scenario.sources[0],
            scenario.differential_pairs,
            extra_sources=scenario.sources[1:],
            round_readings=scenario.round_readings,
        )
        fixture_rows = load_differential(bundled_path("table3.csv"))
        assert [(r.s2, r.s1) for r in run.rows] == [
            (r.s2, r.s1) for r in fixture_rows
        ]

    def test_schedule_scenario(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(
            json.dumps(
                {
                    "label": "bench",
                    "true_value": 15.0,
                    "sources": [
                        {"name": "cycle", "kind": "cycle", "amplitude_mm": 5.0},
                        {"name": "noise", "kind": "gaussian-noise", "sigma_mm": 0.3},
                    ],
                    "schedule": {
                        "repeats": 10,
                        "generator": "constant",
                        "conditions": {"distance": 15.0},
                    },
                }
            )
        )
        scenario = load_scenario(p)
        assert not scenario.is_differential
        assert scenario.has_noise
        assert scenario.sources[0].depends_on == "distance"
        run = simulate_repeated(
            scenario.sources, scenario.schedule, scenario.true_value
        )
        assert len(run.series) == 10

    def test_depends_on_defaults_by_kind(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(
            json.dumps(
                {
                    "true_value": 10.0,
                    "sources": [
                        {"name": "t", "kind": "temperature-polynomial",
                         "coeffs_ppm": [1.0]},
                        {"name": "s", "kind": "multiplicative", "r_ppm": 2.0},
                    ],
                    "schedule": {
                        "repeats": 2,
                        "generator": "constant",
                        "conditions": {"temperature": 20.0, "distance": 10.0},
                    },
                }
            )
        )
        scenario = load_scenario(p)
        assert scenario.sources[0].depends_on == "temperature"
        assert scenario.sources[1].depends_on == "distance"

    @pytest.mark.parametrize("name", ["table3_scenario.json", "schedule"])
    def test_sources_are_built_as_written(self, tmp_path, name):
        if name == "schedule":
            doc = {
                "true_value": 10.0,
                "sources": [
                    {"name": "c", "kind": "cycle", "amplitude_mm": 2.0,
                     "depends_on": "none", "phase_rad": 0.5},
                    {"name": "t", "kind": "temperature-polynomial",
                     "coeffs_ppm": [1, -0.5]},
                    {"name": "s", "kind": "multiplicative", "r_ppm": 2},
                    {"name": "k", "kind": "additive-constant", "c_mm": 0.25},
                    {"name": "n", "kind": "gaussian-noise", "sigma_mm": 0.1},
                ],
                "schedule": {"repeats": 2, "generator": "constant",
                             "conditions": {"temperature": 20.0, "distance": 10.0}},
            }
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(doc))
        else:
            path = bundled_path(name)
            doc = json.loads(path.read_text())
        scenario = load_scenario(path)
        assert scenario.sources == tuple(ErrorSource(**s) for s in doc["sources"])

    def test_both_modes_rejected(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(
            json.dumps(
                {
                    "true_value": 10.0,
                    "sources": [{"name": "c", "kind": "cycle", "amplitude_mm": 1.0}],
                    "schedule": {"repeats": 2, "generator": "constant"},
                    "differential": {"pairs": [[10.0, 18.0]]},
                }
            )
        )
        with pytest.raises(ScenarioError, match="exactly one"):
            load_scenario(p)

    def test_neither_mode_rejected(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(
            json.dumps(
                {"sources": [{"name": "c", "kind": "cycle", "amplitude_mm": 1.0}]}
            )
        )
        with pytest.raises(ScenarioError, match="exactly one"):
            load_scenario(p)

    def test_schedule_mode_requires_true_value(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(
            json.dumps(
                {
                    "sources": [{"name": "c", "kind": "cycle", "amplitude_mm": 1.0}],
                    "schedule": {"repeats": 2, "generator": "constant"},
                }
            )
        )
        with pytest.raises(ScenarioError, match="true_value"):
            load_scenario(p)

    def test_unordered_pair_rejected(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(
            json.dumps(
                {
                    "sources": [{"name": "c", "kind": "cycle", "amplitude_mm": 1.0}],
                    "differential": {"pairs": [[18.0, 10.0]]},
                }
            )
        )
        with pytest.raises(ScenarioError, match="s_ac > s_ab"):
            load_scenario(p)

    def test_schema_is_valid_draft_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)

    @pytest.mark.parametrize("bad", MALFORMED_PAIRS.values(), ids=MALFORMED_PAIRS)
    def test_malformed_pair_names_its_index(self, tmp_path, bad):
        p = tmp_path / "scenario.json"
        p.write_text(differential_scenario_text(["[10.0, 18.0]", bad]))
        with pytest.raises(ScenarioError, match=r"at /differential/pairs/1\b"):
            load_scenario(p)

    @pytest.mark.parametrize("bad", ["[10.0, true]", "[10.0, 1e309]"])
    def test_malformed_last_pair_of_a_large_file(self, tmp_path, bad):
        p = tmp_path / "scenario.json"
        p.write_text(differential_scenario_text(["[10.0, 18.0]"] * 9999 + [bad]))
        with pytest.raises(ScenarioError, match=r"at /differential/pairs/9999\b"):
            load_scenario(p)

    def test_pairs_are_loaded_as_float_tuples(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(differential_scenario_text(["[10, 18]", "[10.5, 18.25]"]))
        pairs = load_scenario(p).differential_pairs
        assert pairs == ((10.0, 18.0), (10.5, 18.25))
        assert all(type(v) is float for pair in pairs for v in pair)

    def test_scenario_hashes_as_with_tuple_pairs(self):
        scenario = load_scenario(bundled_path("table3_scenario.json"))
        assert isinstance(scenario.differential_pairs, LegPairs)
        as_tuples = dataclasses.replace(
            scenario,
            differential_pairs=tuple(tuple(p) for p in scenario.differential_pairs),
        )
        assert scenario == as_tuples
        assert hash(scenario) == hash(as_tuples)

    def test_differential_needs_a_cycle_first(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(
            json.dumps(
                {
                    "sources": [{"name": "k", "kind": "additive-constant",
                                 "c_mm": 1.0}],
                    "differential": {"pairs": [[10.0, 18.0]]},
                }
            )
        )
        with pytest.raises(ScenarioError, match="cycle source first"):
            load_scenario(p)

    def test_unknown_kind_rejected_by_schema(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(
            json.dumps(
                {
                    "sources": [{"name": "x", "kind": "not-a-kind"}],
                    "differential": {"pairs": [[10.0, 18.0]]},
                }
            )
        )
        with pytest.raises(ScenarioError) as raised:
            load_scenario(p)
        assert str(raised.value) == (
            "at /sources/0/kind: 'not-a-kind' is not one of ['additive-constant', "
            "'multiplicative', 'cycle', 'temperature-polynomial', 'gaussian-noise']")

    def test_bad_schedule_surfaces_as_scenario_error(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(
            json.dumps(
                {
                    "true_value": 10.0,
                    "sources": [{"name": "c", "kind": "cycle", "amplitude_mm": 1.0}],
                    "schedule": {
                        "repeats": 3,
                        "generator": "listed",
                        "conditions": {"distance": [1.0, 2.0]},
                    },
                }
            )
        )
        with pytest.raises(ScenarioError, match="expected 3"):
            load_scenario(p)

    def test_integral_floats_count_as_integers(self, tmp_path):
        # JSON Schema's integer admits 1.0, so repeats and seed may be floats.
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps({
            "true_value": 10.0,
            "sources": [{"name": "c", "kind": "cycle", "amplitude_mm": 1.0}],
            "schedule": {"repeats": 3.0, "generator": "uniform-random",
                         "ranges": {"distance": [0.0, 20.0]}, "seed": 7.0},
        }))
        schedule = load_scenario(p).schedule
        assert (type(schedule.repeats), type(schedule.seed)) == (int, int)
        assert schedule == ConditionSchedule.uniform_random(3, 7, distance=(0.0, 20.0))
        run = simulate_repeated(load_scenario(p).sources, schedule, 10.0)
        assert len(run.series) == 3

    def test_a_scalar_for_a_listed_schedule_is_a_scenario_error(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps({
            "true_value": 10.0,
            "sources": [{"name": "c", "kind": "cycle", "amplitude_mm": 1.0}],
            "schedule": {"repeats": 2, "generator": "listed",
                         "conditions": {"distance": 1}},
        }))
        with pytest.raises(ScenarioError, match="needs a list, got 1"):
            load_scenario(p)


# --- the leg-pair check against the per-pair loop -----------------------------


def reference_leg_pairs(pairs):
    """The leg-pair check of load_scenario as a loop over the pairs: a
    tuple of float pairs, or the ScenarioError of the first bad pair."""
    out = []
    for i, pair in enumerate(pairs):
        if not (
            type(pair) is list
            and len(pair) == 2
            and type(pair[0]) in (int, float)
            and type(pair[1]) in (int, float)
        ):
            text = json.dumps(pair)  # cut to one short line
            raise ScenarioError(
                f"at /differential/pairs/{i}: expected two numbers "
                f"[s_ab, s_ac], got {text if len(text) <= 24 else text[:21] + '...'}"
            )
        s_ab, s_ac = float(pair[0]), float(pair[1])
        if not s_ac > s_ab:
            raise ScenarioError(
                f"at /differential/pairs/{i}: need s_ac > s_ab, "
                f"got {json.dumps(pair)}"
            )
        out.append((s_ab, s_ac))
    return tuple(out)


def assert_loads_as_the_loop_does(path, pairs):
    path.write_text(json.dumps({
        "sources": [{"name": "c", "kind": "cycle", "amplitude_mm": 1.0}],
        "differential": {"pairs": pairs},
    }))
    try:
        want = reference_leg_pairs(pairs)
    except ScenarioError as exc:
        with pytest.raises(ScenarioError) as got:
            load_scenario(path)
        assert str(got.value) == str(exc)
        return
    got = load_scenario(path).differential_pairs
    assert isinstance(got, LegPairs)
    assert [(a.hex(), b.hex()) for a, b in got] == [
        (a.hex(), b.hex()) for a, b in want
    ]


legs = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60),
    st.integers(2**53, 2**70),
    st.sampled_from([0, 0.0, -0.0, 2**53, 2**53 + 1]),
)
ordered_pairs = st.lists(legs, min_size=2, max_size=2).map(lambda p: sorted(p, key=float))
non_numbers = st.one_of(st.booleans(), st.none(), st.text(max_size=2))


def _with_leg(pair, i, value):
    pair[i] = value
    return pair


bad_items = st.one_of(
    non_numbers,
    st.lists(legs, max_size=3),
    st.tuples(st.lists(legs, max_size=2), legs).map(list),
    # One leg of an ordered pair replaced: a bool between ordered legs
    # passes the order check, so only the type check refuses it.
    st.builds(_with_leg, ordered_pairs, st.integers(0, 1), non_numbers),
    st.lists(st.booleans(), min_size=2, max_size=2),
    ordered_pairs.map(lambda p: p[::-1]),
    legs.map(lambda v: [v, v]),
)


@st.composite
def pair_lists(draw):
    """Ordered pairs, some of them replaced by a bad item at the first,
    the last or any other index."""
    pairs = draw(st.lists(ordered_pairs, min_size=1, max_size=30))
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from(["first", "last", "any"]))
        i = {"first": 0, "last": len(pairs) - 1}.get(where)
        if i is None:
            i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = draw(bad_items)
    return pairs


@settings(max_examples=300, deadline=None)
@given(pairs=pair_lists())
def test_pair_check_agrees_with_the_loop(tmp_path_factory, pairs):
    assert_loads_as_the_loop_does(tmp_path_factory.mktemp("pairs") / "s.json", pairs)


GOOD = [10.0, 18.0]
PAIR_CASES = {
    "bool element": [GOOD, [10.0, True]],
    "ordered bool element": [GOOD, [0, True]],
    "ordered bools": [[False, True], GOOD],
    "bool pair": [GOOD, False],
    "str element": [GOOD, ["10", 18.0]],
    "null element": [GOOD, [10.0, None]],
    "null pair": [None, GOOD],
    "nested list": [GOOD, [[10.0], 18.0]],
    "one element": [GOOD, [10.0]],
    "three elements": [GOOD, [10.0, 18.0, 26.0]],
    "empty pair": [[], GOOD],
    "ints above 2^53": [[2**53 + 1, 2**53 + 2], [2**60, 2**60 + 1000]],
    "ints rounding to equal legs": [GOOD, [2**53, 2**53 + 1]],
    "negative zero": [[-0.0, 1.0], [-1.0, -0.0], [-5, 0]],
    "equal legs": [GOOD, [10.0, 10.0]],
    "zero and negative zero": [GOOD, [0, -0.0]],
    "bad first pair": [[18.0, 10.0]] + [GOOD] * 9,
    "bad last pair": [GOOD] * 9 + [[10.0, "18"]],
    "two bad pairs": [GOOD, [10.0, 9.0], [True, 1]],
}


@pytest.mark.parametrize("pairs", PAIR_CASES.values(), ids=PAIR_CASES)
def test_pair_case_agrees_with_the_loop(tmp_path, pairs):
    assert_loads_as_the_loop_does(tmp_path / "s.json", pairs)
