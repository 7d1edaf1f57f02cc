import dataclasses
import json
import math
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errorkit.budget import (
    BLOCK_DRAWS,
    BUDGET_SCHEMA,
    CHUNK_DRAWS,
    SHAPES,
    BudgetComponent,
    BudgetError,
    ErrorBudget,
    UnitResolutionError,
    _chunk_draws,
    _coefficient_mm,
    load_budget,
    monte_carlo_std,
    total_std,
)
from errorkit.dataset import bundled_path
from errorkit.distributions import ArcsineDistribution, sample


def example_budget():
    """Four independent components whose contributions are 1, 2, 3, 1 mm."""
    return ErrorBudget(
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


def reshaped(budget, shapes):
    """``budget`` with the components named in ``shapes`` declaring the
    shape given there."""
    return dataclasses.replace(budget, components=tuple(
        dataclasses.replace(c, shape=shapes.get(c.name, c.shape))
        for c in budget.components))


class TestComponentValidation:
    def test_negative_std(self):
        with pytest.raises(BudgetError, match="std must be >= 0"):
            BudgetComponent(name="x", std=-1.0)

    @pytest.mark.parametrize("std", [math.nan, math.inf, -math.inf])
    def test_nonfinite_std(self, std):
        with pytest.raises(BudgetError) as raised:
            BudgetComponent(name="x", std=std)
        assert str(raised.value) == f"component 'x': std must be finite, got {std!r}"

    def test_unknown_unit(self):
        with pytest.raises(BudgetError, match="unknown unit"):
            BudgetComponent(name="x", std=1.0, unit="furlong")

    def test_unknown_shape(self):
        with pytest.raises(BudgetError, match="unknown shape"):
            BudgetComponent(name="x", std=1.0, shape="triangular")

    def test_unknown_sensitivity_string(self):
        with pytest.raises(BudgetError, match="unknown sensitivity"):
            BudgetComponent(name="x", std=1.0, sensitivity="quadratic")

    def test_nonfinite_numeric_sensitivity(self):
        with pytest.raises(BudgetError, match="finite"):
            BudgetComponent(name="x", std=1.0, sensitivity=math.inf)

    def test_ppm_with_constant_sensitivity_is_unresolvable(self):
        with pytest.raises(UnitResolutionError, match="operating point") as excinfo:
            BudgetComponent(name="scale", std=2.0, unit="ppm", sensitivity="constant")
        assert excinfo.value.component == "scale"

    def test_ppm_with_custom_coefficient_is_unresolvable(self):
        with pytest.raises(UnitResolutionError, match="no custom coefficient"):
            BudgetComponent(name="scale", std=2.0, unit="ppm", sensitivity=2.0)

    def test_mm_with_proportional_sensitivity_is_unresolvable(self):
        with pytest.raises(UnitResolutionError, match="requires a ppm std"):
            BudgetComponent(name="x", std=1.0, unit="mm", sensitivity="proportional")

    @pytest.mark.parametrize("unit, sensitivity", [
        ("ppm", "proportional"), ("mm", "constant")])
    def test_sensitivity_defaults_to_the_units_rule(self, unit, sensitivity):
        assert BudgetComponent("s", 2.0, unit=unit).sensitivity == sensitivity

    def test_std_is_stored_as_a_float(self):
        component = BudgetComponent("s", 2, sensitivity=3)
        assert type(component.std) is float
        assert (component.std, component.sensitivity) == (2.0, 3)


class TestBudgetValidation:
    def test_duplicate_names(self):
        parts = (
            BudgetComponent(name="x", std=1.0),
            BudgetComponent(name="x", std=2.0),
        )
        with pytest.raises(BudgetError, match="unique"):
            ErrorBudget(components=parts)

    def test_proportional_needs_operating_point(self):
        parts = (BudgetComponent(name="scale", std=2.0, unit="ppm"),)
        with pytest.raises(BudgetError, match="operating_point_m"):
            ErrorBudget(components=parts)

    @pytest.mark.parametrize("unit", ["ppm", "mm"])
    @pytest.mark.parametrize("point", [math.inf, -math.inf, math.nan])
    def test_nonfinite_operating_point(self, unit, point):
        # Refused with or without a component that scales by it, so
        # total_std never returns inf or nan from one.
        parts = (BudgetComponent(name="scale", std=2.0, unit=unit),)
        with pytest.raises(BudgetError) as raised:
            ErrorBudget(components=parts, operating_point_m=point)
        assert str(raised.value) == f"operating_point_m must be finite, got {point!r}"

    def test_operating_point_optional_without_proportional_parts(self):
        budget = ErrorBudget(components=(BudgetComponent(name="x", std=1.0),))
        assert budget.operating_point_m == 0.0


class TestTotalStd:
    def test_root_sum_of_squares(self):
        # contributions 1, 2, 3, 1 mm combine to sqrt(15) exactly
        assert total_std(example_budget()) == math.sqrt(15.0)

    def test_empty_budget(self):
        assert total_std(ErrorBudget(components=())) == 0.0

    def test_single_component_is_its_own_total(self):
        budget = ErrorBudget(components=(BudgetComponent(name="x", std=2.5),))
        assert total_std(budget) == 2.5

    def test_custom_coefficient_scales_a_mm_component(self):
        budget = ErrorBudget(
            components=(BudgetComponent(name="x", std=2.0, sensitivity=3.0),)
        )
        assert total_std(budget) == 6.0

    def test_ppm_component_resolves_through_operating_point(self):
        # 2 ppm of 500 m is 1 mm
        budget = ErrorBudget(
            components=(
                BudgetComponent(
                    name="scale", std=2.0, unit="ppm", sensitivity="proportional"
                ),
            ),
            operating_point_m=500.0,
        )
        assert total_std(budget) == pytest.approx(1.0, rel=1e-14)

    @settings(max_examples=50)
    @given(
        stds=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6
        ),
        k=st.sampled_from([0.25, 0.5, 2.0, 4.0, 1024.0]),
    )
    def test_scale_equivariance_exact_for_powers_of_two(self, stds, k):
        base = ErrorBudget(
            components=tuple(
                BudgetComponent(name=f"c{i}", std=s) for i, s in enumerate(stds)
            )
        )
        scaled = ErrorBudget(
            components=tuple(
                BudgetComponent(name=f"c{i}", std=k * s) for i, s in enumerate(stds)
            )
        )
        assert total_std(scaled) == k * total_std(base)

    def test_scale_equivariance_general(self):
        stds = (1.0, 2.0, 3.0, 1.0)
        base = ErrorBudget(
            components=tuple(
                BudgetComponent(name=f"c{i}", std=s) for i, s in enumerate(stds)
            )
        )
        scaled = ErrorBudget(
            components=tuple(
                BudgetComponent(name=f"c{i}", std=3.7 * s) for i, s in enumerate(stds)
            )
        )
        assert total_std(scaled) == pytest.approx(3.7 * total_std(base), rel=1e-12)

    @settings(max_examples=50)
    @given(
        stds=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=5
        ),
        extra=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_adding_a_component_never_shrinks_the_total(self, stds, extra):
        parts = tuple(
            BudgetComponent(name=f"c{i}", std=s) for i, s in enumerate(stds)
        )
        grown = parts + (BudgetComponent(name="extra", std=extra),)
        assert total_std(ErrorBudget(components=grown)) >= total_std(
            ErrorBudget(components=parts)
        )


class TestMonteCarlo:
    def test_rejects_small_draw_counts(self):
        with pytest.raises(BudgetError, match="10\\^4"):
            monte_carlo_std(example_budget(), n=9_999, seed=1)

    def test_rejects_draw_counts_above_the_ceiling(self):
        with pytest.raises(BudgetError, match=r"10\^9.*1000000001"):
            monte_carlo_std(example_budget(), n=10**9 + 1, seed=1)

    def test_reproducible_for_a_seed(self):
        budget = example_budget()
        a = monte_carlo_std(budget, n=10_000, seed=77)
        b = monte_carlo_std(budget, n=10_000, seed=77)
        assert a == b

    def test_different_seeds_differ(self):
        budget = example_budget()
        assert monte_carlo_std(budget, n=10_000, seed=1) != monte_carlo_std(
            budget, n=10_000, seed=2
        )

    @pytest.mark.parametrize("shape", ["gaussian", "arcsine", "uniform"])
    def test_each_shape_reproduces_its_std(self, shape):
        budget = ErrorBudget(
            components=(BudgetComponent(name="only", std=2.5, shape=shape),)
        )
        estimate = monte_carlo_std(budget, n=100_000, seed=123)
        assert estimate == pytest.approx(2.5, rel=0.02)

    @pytest.mark.parametrize("std", [1.2e308, 6e307])
    def test_uniform_range_past_the_double_range_is_refused(self, std):
        # rng.uniform needs a finite high - low, 2 * sqrt(3) * std.
        budget = ErrorBudget(components=(
            BudgetComponent(name="ok", std=1.0),
            BudgetComponent(name="wide", std=std, shape="uniform"),
        ))
        with pytest.raises(OverflowError, match="^component 'wide': uniform range "):
            monte_carlo_std(budget, n=10_000, seed=1)

    def test_widest_uniform_range_draws(self):
        # Half-width just under max/2: high - low is finite.
        std = math.nextafter(sys.float_info.max / 2 / math.sqrt(3.0), 0.0)
        budget = ErrorBudget(
            components=(BudgetComponent(name="wide", std=std, shape="uniform"),))
        assert math.isfinite(monte_carlo_std(budget, n=10_000, seed=1))

    def test_arcsine_draws_are_pinned_bit_for_bit(self):
        # The value of the inline A*sin(uniform(0, 2*pi)) draw that
        # distributions.sample replaced; the example budget is all gaussian.
        budget = ErrorBudget(
            components=(BudgetComponent(name="cycle", std=1.5, shape="arcsine"),)
        )
        assert monte_carlo_std(budget, n=100_000, seed=7) == 1.5010627693140992

    def test_zero_std_arcsine_component(self):
        # ArcsineDistribution refuses amplitude 0; the component adds nothing.
        zero = BudgetComponent(name="cycle", std=0.0, shape="arcsine")
        alone = monte_carlo_std(ErrorBudget(components=(zero,)), n=10_000, seed=3)
        assert alone == 0.0
        mixed = ErrorBudget(components=(zero, BudgetComponent(name="g", std=1.0)))
        estimate = monte_carlo_std(mixed, n=10_000, seed=3)
        assert math.isfinite(estimate)
        assert estimate == pytest.approx(1.0, rel=0.05)

    def test_matches_analytic_total(self):
        budget = example_budget()
        estimate = monte_carlo_std(budget, n=100_000, seed=123)
        assert estimate == pytest.approx(total_std(budget), rel=0.02)

    def test_other_shapes_change_the_draws_not_the_std(self):
        budget = example_budget()
        default = monte_carlo_std(budget, n=100_000, seed=123)
        other = monte_carlo_std(
            reshaped(budget, {"cycle": "arcsine", "resolution": "uniform"}),
            n=100_000,
            seed=123,
        )
        assert other != default
        assert other == pytest.approx(total_std(budget), rel=0.02)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_huge_std_whose_closed_form_is_finite(self, shape):
        # Squaring the raw draws of a 5e153 mm std overflows to inf.
        budget = ErrorBudget(
            components=(BudgetComponent(name="big", std=5e153, shape=shape),)
        )
        estimate = monte_carlo_std(budget, n=10_000, seed=1)
        assert math.isfinite(estimate)
        assert estimate == pytest.approx(total_std(budget), rel=0.01)

    def test_scaling_is_exact(self):
        # A budget scaled by a power of two gives the same estimate,
        # scaled by the same power, bit for bit.
        budget = example_budget()
        scaled = ErrorBudget(
            components=tuple(
                BudgetComponent(name=c.name, std=math.ldexp(c.std, 600),
                                unit=c.unit, sensitivity=c.sensitivity)
                for c in budget.components
            ),
            operating_point_m=budget.operating_point_m,
        )
        estimate = monte_carlo_std(budget, n=10**5, seed=9)
        assert monte_carlo_std(scaled, n=10**5, seed=9) == math.ldexp(estimate, 600)

    def test_estimate_converges_with_draw_count(self):
        # seed pinned: the error is only shrinking in expectation, and
        # this seed happens to give a strictly shrinking realization
        budget = example_budget()
        analytic = total_std(budget)
        errors = [
            abs(monte_carlo_std(budget, n=n, seed=42) - analytic)
            for n in (10_000, 100_000, 1_000_000)
        ]
        assert errors[0] > errors[1] > errors[2]


def whole_array_monte_carlo_std(budget, n, seed):
    """The Monte Carlo check as it was before streaming: every draw of
    every component held at once, reduced by one ``std(ddof=1)``."""
    children = np.random.SeedSequence(seed).spawn(len(budget.components))
    delta = np.zeros(n)
    for c, child in zip(budget.components, children):
        rng = np.random.Generator(np.random.PCG64(child))
        if c.shape == "gaussian":
            draws = rng.normal(0.0, c.std, n)
        elif c.shape == "arcsine":
            amplitude = c.std * math.sqrt(2.0)
            draws = sample(ArcsineDistribution(amplitude), n, rng) if amplitude else 0.0
        else:
            half = c.std * math.sqrt(3.0)
            draws = rng.uniform(-half, half, n)
        delta += _coefficient_mm(c, budget.operating_point_m) * draws
    return float(delta.std(ddof=1))


# Normal-range stds only: the squares of subnormal draws keep too few
# digits for any two summation orders to agree to a few ulp.
component_stds = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def budgets(draw):
    parts = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        std = draw(component_stds)
        shape = draw(st.sampled_from(SHAPES))
        if draw(st.booleans()):
            parts.append(
                BudgetComponent(
                    name=f"c{i}", std=std, unit="ppm", sensitivity="proportional",
                    shape=shape,
                )
            )
        else:
            sensitivity = draw(
                st.one_of(st.just("constant"), st.floats(min_value=-10, max_value=10))
            )
            parts.append(
                BudgetComponent(
                    name=f"c{i}", std=std, sensitivity=sensitivity, shape=shape
                )
            )
    operating_point = draw(st.floats(min_value=1.0, max_value=1e4))
    return ErrorBudget(components=tuple(parts), operating_point_m=operating_point)


class TestStreaming:
    # 10**4 + 1 and CHUNK_DRAWS + BLOCK_DRAWS + 3 end mid-block.
    SIZES = [10**4, 10**4 + 1, CHUNK_DRAWS - 1, CHUNK_DRAWS, CHUNK_DRAWS + 1,
             CHUNK_DRAWS + BLOCK_DRAWS + 3, 3 * CHUNK_DRAWS + 7]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n", SIZES)
    def test_chunked_draws_join_to_one_call(self, shape, n):
        component = BudgetComponent(name="c", std=1.5, shape=shape)
        whole = _chunk_draws(component, np.random.default_rng(5))(n)
        draw = _chunk_draws(component, np.random.default_rng(5))
        chunks = [
            draw(min(CHUNK_DRAWS, n - start)) for start in range(0, n, CHUNK_DRAWS)
        ]
        assert np.array_equal(np.concatenate(chunks), whole)

    @settings(max_examples=25, deadline=None)
    @given(
        budget=budgets(),
        n=st.integers(min_value=10**4, max_value=3 * CHUNK_DRAWS + 7),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_within_4_ulp_of_the_whole_array_reduction(self, budget, n, seed):
        reference = whole_array_monte_carlo_std(budget, n, seed)
        streamed = monte_carlo_std(budget, n, seed)
        assert abs(streamed - reference) <= 4 * math.ulp(reference)

    def test_pinned_cases_are_bit_equal_to_the_whole_array_reduction(self):
        # (10^6, 20260819) is the README's propagate run, whose --json
        # report prints the estimate to the last digit. The last four end
        # mid-block, the last two mid-chunk too. Past one chunk the merge
        # can differ from the whole-array reduction by an ulp (as at seed
        # 2 here); these cases are ones where it does not.
        budget = example_budget()
        other = reshaped(budget, {"cycle": "arcsine", "resolution": "uniform"})
        for n, seed, b in [
            (10**6, 20260819, budget),
            (10**4, 77, budget),
            (10**5, 123, budget),
            (10**5, 123, other),
            (10**6, 42, budget),
            (10**4 + 1, 0, budget),
            (10**4 + 1, 0, other),
            (CHUNK_DRAWS + BLOCK_DRAWS + 3, 0, budget),
            (CHUNK_DRAWS + BLOCK_DRAWS + 3, 0, other),
        ]:
            assert monte_carlo_std(b, n, seed) == whole_array_monte_carlo_std(b, n, seed)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_memory_is_constant_in_the_draw_count(self, shape):
        # The whole-array reduction peaks at 22.9 MB traced for 10^6 draws.
        # One chunk buffer, and a block or a few per component in flight.
        # The first call is not traced: numpy 2 loads numpy.random then.
        budget = reshaped(example_budget(), {"cycle": shape})
        monte_carlo_std(budget, n=10**4, seed=1)
        tracemalloc.start()
        try:
            monte_carlo_std(budget, n=10**6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * CHUNK_DRAWS + 128 * 2**10


class TestLoadBudget:
    def test_bundled_example(self):
        budget = load_budget(bundled_path("budget_example.json"))
        assert budget.operating_point_m == 1000.0
        assert len(budget.components) == 4
        assert total_std(budget) == math.sqrt(15.0)

    def test_ppm_defaults_to_proportional(self, tmp_path):
        p = tmp_path / "budget.json"
        p.write_text(
            json.dumps(
                {
                    "operating_point_m": 500.0,
                    "components": [{"name": "scale", "std": 2.0, "unit": "ppm"}],
                }
            )
        )
        budget = load_budget(p)
        assert budget.components[0].sensitivity == "proportional"
        assert total_std(budget) == pytest.approx(1.0, rel=1e-14)

    def test_schema_is_valid_draft_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(BUDGET_SCHEMA)

    @pytest.mark.parametrize(
        "text, pointer",
        [
            ('{"components": [{"name": "x", "std": NaN, "unit": "mm"}]}',
             "/components/0/std"),
            ('{"operating_point_m": Infinity, "components": '
             '[{"name": "x", "std": 1.0, "unit": "ppm"}]}',
             "/operating_point_m"),
            ('{"components": [{"name": "x", "std": 1.0, "unit": "mm", '
             '"sensitivity": -1e309}]}',
             "/components/0/sensitivity"),
        ],
        ids=["NaN std", "infinite operating point", "overflowing sensitivity"],
    )
    def test_nonfinite_number_rejected_at_load(self, tmp_path, text, pointer):
        p = tmp_path / "budget.json"
        p.write_text(text)
        with pytest.raises(BudgetError, match=f"budget.json: at {pointer}: "):
            load_budget(p)

    def test_missing_std_rejected_by_schema(self, tmp_path):
        p = tmp_path / "budget.json"
        p.write_text(json.dumps({"components": [{"name": "x", "unit": "mm"}]}))
        with pytest.raises(BudgetError) as raised:
            load_budget(p)
        assert str(raised.value) == "at /components/0: 'std' is a required property"

    def test_unknown_key_rejected_by_schema(self, tmp_path):
        p = tmp_path / "budget.json"
        p.write_text(
            json.dumps(
                {"components": [{"name": "x", "std": 1.0, "unit": "mm", "sd": 2}]}
            )
        )
        with pytest.raises(BudgetError) as raised:
            load_budget(p)
        assert str(raised.value) == (
            "at /components/0: Additional properties are not allowed "
            "('sd' was unexpected)"
        )

    def test_bad_sensitivity_rejected_by_schema(self, tmp_path):
        p = tmp_path / "budget.json"
        p.write_text(
            json.dumps(
                {
                    "components": [
                        {
                            "name": "x",
                            "std": 1.0,
                            "unit": "mm",
                            "sensitivity": "quadratic",
                        }
                    ]
                }
            )
        )
        with pytest.raises(BudgetError) as raised:
            load_budget(p)
        assert str(raised.value) == (
            "at /components/0/sensitivity: 'quadratic' is not valid under any "
            "of the given schemas"
        )

    def test_components_are_built_as_written(self, tmp_path):
        doc = {"operating_point_m": 250.0, "components": [
            {"name": "a", "std": 1, "unit": "mm"},
            {"name": "b", "std": 2.5, "unit": "ppm", "shape": "arcsine"},
            {"name": "c", "std": 0.5, "unit": "mm", "sensitivity": 3},
            {"name": "d", "std": 4.0, "unit": "ppm", "sensitivity": "proportional"},
        ]}
        p = tmp_path / "budget.json"
        p.write_text(json.dumps(doc))
        assert load_budget(p) == ErrorBudget(
            components=tuple(BudgetComponent(**c) for c in doc["components"]),
            operating_point_m=250.0)

    def test_unit_rule_is_reported_before_the_operating_point(self, tmp_path):
        p = tmp_path / "budget.json"
        p.write_text(json.dumps({"components": [
            {"name": "a", "std": 1.0, "unit": "mm", "sensitivity": "proportional"}]}))
        with pytest.raises(UnitResolutionError) as raised:
            load_budget(p)
        assert str(raised.value) == (
            "component 'a': proportional sensitivity requires a ppm std")

    def test_custom_numeric_sensitivity_accepted(self, tmp_path):
        p = tmp_path / "budget.json"
        p.write_text(
            json.dumps(
                {
                    "components": [
                        {"name": "x", "std": 2.0, "unit": "mm", "sensitivity": 3.0}
                    ]
                }
            )
        )
        assert total_std(load_budget(p)) == 6.0
